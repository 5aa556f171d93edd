"""Run configuration: one JSON document covering data generation, crops,
augmentation, model dimensions and training.

Unknown keys are rejected with their path, the schema version is checked,
and a canonical fingerprint (sha256 of the sorted JSON of the whole
config) tags checkpoints so a resumed run can prove it trains under the
same configuration.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field

from .errors import InvalidConfig

SCHEMA_VERSION = 1
SEED_ENV_VAR = "SDPN_SEED"


@dataclass
class DataConfig:
    num_speakers: int = 20
    utts_per_speaker: int = 10
    frames_per_utt: int = 300
    feature_dim: int = 24
    intra_speaker_spread: float = 0.5


@dataclass
class CropConfig:
    num_global: int = 1
    num_local: int = 4
    len_global: int = 200
    len_local: int = 100


@dataclass
class MaskConfig:
    enabled: bool = True
    num_time_masks: int = 1
    num_freq_masks: int = 1
    max_width: int = 8


@dataclass
class ModelConfig:
    encoder_hidden: int = 64
    embed_dim: int = 64
    proj_hidden: int = 128
    proj_dim: int = 32
    num_prototypes: int = 64
    student_temp: float = 0.1
    teacher_temp: float = 0.04
    center_momentum: float = 0.9
    ema_momentum: float = 0.996


@dataclass
class TrainSection:
    epochs: int = 60
    batch_size: int = 32
    lr_peak: float = 0.05
    lr_final: float = 1e-5
    warmup_epochs: int = 6
    momentum: float = 0.9
    mu: float = 0.1
    lam: float = 0.05
    regularizer: str = "frobenius"


@dataclass
class RunConfig:
    schema_version: int = SCHEMA_VERSION
    seed: int = 1234
    data: DataConfig = field(default_factory=DataConfig)
    crops: CropConfig = field(default_factory=CropConfig)
    augment: MaskConfig = field(default_factory=MaskConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainSection = field(default_factory=TrainSection)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def fingerprint(self) -> str:
        """sha256 of the sorted, compact JSON of every field."""
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _build_section(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise InvalidConfig(f"config section '{path}' must be an object")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise InvalidConfig(f"unknown config key(s) under '{path}': {unknown}")
    return cls(**data)


_SECTIONS = {
    "data": DataConfig,
    "crops": CropConfig,
    "augment": MaskConfig,
    "model": ModelConfig,
    "train": TrainSection,
}


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise InvalidConfig("config document must be a JSON object")
    known = set(_SECTIONS) | {"schema_version", "seed"}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise InvalidConfig(f"unknown top-level config key(s): {unknown}")
    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise InvalidConfig(
            f"config schema_version {version} unsupported (expected {SCHEMA_VERSION})")
    cfg = RunConfig(schema_version=SCHEMA_VERSION,
                    seed=raw.get("seed", RunConfig.seed))
    for name, cls in _SECTIONS.items():
        if name in raw:
            setattr(cfg, name, _build_section(cls, raw[name], name))
    return cfg


def load_config(path=None, overrides: dict | None = None,
                env=None) -> RunConfig:
    """Resolve the effective config: file < SDPN_SEED env var < CLI flags."""
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise InvalidConfig(f"cannot read config file {path}: {exc}")
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"config file {path} is not valid JSON: {exc}")
        cfg = config_from_dict(raw)
    else:
        cfg = RunConfig()

    env = os.environ if env is None else env
    env_seed = env.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            cfg.seed = int(env_seed)
        except ValueError:
            raise InvalidConfig(
                f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}")

    for dotted, value in (overrides or {}).items():
        if value is None:
            continue
        target = cfg
        *parents, leaf = dotted.split(".")
        for part in parents:
            target = getattr(target, part)
        if not hasattr(target, leaf):
            raise InvalidConfig(f"unknown config override '{dotted}'")
        setattr(target, leaf, value)
    if type(cfg.seed) is not int or cfg.seed < 0:
        raise InvalidConfig(
            f"seed must be a non-negative integer, got {cfg.seed!r}")
    return cfg

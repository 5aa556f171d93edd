"""Run configuration: one JSON document covering data generation, crops,
augmentation, model dimensions and training.

Unknown keys are rejected with their path, the schema version is checked,
and a canonical fingerprint (sha256 of the sorted JSON of the whole
config) tags checkpoints so a resumed run can prove it trains under the
same configuration. ``load_config`` checks the resolved config once with
``validate``; the modules that read a field trust its type and range.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import sys
from dataclasses import dataclass, field

from . import losses
from .errors import InvalidConfig

SCHEMA_VERSION = 1


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


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """The config in the JSON file at ``path`` (the defaults if None), with
    each non-None ``overrides`` value set at its dotted field, checked by
    ``validate``."""
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

    for dotted, value in (overrides or {}).items():
        if value is None:
            continue
        *parents, leaf = dotted.split(".")
        target = functools.reduce(getattr, parents, cfg)
        if not hasattr(target, leaf):
            raise InvalidConfig(f"unknown config override '{dotted}'")
        setattr(target, leaf, value)
    validate(cfg)
    return cfg


# annotation -> (the types a value may have, what the message asks for)
_TYPES = {"int": ((int,), "an integer"),
          "float": ((int, float), "a finite number"),
          "bool": ((bool,), "true or false"), "str": ((str,), "a string")}
# least values; the fields that must exceed 0; momenta, which lie in [0, 1)
_AT_LEAST = {
    "data.num_speakers": 2, "data.utts_per_speaker": 1,
    "data.frames_per_utt": 1, "data.feature_dim": 1, "crops.num_global": 1,
    "crops.num_local": 1, "crops.len_local": 1, "augment.num_time_masks": 0,
    "augment.num_freq_masks": 0, "model.encoder_hidden": 1,
    "model.embed_dim": 1, "model.proj_hidden": 1, "model.proj_dim": 2,
    "model.num_prototypes": 1, "train.epochs": 0, "train.batch_size": 2,
    "train.mu": 0, "train.lam": 0}
_POSITIVE = ("data.intra_speaker_spread", "model.student_temp",
             "model.teacher_temp", "train.lr_peak")
_MOMENTA = ("model.center_momentum", "model.ema_momentum", "train.momentum")


def _check_types(section, prefix: str):
    """Each field of ``section`` and its sections has its ``_TYPES`` type."""
    for f in dataclasses.fields(section):
        value, path = getattr(section, f.name), prefix + f.name
        if f.type not in _TYPES:
            _check_types(value, path + ".")
            continue
        kinds, wanted = _TYPES[f.type]
        if type(value) not in kinds or (   # NaN and +-inf fail the compare
                f.type == "float" and not abs(value) <= sys.float_info.max):
            raise InvalidConfig(f"{path} must be {wanted}, got {value!r}")


def _field(cfg: RunConfig, path: str):
    return functools.reduce(getattr, path.split("."), cfg)


def validate(cfg: RunConfig):
    """Raise InvalidConfig naming the dotted field unless every field of
    ``cfg`` has its annotated type and a value the program runs with (see
    README, Configuration)."""
    _check_types(cfg, "")
    c, a, t = cfg.crops, cfg.augment, cfg.train
    masked = a.enabled and a.num_time_masks + a.num_freq_masks > 0
    cap = min(c.len_local, cfg.data.feature_dim)
    rules = [("seed", cfg.seed >= 0, "a non-negative integer")]
    rules += [(p, _field(cfg, p) >= low, f">= {low}")
              for p, low in _AT_LEAST.items()]
    rules += [(p, _field(cfg, p) > 0, "> 0") for p in _POSITIVE]
    rules += [(p, 0 <= _field(cfg, p) < 1, "in [0, 1)") for p in _MOMENTA]
    rules += [
        ("crops.len_global", c.len_global > c.len_local,
         f"> crops.len_local ({c.len_local})"),
        ("augment.max_width", not masked or 1 <= a.max_width < cap,
         f"in [1, min(crops.len_local, data.feature_dim)) = [1, {cap})"),
        ("train.warmup_epochs",
         t.epochs == 0 or 0 <= t.warmup_epochs < t.epochs,
         f"in [0, train.epochs) = [0, {t.epochs})"),
        ("train.lr_final", 0 <= t.lr_final <= t.lr_peak,
         f"in [0, train.lr_peak] = [0, {t.lr_peak}]"),
        ("train.regularizer", t.regularizer in losses.REGULARIZERS,
         f"one of {sorted(losses.REGULARIZERS)}")]
    for path, ok, wanted in rules:
        if not ok:
            raise InvalidConfig(
                f"{path} must be {wanted}, got {_field(cfg, path)!r}")

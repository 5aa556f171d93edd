"""Run-config loading: strict keys, overrides, fingerprints."""

import argparse
import dataclasses
import json
import re
from pathlib import Path

import pytest

from sdpn import cli
from sdpn.config import (
    CropConfig,
    DataConfig,
    MaskConfig,
    RunConfig,
    config_from_dict,
    load_config,
    validate,
)
from sdpn.errors import InvalidConfig


def write_config(tmp_path, doc):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_defaults_and_sections_from_dict():
    cfg = config_from_dict({
        "seed": 7,
        "train": {"epochs": 3, "regularizer": "off_diagonal"},
        "model": {"proj_dim": 8},
    })
    assert cfg.seed == 7
    assert cfg.train.epochs == 3
    assert cfg.train.regularizer == "off_diagonal"
    assert cfg.model.proj_dim == 8
    # untouched sections keep their defaults
    assert cfg.data.num_speakers == RunConfig().data.num_speakers


def test_unknown_top_level_key_rejected():
    # "scoring" and "metrics" were sections once; nothing read them
    for key in ("sed", "scoring", "metrics"):
        with pytest.raises(InvalidConfig) as err:
            config_from_dict({key: {}})
        assert key in str(err.value)


def test_unknown_nested_key_rejected_with_path():
    with pytest.raises(InvalidConfig) as err:
        config_from_dict({"train": {"epochs": 3, "lr": 0.1}})
    msg = str(err.value)
    assert "train" in msg and "lr" in msg


def test_section_must_be_an_object():
    with pytest.raises(InvalidConfig):
        config_from_dict({"train": 5})


def test_schema_version_checked():
    with pytest.raises(InvalidConfig):
        config_from_dict({"schema_version": 2})


def test_document_must_be_an_object():
    with pytest.raises(InvalidConfig):
        config_from_dict([1, 2])


def test_load_config_missing_file_and_bad_json(tmp_path):
    with pytest.raises(InvalidConfig):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidConfig):
        load_config(bad)


def test_dotted_overrides(tmp_path):
    path = write_config(tmp_path, {"train": {"epochs": 10}})
    cfg = load_config(path, overrides={"train.epochs": 7,
                                       "train.batch_size": None})
    assert cfg.train.epochs == 7
    assert cfg.train.batch_size == RunConfig().train.batch_size  # None skipped
    with pytest.raises(InvalidConfig):
        load_config(path, overrides={"train.lr": 0.1})


# ----------------------------------------------------------------------
# validate: the one check of a resolved config

# per annotation, values of another type (a bool is not an int, and a
# float field takes only finite numbers)
WRONG_TYPES = {
    "int": ["4", 2.5, 2.0, True, None],
    "float": ["x", True, None, float("nan"), float("inf"), -float("inf")],
    "bool": ["no", 1, 0, None],
    "str": [1, True, None],
}


def _all_fields():
    """(dotted path, annotation) of every scalar field of RunConfig."""
    out = []
    for f in dataclasses.fields(RunConfig):
        if f.type in WRONG_TYPES:
            out.append((f.name, f.type))
        else:
            out += [(f"{f.name}.{g.name}", g.type)
                    for g in dataclasses.fields(f.default_factory)]
    return out


def _set(cfg, dotted, value):
    *parents, leaf = dotted.split(".")
    target = cfg
    for part in parents:
        target = getattr(target, part)
    setattr(target, leaf, value)
    return cfg


def test_defaults_are_valid():
    validate(RunConfig())


@pytest.mark.parametrize("dotted, kind", _all_fields())
def test_validate_refuses_each_wrong_type(dotted, kind):
    for bad in WRONG_TYPES[kind]:
        with pytest.raises(InvalidConfig) as err:
            validate(_set(RunConfig(), dotted, bad))
        assert str(err.value).startswith(f"{dotted} must be "), bad
        assert repr(bad) in str(err.value)


def test_int_in_float_field_is_kept_as_int(tmp_path):
    # never coerced: 1 and 1.0 give different fingerprints
    as_int = load_config(write_config(tmp_path, {"train": {"lr_peak": 1}}))
    assert type(as_int.train.lr_peak) is int
    as_float = RunConfig()
    as_float.train.lr_peak = 1.0
    assert as_int.fingerprint() != as_float.fingerprint()


@pytest.mark.parametrize("dotted, bad", [
    ("seed", -1),
    ("data.num_speakers", 1),
    ("data.utts_per_speaker", 0),
    ("data.frames_per_utt", 0),
    ("data.feature_dim", 0),
    ("data.intra_speaker_spread", 0.0),
    ("data.intra_speaker_spread", -0.5),
    ("crops.num_global", 0),
    ("crops.num_local", 0),
    ("crops.len_local", 0),
    ("crops.len_global", 100),  # not above len_local
    ("augment.num_time_masks", -1),
    ("augment.num_freq_masks", -1),
    ("augment.max_width", 0),
    ("augment.max_width", 24),  # not under feature_dim
    ("model.encoder_hidden", 0),
    ("model.embed_dim", 0),
    ("model.proj_hidden", 0),
    ("model.proj_dim", 0),
    ("model.proj_dim", 1),  # mean_abs_offdiag needs an off-diagonal entry
    ("model.num_prototypes", 0),
    ("model.student_temp", 0.0),
    ("model.teacher_temp", -0.04),
    ("model.center_momentum", 1.0),
    ("model.ema_momentum", -0.1),
    ("train.epochs", -1),
    ("train.warmup_epochs", 60),
    ("train.warmup_epochs", -1),
    ("train.batch_size", 1),
    ("train.lr_peak", 0.0),
    ("train.lr_final", -1e-5),
    ("train.lr_final", 0.06),  # above lr_peak
    ("train.momentum", 1.0),
    ("train.mu", -0.1),
    ("train.lam", -1.0),
])
def test_validate_refuses_out_of_range(dotted, bad):
    with pytest.raises(InvalidConfig) as err:
        validate(_set(RunConfig(), dotted, bad))
    assert str(err.value).startswith(f"{dotted} must be ")
    assert str(err.value).endswith(f", got {bad!r}")


@pytest.mark.parametrize("dotted, value", [
    ("train.mu", 0.0), ("train.lam", 0), ("train.epochs", 0),
    ("train.warmup_epochs", 0), ("train.lr_final", 0.05),
    ("train.momentum", 0), ("model.center_momentum", 0.0),
    ("data.num_speakers", 2), ("train.batch_size", 2), ("seed", 0),
    ("augment.max_width", 23), ("augment.num_time_masks", 0),
    ("model.proj_dim", 2), ("model.num_prototypes", 1),
])
def test_validate_accepts_boundaries(dotted, value):
    validate(_set(RunConfig(), dotted, value))


def test_epochs_zero_ignores_warmup():
    cfg = _set(RunConfig(), "train.epochs", 0)
    validate(_set(cfg, "train.warmup_epochs", 6))


def test_mask_width_rule_spans_sections():
    # max_width < min(crops.len_local, data.feature_dim), only while masking
    # is on with a run to draw
    def cfg(len_local, feature_dim, **mask):
        return RunConfig(data=DataConfig(feature_dim=feature_dim),
                         crops=CropConfig(len_global=200, len_local=len_local),
                         augment=MaskConfig(max_width=8, **mask))

    validate(cfg(9, 9))
    for len_local, feature_dim in ((8, 24), (100, 8)):
        with pytest.raises(InvalidConfig, match=r"augment\.max_width .*"
                           r"= \[1, 8\), got 8"):
            validate(cfg(len_local, feature_dim))
        validate(cfg(len_local, feature_dim, enabled=False))
        validate(cfg(len_local, feature_dim, num_time_masks=0,
                     num_freq_masks=0))
    with pytest.raises(InvalidConfig, match=r"augment\.max_width"):
        validate(cfg(8, 24, num_time_masks=0))  # one kind of run is enough


def test_frames_per_utt_is_not_compared_with_len_global():
    # corpora that are only embedded may be shorter than a global crop
    validate(RunConfig(data=DataConfig(frames_per_utt=60),
                       crops=CropConfig(len_global=120, len_local=60)))


def test_load_config_validates_after_overrides(tmp_path):
    path = write_config(tmp_path, {"seed": -3, "train": {"batch_size": 1}})
    with pytest.raises(InvalidConfig, match="seed must be"):
        load_config(path)
    with pytest.raises(InvalidConfig, match="train.batch_size must be"):
        load_config(path, overrides={"seed": 3})
    cfg = load_config(path, overrides={"seed": 3, "train.batch_size": 4})
    assert (cfg.seed, cfg.train.batch_size) == (3, 4)
    with pytest.raises(InvalidConfig, match="train.lr_peak must be a finite"):
        load_config(path, overrides={"seed": 3, "train.batch_size": 4,
                                     "train.lr_peak": float("nan")})


def test_fingerprint_stable_and_sensitive():
    a, b = RunConfig(), RunConfig()
    assert a.fingerprint() == b.fingerprint()
    # pinned: a change here makes every existing checkpoint unresumable
    assert a.fingerprint() == ("d97dc21b81c6fe8ea097870ca43b9f05"
                               "3f939c45e14bca0841486bdee1c6c60c")
    b.seed = 2
    assert a.fingerprint() != b.fingerprint()
    c = RunConfig()
    c.train.lam = 0.051
    assert a.fingerprint() != c.fingerprint()


def test_fingerprint_matches_manual_recipe():
    import hashlib
    cfg = RunConfig()
    canonical = json.dumps(cfg.to_dict(), sort_keys=True,
                           separators=(",", ":")).encode()
    assert cfg.fingerprint() == hashlib.sha256(canonical).hexdigest()


def test_readme_config_table_matches_config_fields():
    """Each row of the README's configuration table lists exactly the
    fields of its section's dataclass; the top-level row lists the scalar
    fields of RunConfig."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8").split("## Configuration", 1)[1]
    table = {}
    for line in text.splitlines():
        if not line.startswith("|"):
            if table:
                break
            continue
        name, keys = (cell.strip() for cell in line.strip("|").split("|"))
        if name == "section" or set(name) <= {"-"}:
            continue
        table[name.strip("`")] = set(re.findall(r"`(\w+)`", keys))

    expected = {"—": set()}
    for f in dataclasses.fields(RunConfig):
        if f.default_factory is dataclasses.MISSING:
            expected["—"].add(f.name)
        else:
            expected[f.name] = {g.name for g in
                                dataclasses.fields(f.default_factory)}
    assert table == expected


def test_documented_flags_are_cli_options():
    """Every ``--flag`` token of README.md and docs/formats.md is an option
    of some subcommand, so a removed flag cannot linger in the docs (pip's
    flag in the README's Install section aside)."""
    root = Path(__file__).resolve().parents[1]
    text = "".join((root / name).read_text(encoding="utf-8")
                   for name in ("README.md", "docs/formats.md"))
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))
    subcommands, = (action.choices for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    options = {flag for sub in subcommands.values()
               for flag in sub._option_string_actions}
    assert documented - {"--no-build-isolation"} - options == set()

"""Run-config loading: strict keys, env/flag precedence, fingerprints."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from sdpn.config import (
    SEED_ENV_VAR,
    RunConfig,
    config_from_dict,
    load_config,
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


def test_env_seed_beats_file_and_flag_beats_env(tmp_path, monkeypatch):
    path = write_config(tmp_path, {"seed": 1})
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert load_config(path).seed == 1
    monkeypatch.setenv(SEED_ENV_VAR, "42")
    assert load_config(path).seed == 42
    cfg = load_config(path, overrides={"seed": 99})
    assert cfg.seed == 99


def test_env_seed_must_be_integer(tmp_path, monkeypatch):
    path = write_config(tmp_path, {"seed": 1})
    monkeypatch.setenv(SEED_ENV_VAR, "lots")
    with pytest.raises(InvalidConfig):
        load_config(path)


def test_dotted_overrides(tmp_path, monkeypatch):
    path = write_config(tmp_path, {"train": {"epochs": 10}})
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    cfg = load_config(path, overrides={"train.epochs": 2,
                                       "train.batch_size": None})
    assert cfg.train.epochs == 2
    assert cfg.train.batch_size == RunConfig().train.batch_size  # None skipped
    with pytest.raises(InvalidConfig):
        load_config(path, overrides={"train.lr": 0.1})


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

"""End-to-end CLI behavior: subcommands, exit codes, determinism."""

import json

import numpy as np
import pytest

from sdpn import cli, data, model, numerics, scoring, trainer

CONFIG_DOC = {
    "seed": 11,
    "data": {"num_speakers": 4, "utts_per_speaker": 3, "frames_per_utt": 40,
             "feature_dim": 6},
    "crops": {"num_global": 1, "num_local": 2, "len_global": 24,
              "len_local": 10},
    "augment": {"enabled": False},
    "model": {"encoder_hidden": 8, "embed_dim": 8, "proj_hidden": 10,
              "proj_dim": 4, "num_prototypes": 6, "ema_momentum": 0.98},
    "train": {"epochs": 2, "batch_size": 4, "lr_peak": 0.05,
              "warmup_epochs": 1},
}


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """One tiny corpus trained, embedded, and scored through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    w = {"root": root, "config": root / "config.json"}
    w["config"].write_text(json.dumps(CONFIG_DOC), encoding="utf-8")

    corpus = root / "corpus"
    w["trials_all"] = root / "trials_all.txt"
    assert cli.main(["gen-data", "--config", str(w["config"]),
                     "--out", str(corpus),
                     "--trials-out", str(w["trials_all"])]) == 0
    w["manifest"] = corpus / "manifest.tsv"

    run = root / "run"
    assert cli.main(["train", "--config", str(w["config"]),
                     "--manifest", str(w["manifest"]),
                     "--out", str(run)]) == 0
    w["ckpt"] = run / "checkpoint.sdck"
    w["metrics"] = run / "metrics.jsonl"

    w["store"] = root / "all.emb"
    assert cli.main(["embed", "--checkpoint", str(w["ckpt"]),
                     "--manifest", str(w["manifest"]),
                     "--out", str(w["store"])]) == 0

    # trials over the first six utterances; the other six act as cohort
    ids = sorted(scoring.EmbeddingStore.load(w["store"]).ids)
    trial_ids, cohort_ids = set(ids[:6]), ids[6:]
    keep = [t for t in scoring.read_trials(w["trials_all"])
            if t.enroll in trial_ids and t.test in trial_ids]
    assert any(t.label == "1" for t in keep) \
        and any(t.label == "0" for t in keep)
    w["trials"] = root / "trials.txt"
    scoring.write_trials(keep, w["trials"])

    full = scoring.EmbeddingStore.load(w["store"])
    w["cohort"] = root / "cohort.emb"
    scoring.EmbeddingStore(
        cohort_ids, full.matrix[full.rows(cohort_ids)]).save(w["cohort"])

    w["scores"] = root / "scores_cosine.tsv"
    assert cli.main(["score", "--store", str(w["store"]),
                     "--trials", str(w["trials"]),
                     "--out", str(w["scores"])]) == 0
    return w


# ----------------------------------------------------------------------
# pipeline outputs


def test_train_outputs(world):
    assert world["ckpt"].exists()
    lines = world["metrics"].read_text().splitlines()
    assert len(lines) == CONFIG_DOC["train"]["epochs"]
    _, fp = model.load_checkpoint(world["ckpt"])
    assert len(fp) == 64


def test_embed_store_covers_corpus(world):
    store = scoring.EmbeddingStore.load(world["store"])
    assert len(store) == 12
    assert store.matrix.shape == (12, CONFIG_DOC["model"]["embed_dim"])


@pytest.mark.parametrize("block_elements", [1, numerics.BLOCK_ELEMENTS])
def test_embed_interleaved_lengths_in_manifest_order(world, tmp_path,
                                                     monkeypatch,
                                                     block_elements):
    # three frame lengths interleaved; block_elements 1 puts every
    # utterance in its own encoder block
    rng = np.random.default_rng(70)
    corpus = [data.Utterance(f"u{i}", None,
                             rng.standard_normal(((12, 30, 7)[i % 3], 6)))
              for i in range(9)]
    manifest = data.save_corpus(corpus, tmp_path / "corpus")
    monkeypatch.setattr(numerics, "BLOCK_ELEMENTS", block_elements)
    calls = []
    forward_embed = model.forward_embed
    monkeypatch.setattr(model, "forward_embed",
                        lambda *a: calls.append(a) or forward_embed(*a))
    out = tmp_path / "emb.store"
    assert cli.main(["embed", "--checkpoint", str(world["ckpt"]),
                     "--manifest", str(manifest), "--out", str(out)]) == 0
    assert len(calls) == 1
    store = scoring.EmbeddingStore.load(out)
    assert store.ids == [u.utterance_id for u in corpus]
    tensors, _ = model.load_checkpoint(world["ckpt"])
    for u, got in zip(corpus, store.matrix):
        want, _, _ = model.network_forward(tensors, "teacher", u.frames[None])
        np.testing.assert_allclose(got, want[0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("branch", ["teacher", "student"])
def test_embed_reads_only_its_branch_encoder(world, tmp_path, capsys,
                                             branch):
    tensors, fp = model.load_checkpoint(world["ckpt"])
    prefix = f"{branch}.encoder."
    encoder_only = tmp_path / "encoder.sdck"
    model.save_checkpoint(encoder_only, {k: v for k, v in tensors.items()
                                         if k.startswith(prefix)}, fp)
    out = tmp_path / "emb.store"
    assert cli.main(["embed", "--checkpoint", str(encoder_only),
                     "--manifest", str(world["manifest"]),
                     "--branch", branch, "--out", str(out)]) == 0
    full = tmp_path / "full.store"
    assert cli.main(["embed", "--checkpoint", str(world["ckpt"]),
                     "--manifest", str(world["manifest"]),
                     "--branch", branch, "--out", str(full)]) == 0
    assert out.read_bytes() == full.read_bytes()

    no_b2 = tmp_path / "no_b2.sdck"
    model.save_checkpoint(no_b2, {k: v for k, v in tensors.items()
                                  if k != prefix + "b2"}, fp)
    assert cli.main(["embed", "--checkpoint", str(no_b2),
                     "--manifest", str(world["manifest"]),
                     "--branch", branch, "--out", str(out)]) == 2
    assert f"{no_b2} @ 0: missing tensor '{prefix}b2'" \
        in capsys.readouterr().err


@pytest.mark.parametrize("name, shape, want", [
    ("b1", (3,), "(10,)"),
    ("w1", (6, 10, 1), "(F, H)"),
    ("w2", (10, 16), "(20, E)"),
    ("b2", (16, 1), "(16,)"),
], ids=["b1", "w1", "w2", "b2"])
def test_embed_mismatched_encoder_tensors_exit_2(world, tmp_path, capsys,
                                                 name, shape, want):
    # w1 (F, H) = (6, 10), b1 (H,), w2 (2H, E) = (20, 16), b2 (E,)
    tensors, fp = model.load_checkpoint(world["ckpt"])
    encoder = {f"teacher.encoder.{k}": v for k, v in (
        ("w1", np.ones((6, 10))), ("b1", np.ones(10)),
        ("w2", np.ones((20, 16))), ("b2", np.ones(16)))}
    encoder[f"teacher.encoder.{name}"] = np.ones(shape)
    bad = tmp_path / "bad.sdck"
    model.save_checkpoint(bad, encoder, fp)
    assert cli.main(["embed", "--checkpoint", str(bad),
                     "--manifest", str(world["manifest"]),
                     "--out", str(tmp_path / "emb.store")]) == 2
    assert capsys.readouterr().err.strip().endswith(
        f"{bad} @ 0: tensor 'teacher.encoder.{name}' has shape {shape}, "
        f"expected {want}")
    assert not (tmp_path / "emb.store").exists()


def test_cosine_scores_file_shape(world):
    text = world["scores"].read_text().splitlines()
    assert text[0] == "# method=cosine"
    assert len(text) - 1 == len(scoring.read_trials(world["trials"]))
    for line in text[1:]:
        enroll, test, raw, normalized = line.split("\t")
        assert raw == normalized  # cosine leaves scores unnormalized


def test_eval_report(world, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["eval", "--scores", str(world["scores"]),
                     "--trials", str(world["trials"]),
                     "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert json.loads(out.read_text()) == printed
    assert 0.0 <= printed["eer"] <= 1.0
    assert printed["trials"] == printed["targets"] + printed["nontargets"]
    assert printed["p_target"] == 0.05


def test_eval_report_does_not_depend_on_score_order(world, tmp_path):
    trials = scoring.read_trials(world["trials"])
    shuffled = tmp_path / "shuffled.txt"
    order = np.random.default_rng(5).permutation(len(trials))
    scoring.write_trials([trials[i] for i in order], shuffled)
    scores = tmp_path / "shuffled_scores.tsv"
    assert cli.main(["score", "--store", str(world["store"]),
                     "--trials", str(shuffled), "--out", str(scores)]) == 0
    assert scores.read_text() != world["scores"].read_text()
    reports = []
    for name, source in (("in_order", world["scores"]), ("shuffled", scores)):
        out = tmp_path / f"{name}.json"
        assert cli.main(["eval", "--scores", str(source),
                         "--trials", str(world["trials"]),
                         "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_eval_score_row_missing_from_trials_exits_2(world, tmp_path,
                                                    capsys):
    scores = tmp_path / "extra.tsv"
    scores.write_text(world["scores"].read_text()
                      + "ghost\tutt00001\t0.5\t0.5\n", encoding="utf-8")
    assert cli.main(["eval", "--scores", str(scores),
                     "--trials", str(world["trials"])]) == 2
    assert f"trial (ghost, utt00001) not present in {world['trials']}" \
        in capsys.readouterr().err


def test_normalize_methods_and_as_equals_s_at_full_k(world, tmp_path):
    outputs = {}
    for method, extra in (("z", []), ("t", []), ("s", []),
                          ("as", ["--top-k", "6"])):
        out = tmp_path / f"{method}.tsv"
        assert cli.main(["normalize", "--store", str(world["store"]),
                         "--trials", str(world["trials"]),
                         "--cohort", str(world["cohort"]),
                         "--method", method, "--out", str(out)] + extra) == 0
        outputs[method] = out.read_text().splitlines()
    assert outputs["z"][0] == "# method=z"
    assert outputs["as"][0] == "# method=as top_k=6"
    # top-K covering the whole cohort reduces adaptive to plain s-norm
    assert outputs["as"][1:] == outputs["s"][1:]
    raw = [ln.split("\t")[2] for ln in outputs["z"][1:]]
    norm = [ln.split("\t")[3] for ln in outputs["z"][1:]]
    assert raw != norm


def test_normalize_default_top_k_in_header(world, tmp_path):
    out = tmp_path / "as_default.tsv"
    assert cli.main(["normalize", "--store", str(world["store"]),
                     "--trials", str(world["trials"]),
                     "--cohort", str(world["cohort"]),
                     "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "# method=as top_k=6"


# ----------------------------------------------------------------------
# determinism


def test_gen_data_is_deterministic(world, tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert cli.main(["gen-data", "--config", str(world["config"]),
                         "--out", str(d)]) == 0
    a, b = dirs
    assert (a / "manifest.tsv").read_bytes() == (b / "manifest.tsv").read_bytes()
    for line in (a / "manifest.tsv").read_text().splitlines():
        rel = line.split("\t")[1]
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


def test_gen_data_prefix_disjoins_cohort_ids(world, tmp_path):
    out = tmp_path / "cohort"
    assert cli.main(["gen-data", "--config", str(world["config"]),
                     "--seed", "99", "--prefix", "c_",
                     "--out", str(out)]) == 0
    for entry in data.read_manifest(out / "manifest.tsv"):
        assert entry.utterance_id.startswith("c_")
        assert entry.speaker_id.startswith("c_")  # the manifest holds them
    # the point of the flag: embeddings of this corpus pass the cohort
    # overlap check against the unprefixed world's trial list
    corpus = data.load_corpus(out / "manifest.tsv")
    store = scoring.EmbeddingStore([u.utterance_id for u in corpus],
                                   [u.frames.mean(axis=0) for u in corpus])
    trials = scoring.read_trials(world["trials"])
    ids = {t.enroll for t in trials} | {t.test for t in trials}
    scoring.Cohort.from_store(store, ids)  # must not raise


def test_seed_env_var_matches_seed_flag(world, tmp_path, monkeypatch):
    monkeypatch.setenv("SDPN_SEED", "5")
    via_env = tmp_path / "env"
    assert cli.main(["gen-data", "--config", str(world["config"]),
                     "--out", str(via_env)]) == 0
    monkeypatch.delenv("SDPN_SEED")
    via_flag = tmp_path / "flag"
    assert cli.main(["gen-data", "--config", str(world["config"]),
                     "--seed", "5", "--out", str(via_flag)]) == 0
    other = tmp_path / "other"
    assert cli.main(["gen-data", "--config", str(world["config"]),
                     "--seed", "6", "--out", str(other)]) == 0
    first = (via_env / "manifest.tsv").read_text().splitlines()[0].split("\t")[1]
    assert (via_env / first).read_bytes() == (via_flag / first).read_bytes()
    assert (via_env / first).read_bytes() != (other / first).read_bytes()


def test_resume_of_finished_run_rewrites_same_checkpoint(world, tmp_path):
    out = tmp_path / "resumed"
    assert cli.main(["train", "--config", str(world["config"]),
                     "--manifest", str(world["manifest"]),
                     "--resume", str(world["ckpt"]),
                     "--out", str(out)]) == 0
    assert (out / "checkpoint.sdck").read_bytes() == world["ckpt"].read_bytes()
    assert (out / "metrics.jsonl").read_text() == ""


def test_train_epochs_zero(world, tmp_path):
    out = tmp_path / "zero"
    assert cli.main(["train", "--config", str(world["config"]),
                     "--manifest", str(world["manifest"]),
                     "--epochs", "0", "--out", str(out)]) == 0
    assert (out / "checkpoint.sdck").exists()
    assert (out / "metrics.jsonl").read_text() == ""


# ----------------------------------------------------------------------
# exit codes


def test_usage_errors_exit_1(capsys):
    assert cli.main([]) == 1
    assert cli.main(["score"]) == 1
    assert cli.main(["train", "--manifest", "m", "--out", "o",
                     "--bogus"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_config_key_exits_1(world, tmp_path, capsys):
    # "scoring" and "metrics" were sections once; nothing read them
    for key in ("sed", "scoring", "metrics"):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**CONFIG_DOC, key: {}}), encoding="utf-8")
        assert cli.main(["gen-data", "--config", str(bad),
                         "--out", str(tmp_path / "x")]) == 1
        assert repr(key) in capsys.readouterr().err


def test_train_batch_size_flag_is_validated(world, tmp_path, capsys):
    # flag overrides are set on the loaded config, after its sections were
    # built, so the trainer has to check them
    assert cli.main(["train", "--config", str(world["config"]),
                     "--manifest", str(world["manifest"]),
                     "--out", str(tmp_path / "run"),
                     "--batch-size", "1"]) == 1
    assert "batch_size must be >= 2" in capsys.readouterr().err
    assert not (tmp_path / "run" / "checkpoint.sdck").exists()


@pytest.mark.parametrize("train_section, named", [
    ({"warmup_epochs": 60}, "warmup_epochs"),
    ({"diversity_summed": False}, "diversity_summed"),
])
def test_bad_train_section_exits_1(world, tmp_path, capsys, train_section,
                                   named):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"train": train_section}), encoding="utf-8")
    assert cli.main(["train", "--config", str(bad),
                     "--manifest", str(world["manifest"]),
                     "--out", str(tmp_path / "run")]) == 1
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "env", "file"])
def test_negative_seed_exits_1(tmp_path, monkeypatch, capsys, source):
    doc = dict(CONFIG_DOC, seed=-1 if source == "file" else 11)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["gen-data", "--config", str(config), "--out", str(tmp_path / "x")]
    if source == "flag":
        argv += ["--seed", "-1"]
    elif source == "env":
        monkeypatch.setenv("SDPN_SEED", "-1")
    assert cli.main(argv) == 1
    assert "seed must be a non-negative integer, got -1" \
        in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_normalize_rejects_cosine_exits_1(world):
    assert cli.main(["normalize", "--store", str(world["store"]),
                     "--trials", str(world["trials"]),
                     "--method", "cosine", "--out", "/dev/null"]) == 1


def test_cohort_method_without_cohort_exits_1(world):
    assert cli.main(["score", "--store", str(world["store"]),
                     "--trials", str(world["trials"]),
                     "--method", "z", "--out", "/dev/null"]) == 1


def test_top_k_without_as_exits_1(world, tmp_path, capsys):
    out = tmp_path / "x.tsv"
    assert cli.main(["normalize", "--store", str(world["store"]),
                     "--trials", str(world["trials"]),
                     "--cohort", str(world["cohort"]), "--method", "s",
                     "--top-k", "2", "--out", str(out)]) == 1
    assert "top_k applies to method 'as' only" in capsys.readouterr().err
    assert not out.exists()


def test_resume_under_different_config_exits_1(world, tmp_path, capsys):
    assert cli.main(["train", "--config", str(world["config"]),
                     "--seed", "999",
                     "--manifest", str(world["manifest"]),
                     "--resume", str(world["ckpt"]),
                     "--out", str(tmp_path / "x")]) == 1
    assert "fingerprint" in capsys.readouterr().err


def test_missing_embedding_exits_2(world, tmp_path):
    trials = tmp_path / "ghost.txt"
    trials.write_text("1 ghost utt00001\n", encoding="utf-8")
    assert cli.main(["score", "--store", str(world["store"]),
                     "--trials", str(trials),
                     "--out", str(tmp_path / "x.tsv")]) == 2


def test_malformed_store_exits_2(world, tmp_path):
    broken = tmp_path / "broken.emb"
    broken.write_bytes(b"not a store at all")
    assert cli.main(["score", "--store", str(broken),
                     "--trials", str(world["trials"]),
                     "--out", str(tmp_path / "x.tsv")]) == 2


def test_non_utf8_store_id_exits_2(world, tmp_path):
    raw = bytearray(world["store"].read_bytes())
    raw[12] = 0xFF  # first byte of the first id, after magic, header, length
    broken = tmp_path / "non_utf8.emb"
    broken.write_bytes(bytes(raw))
    assert cli.main(["score", "--store", str(broken),
                     "--trials", str(world["trials"]),
                     "--out", str(tmp_path / "x.tsv")]) == 2


def _argv_with(world, tmp_path, command, flag, path):
    """A ``command`` line over the world's files with ``flag`` set to
    ``path``."""
    w = {k: str(v) for k, v in world.items()}
    argv = {
        "train": ["train", "--config", w["config"], "--manifest",
                  w["manifest"]],
        "embed": ["embed", "--checkpoint", w["ckpt"], "--manifest",
                  w["manifest"]],
        "score": ["score", "--store", w["store"], "--trials", w["trials"]],
        "normalize": ["normalize", "--store", w["store"], "--trials",
                      w["trials"], "--cohort", w["cohort"], "--method", "s"],
        "eval": ["eval", "--scores", w["scores"], "--trials", w["trials"]],
    }[command] + ["--out", str(tmp_path / "out")]
    argv[argv.index(flag) + 1] = str(path)
    return argv


TEXT_INPUTS = [("train", "--manifest"), ("embed", "--manifest"),
               ("score", "--trials"), ("eval", "--trials"),
               ("eval", "--scores")]
BINARY_INPUTS = [("embed", "--checkpoint"), ("score", "--store"),
                 ("normalize", "--cohort")]


@pytest.mark.parametrize("command, flag", TEXT_INPUTS + BINARY_INPUTS)
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_input_exits_2(world, tmp_path, capsys, command, flag,
                                  kind):
    path = tmp_path / "nothere" if kind == "missing" else tmp_path
    assert cli.main(_argv_with(world, tmp_path, command, flag, path)) == 2
    assert f"cannot read {path}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["score", "normalize", "eval", "embed",
                                     "gen-data"])
def test_unwritable_output_exits_2(world, tmp_path, capsys, command):
    out = tmp_path / "nodir" / "out"
    if command == "gen-data":
        argv = ["gen-data", "--config", str(world["config"]),
                "--out", str(tmp_path / "corpus"), "--trials-out", str(out)]
    else:
        argv = _argv_with(world, tmp_path, command, "--out", out)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"cannot write {out}" in err
    assert "Traceback" not in err and ".tmp" not in err
    assert not (tmp_path / "nodir").exists()
    assert not list(tmp_path.rglob("*.tmp"))
    # gen-data checks --trials-out before it writes the corpus
    assert not (tmp_path / "corpus").exists()


def test_gen_data_unwritable_feature_file_exits_2(world, tmp_path, capsys):
    out = tmp_path / "corpus"
    blocked = out / "utt00003.sdfk"
    blocked.mkdir(parents=True)
    assert cli.main(["gen-data", "--config", str(world["config"]),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"cannot write {blocked}: " in err
    assert "Traceback" not in err
    assert not (out / "manifest.tsv").exists()


def test_train_unusable_metrics_log_exits_2(world, tmp_path, capsys):
    run = tmp_path / "run"
    log = run / "metrics.jsonl"
    log.mkdir(parents=True)
    assert cli.main(["train", "--config", str(world["config"]),
                     "--manifest", str(world["manifest"]),
                     "--out", str(run)]) == 2
    err = capsys.readouterr().err
    assert f"cannot write {log}: " in err
    assert "Traceback" not in err
    assert sorted(p.name for p in run.iterdir()) == ["metrics.jsonl"]


def test_gen_data_whitespace_in_trial_ids_exits_2(world, tmp_path, capsys):
    out, trials = tmp_path / "corpus", tmp_path / "t.txt"
    assert cli.main(["gen-data", "--config", str(world["config"]),
                     "--prefix", "a b", "--out", str(out),
                     "--trials-out", str(trials)]) == 2
    err = capsys.readouterr().err
    assert f"cannot write {trials}: trial id 'a butt00000' is empty or " \
        "holds whitespace" in err
    # checked before the corpus is written
    assert not out.exists() and not trials.exists()


def test_cohort_emptied_by_overlap_drop_exits_2(world, tmp_path, capsys):
    trials = scoring.read_trials(world["trials"])
    ids = sorted({t.enroll for t in trials} | {t.test for t in trials})
    full = scoring.EmbeddingStore.load(world["store"])
    cohort = tmp_path / "cohort.emb"
    scoring.EmbeddingStore(ids, full.matrix[full.rows(ids)]).save(cohort)
    argv = _argv_with(world, tmp_path, "normalize", "--cohort", cohort)
    assert cli.main(argv + ["--cohort-overlap", "drop"]) == 2
    assert "cohort needs >= 2 entries, got 0" in capsys.readouterr().err


def test_empty_cohort_store_exits_2(world, tmp_path, capsys):
    manifest = data.save_corpus([], tmp_path / "empty")
    cohort = tmp_path / "cohort.emb"
    assert cli.main(["embed", "--checkpoint", str(world["ckpt"]),
                     "--manifest", str(manifest), "--out", str(cohort)]) == 0
    assert len(scoring.EmbeddingStore.load(cohort)) == 0
    assert cli.main(_argv_with(world, tmp_path, "normalize", "--cohort",
                               cohort)) == 2
    assert "cohort needs >= 2 entries, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["as", "z"])
def test_cohort_of_another_width_exits_2(world, tmp_path, capsys, method):
    cohort = tmp_path / "cohort.emb"
    scoring.EmbeddingStore(
        [f"c{i}" for i in range(5)],
        np.random.default_rng(5).standard_normal((5, 3))).save(cohort)
    argv = _argv_with(world, tmp_path, "normalize", "--cohort", cohort)
    assert cli.main(argv + ["--method", method]) == 2
    err = capsys.readouterr().err
    assert f"store {world['store']} holds 8-dim embeddings, cohort " \
        f"{cohort} 3-dim" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flag, source", [
    ("score", "--store", "store"), ("normalize", "--cohort", "cohort")])
def test_zero_vector_exits_2_naming_it(world, tmp_path, capsys, command,
                                       flag, source):
    # no trial reads the zero row; the store is refused all the same
    store = scoring.EmbeddingStore.load(world[source])
    zeroed = tmp_path / "zeroed.emb"
    zero = np.zeros((1, store.matrix.shape[1]))
    scoring.EmbeddingStore(store.ids + ["silent"],
                           np.vstack([store.matrix, zero])).save(zeroed)
    assert cli.main(_argv_with(world, tmp_path, command, flag, zeroed)) == 2
    err = capsys.readouterr().err
    assert "vector 'silent' has L2 norm 0; its cosine is undefined" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["gen-data", "train"])
def test_out_naming_a_file_exits_2(world, tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")
    argv = [command, "--config", str(world["config"]), "--out", str(taken)]
    if command == "train":
        argv += ["--manifest", str(world["manifest"])]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"cannot create directory {taken}" in err
    assert "Traceback" not in err
    assert taken.read_text(encoding="utf-8") == "not a directory\n"


@pytest.mark.parametrize("command, flag", TEXT_INPUTS)
def test_non_utf8_text_input_exits_2(world, tmp_path, capsys, command, flag):
    source = world[{"--manifest": "manifest", "--trials": "trials",
                    "--scores": "scores"}[flag]]
    first, rest = source.read_bytes().split(b"\n", 1)
    broken = tmp_path / "non_utf8.txt"
    broken.write_bytes(first + b"\n\xff" + rest)
    assert cli.main(_argv_with(world, tmp_path, command, flag, broken)) == 2
    assert f"{broken} @ 2: byte {len(first) + 1} is not valid UTF-8" \
        in capsys.readouterr().err


def test_non_numeric_score_exits_2(world, tmp_path, capsys):
    lines = world["scores"].read_text().splitlines()
    enroll, test, _, normalized = lines[1].split("\t")
    lines[1] = "\t".join([enroll, test, "n/a", normalized])
    scores = tmp_path / "scores.tsv"
    scores.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert cli.main(["eval", "--scores", str(scores),
                     "--trials", str(world["trials"])]) == 2
    assert f"{scores} @ 2: raw and normalized must be numbers" \
        in capsys.readouterr().err


def test_single_class_eval_exits_2(world, tmp_path):
    targets_only = [t for t in scoring.read_trials(world["trials"])
                    if t.label == "1"]
    trials = tmp_path / "targets.txt"
    scoring.write_trials(targets_only, trials)
    scores = tmp_path / "targets_scores.tsv"
    assert cli.main(["score", "--store", str(world["store"]),
                     "--trials", str(trials), "--out", str(scores)]) == 0
    assert cli.main(["eval", "--scores", str(scores),
                     "--trials", str(trials)]) == 2


def test_eval_with_unlabeled_trial_exits_2(world, tmp_path):
    scored = scoring.read_trials(world["trials"])
    unlabeled = [scoring.Trial("-", t.enroll, t.test) for t in scored]
    trials = tmp_path / "unlabeled.txt"
    scoring.write_trials(unlabeled, trials)
    assert cli.main(["eval", "--scores", str(world["scores"]),
                     "--trials", str(trials)]) == 2


def test_eval_pair_with_two_labels_exits_2(world, tmp_path, capsys):
    scored = scoring.read_trials(world["trials"])
    label, enroll, test = scored[1]
    other = "0" if label == "1" else "1"
    trials = tmp_path / "two_labels.txt"
    scoring.write_trials(scored + [scored[1]], trials)  # a repeat agrees
    assert cli.main(["eval", "--scores", str(world["scores"]),
                     "--trials", str(trials)]) == 0
    capsys.readouterr()
    scoring.write_trials(scored + [scoring.Trial(other, enroll, test)],
                         trials)
    assert cli.main(["eval", "--scores", str(world["scores"]),
                     "--trials", str(trials)]) == 2
    assert f"{trials} labels trial ({enroll}, {test}) both {label} and " \
        f"{other}" in capsys.readouterr().err


@pytest.mark.parametrize("dropped", ["optimizer.", "optimizer.center",
                                     "optimizer.global_step"])
def test_resume_without_optimizer_state_exits_2(world, tmp_path, capsys,
                                                dropped):
    # a checkpoint holding the weights alone must not restart at epoch 0
    # with zero velocity and a zero center
    tensors, fp = model.load_checkpoint(world["ckpt"])
    weights_only = tmp_path / "weights.sdck"
    model.save_checkpoint(
        weights_only,
        {k: v for k, v in tensors.items() if not k.startswith(dropped)}, fp)
    out = tmp_path / "resumed"
    assert cli.main(["train", "--config", str(world["config"]),
                     "--manifest", str(world["manifest"]),
                     "--resume", str(weights_only), "--out", str(out)]) == 2
    assert f"missing tensor '{dropped}" in capsys.readouterr().err
    assert not (out / "checkpoint.sdck").exists()


def _resume_from(world, tmp_path, tensors, fp):
    crafted = tmp_path / "crafted.sdck"
    model.save_checkpoint(crafted, tensors, fp)
    out = tmp_path / "resumed"
    code = cli.main(["train", "--config", str(world["config"]),
                     "--manifest", str(world["manifest"]),
                     "--resume", str(crafted), "--out", str(out)])
    assert not (out / "checkpoint.sdck").exists()
    return code, crafted


def test_resume_checks_tensor_shapes_and_names(world, tmp_path, capsys):
    tensors, fp = model.load_checkpoint(world["ckpt"])
    wrong = dict(tensors, **{"teacher.projection.b2": np.zeros(3)})
    code, crafted = _resume_from(world, tmp_path, wrong, fp)
    assert code == 2
    assert f"{crafted} @ 0: tensor 'teacher.projection.b2' has shape (3,), " \
        "the config gives (10,)" in capsys.readouterr().err

    extra = dict(tensors, **{"teacher.extra": np.zeros(1)})
    code, crafted = _resume_from(world, tmp_path, extra, fp)
    assert code == 2
    assert f"{crafted} @ 0: unexpected tensor 'teacher.extra'" \
        in capsys.readouterr().err

    missing = {k: v for k, v in tensors.items() if k != "prototypes"}
    code, crafted = _resume_from(world, tmp_path, missing, fp)
    assert code == 2
    assert f"{crafted} @ 0: missing tensor 'prototypes'" \
        in capsys.readouterr().err


def test_train_on_mixed_feature_widths_exits_2(world, tmp_path, capsys):
    rng = np.random.default_rng(71)
    corpus = [data.Utterance(f"u{i}", None,
                             rng.standard_normal((40, 7 if i == 5 else 6)))
              for i in range(8)]
    manifest = data.save_corpus(corpus, tmp_path / "corpus")
    assert cli.main(["train", "--config", str(world["config"]),
                     "--manifest", str(manifest),
                     "--out", str(tmp_path / "run")]) == 2
    assert "utterance 'u5' has 7 features per frame; the model takes 6 " \
        "(data.feature_dim)" in capsys.readouterr().err


def test_zero_frame_feature_file_exits_2(world, tmp_path, capsys):
    # a (0, F) utterance pooled to a NaN embedding that score and eval
    # carried through to a report; it is refused where it is read
    corpus = [data.Utterance("a", None, np.ones((5, 6))),
              data.Utterance("b", None, np.ones((0, 6)))]
    manifest = data.save_corpus(corpus, tmp_path / "corpus")
    out = tmp_path / "emb.store"
    assert cli.main(["embed", "--checkpoint", str(world["ckpt"]),
                     "--manifest", str(manifest), "--out", str(out)]) == 2
    assert f"{tmp_path / 'corpus' / 'b.sdfk'} @ 6: empty 0x6 frame matrix" \
        in capsys.readouterr().err
    assert not out.exists()


def test_nan_checkpoint_exits_2(world, tmp_path, capsys):
    tensors, fp = model.load_checkpoint(world["ckpt"])
    tensors["teacher.encoder.w2"][1, 2] = np.nan
    tensors["optimizer.epoch"][0] = 0.0
    tensors["optimizer.global_step"][0] = 0.0
    crafted = tmp_path / "poisoned.sdck"
    model.save_checkpoint(crafted, tensors, fp)
    offset = crafted.read_bytes().index(np.float64(np.nan).tobytes())
    reason = f"{crafted} @ {offset}: non-finite value nan at (1, 2) of " \
        "tensor 'teacher.encoder.w2'"
    out = tmp_path / "doomed"
    assert cli.main(["train", "--config", str(world["config"]),
                     "--manifest", str(world["manifest"]),
                     "--resume", str(crafted), "--out", str(out)]) == 2
    assert reason in capsys.readouterr().err
    assert not (out / "checkpoint.sdck").exists()
    store = tmp_path / "emb.store"
    assert cli.main(["embed", "--checkpoint", str(crafted), "--manifest",
                     str(world["manifest"]), "--out", str(store)]) == 2
    assert reason in capsys.readouterr().err
    assert not store.exists()


def test_diverged_train_exits_3_with_last_good_checkpoint(world, tmp_path,
                                                          capsys,
                                                          monkeypatch):
    real = trainer.train_step

    def poisoned(state, *args):  # epoch 1's first step goes non-finite
        if state["optimizer.epoch"][0] == 1:
            state["student.encoder.w1"].flat[0] = np.nan
        return real(state, *args)

    monkeypatch.setattr(trainer, "train_step", poisoned)
    out = tmp_path / "doomed"
    assert cli.main(["train", "--config", str(world["config"]),
                     "--manifest", str(world["manifest"]),
                     "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "non-finite loss_ce nan at epoch 1 step 0" in err
    assert f"diverged; last-good checkpoint written to " \
        f"{out / 'checkpoint.sdck'}" in err
    tensors, _ = model.load_checkpoint(out / "checkpoint.sdck")
    assert tensors["optimizer.epoch"].tolist() == [1.0]
    assert all(np.isfinite(arr).all() for arr in tensors.values())


# ----------------------------------------------------------------------
# grad-check


def test_grad_check_single_loss_with_report(tmp_path, capsys):
    report = tmp_path / "fd.jsonl"
    assert cli.main(["grad-check", "--loss", "ce", "--instances", "5",
                     "--report", str(report)]) == 0
    assert "[PASS]" in capsys.readouterr().out
    records = [json.loads(x) for x in report.read_text().splitlines()]
    assert [r["name"] for r in records] == ["fd_ce_gradient"]
    assert records[0]["passed"] is True


def test_grad_check_unwritable_report_exits_2(tmp_path, capsys):
    report = tmp_path / "nodir" / "fd.jsonl"
    assert cli.main(["grad-check", "--loss", "ce", "--instances", "2",
                     "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert f"cannot write {report}" in err and "Traceback" not in err
    assert not (tmp_path / "nodir").exists()


def test_grad_check_rejects_unknown_loss():
    assert cli.main(["grad-check", "--loss", "hinge"]) == 1


@pytest.mark.parametrize("instances", ["0", "-3"])
def test_grad_check_instances_below_one_exits_1(instances, capsys):
    assert cli.main(["grad-check", "--loss", "ce",
                     "--instances", instances]) == 1
    captured = capsys.readouterr()
    assert "--instances must be >= 1" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("loss, offset, named", [
    ("ce", "-200", "fd_ce_gradient the negative seed -99"),
    ("all", "-102", "fd_ce_gradient the negative seed -1"),
])
def test_grad_check_negative_seed_exits_1(loss, offset, named, capsys):
    assert cli.main(["grad-check", "--loss", loss, "--instances", "1",
                     "--seed", offset]) == 1
    captured = capsys.readouterr()
    assert f"--seed {offset} gives {named}" in captured.err
    assert "PASS" not in captured.out

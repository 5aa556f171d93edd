"""End-to-end CLI behavior: subcommands, exit codes, determinism."""

import json

import numpy as np
import pytest

from sdpn import cli, data, model, scoring

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
    ids = sorted(scoring.EmbeddingStore.load(w["store"]).ids())
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
        {i: full.get(i) for i in cohort_ids}).save(w["cohort"])

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
    assert store.dim == CONFIG_DOC["model"]["embed_dim"]


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


def test_threaded_scoring_matches_serial(world, tmp_path):
    single = tmp_path / "t1.tsv"
    multi = tmp_path / "t2.tsv"
    for path, threads in ((single, "1"), (multi, "3")):
        assert cli.main(["normalize", "--store", str(world["store"]),
                         "--trials", str(world["trials"]),
                         "--cohort", str(world["cohort"]),
                         "--threads", threads, "--out", str(path)]) == 0
    assert single.read_bytes() == multi.read_bytes()


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
    for utt in data.load_corpus(out / "manifest.tsv"):
        assert utt.utterance_id.startswith("c_")
        assert utt.speaker_id.startswith("c_")
    # the point of the flag: embeddings of this corpus pass the cohort
    # overlap check against the unprefixed world's trial list
    store = scoring.EmbeddingStore(
        {u.utterance_id: u.frames.mean(axis=0)
         for u in data.load_corpus(out / "manifest.tsv")})
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
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sed": 1}), encoding="utf-8")
    assert cli.main(["gen-data", "--config", str(bad),
                     "--out", str(tmp_path / "x")]) == 1
    assert "sed" in capsys.readouterr().err


def test_normalize_rejects_cosine_exits_1(world):
    assert cli.main(["normalize", "--store", str(world["store"]),
                     "--trials", str(world["trials"]),
                     "--method", "cosine", "--out", "/dev/null"]) == 1


def test_cohort_method_without_cohort_exits_1(world):
    assert cli.main(["score", "--store", str(world["store"]),
                     "--trials", str(world["trials"]),
                     "--method", "z", "--out", "/dev/null"]) == 1


def test_resume_under_different_config_exits_1(world, tmp_path, capsys):
    assert cli.main(["train", "--config", str(world["config"]),
                     "--seed", "999",
                     "--manifest", str(world["manifest"]),
                     "--resume", str(world["ckpt"]),
                     "--out", str(tmp_path / "x")]) == 1
    assert "fingerprint" in capsys.readouterr().err


def test_resume_under_changed_scoring_section_exits_0(world, tmp_path):
    # train reads neither the scoring nor the metrics section, so they stay
    # out of the fingerprint and editing them keeps the checkpoint resumable
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**CONFIG_DOC, "scoring": {"top_k": 5}}),
                      encoding="utf-8")
    out = tmp_path / "resumed"
    assert cli.main(["train", "--config", str(config),
                     "--manifest", str(world["manifest"]),
                     "--resume", str(world["ckpt"]),
                     "--out", str(out)]) == 0
    assert (out / "checkpoint.sdck").read_bytes() == world["ckpt"].read_bytes()


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


def test_nan_checkpoint_resume_exits_3(world, tmp_path, capsys):
    tensors, fp = model.load_checkpoint(world["ckpt"])
    victim = next(k for k in sorted(tensors) if k.startswith("student."))
    tensors[victim] = tensors[victim].copy()
    tensors[victim].flat[0] = np.nan
    tensors["optimizer.epoch"] = np.array(0.0)
    tensors["optimizer.global_step"] = np.array(0.0)
    crafted = tmp_path / "poisoned.sdck"
    model.save_checkpoint(crafted, tensors, fp)
    out = tmp_path / "doomed"
    assert cli.main(["train", "--config", str(world["config"]),
                     "--manifest", str(world["manifest"]),
                     "--resume", str(crafted), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "diverged" in err
    assert (out / "checkpoint.sdck").exists()  # last-good state persisted


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


def test_grad_check_rejects_unknown_loss():
    assert cli.main(["grad-check", "--loss", "hinge"]) == 1

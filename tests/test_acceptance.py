"""Acceptance gate: eight go/no-go checks, one test (and one printed
verdict line) per criterion. Run with -s to see verdicts for passing
criteria too; pytest -v shows one pass/fail line per criterion either way.
"""

import json
import time

import numpy as np
import pytest

from sdpn import cli, data, metrics, model, numerics, proptests, scoring, \
    trainer
from sdpn.config import (CropConfig, MaskConfig, ModelConfig, RunConfig,
                         TrainSection)


def verdict(num, name, ok, detail):
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def run_registered(name, instances=None):
    case = next(c for c in proptests.build_cases() if c.name == name)
    return proptests.run_case(case, instances)


# ----------------------------------------------------------------------
# 1. analytic gradients of every loss term and the composite match central
#    finite differences (h=1e-5) within 1e-4 relative error, >= 50 random
#    instances each, under 30 seconds


def test_criterion_1_gradient_oracle():
    names = ("fd_ce_gradient", "fd_re_gradient", "fd_odr_gradient",
             "fd_fdr_gradient", "fd_composite_gradient")
    results = [run_registered(n, instances=50) for n in names]
    total = sum(r.elapsed for r in results)
    worst = max(r.max_deviation for r in results)
    ok = all(r.passed for r in results) and total < 30.0
    verdict(1, "gradient oracle", ok,
            f"worst_rel_dev={worst:.2e} (tol 1e-4), "
            f"5x50 instances in {total:.1f}s (budget 30s)")


# ----------------------------------------------------------------------
# 2. the covariance-level gradient of the log-Frobenius penalty matches
#    finite differences of log||C||_F over off-diagonal entries (unit
#    diagonal pinned) within 1e-6 on 100 matrices


def test_criterion_2_frobenius_covariance_gradient():
    r = run_registered("fd_frobenius_covariance_grad", instances=100)
    verdict(2, "log-Frobenius gradient w.r.t. covariance", r.passed,
            f"max_dev={r.max_deviation:.2e} (tol 1e-6), 100 matrices")


# ----------------------------------------------------------------------
# 3. normalization identities: adaptive top-K with K = full cohort equals
#    the symmetric norm (1e-12); z/t/s/adaptive outputs invariant under
#    global affine score maps a in {0.5, 3}, b in {-1, 2} (1e-10); frozen
#    hand case

HAND_RAW = 0.8
HAND_ENROLL = [0.9, 0.5, 0.1]
HAND_TEST = [0.7, 0.6, 0.2]
# 1.75 in real arithmetic; double rounding of the decimal inputs leaves
# ~2e-15 (sample stddev would give 1.237..., K=3 gives 1.154..., so the
# tolerance still pins population stddev and K=2 uniquely)
HAND_WANT = 1.75


def test_criterion_3_normalization_identities():
    full_k = run_registered("identity_asnorm_snorm", instances=100)
    affine = run_registered("identity_affine_invariance", instances=50)
    hand = scoring.asnorm(HAND_RAW, HAND_ENROLL, HAND_TEST, top_k=2)
    hand_ok = abs(hand - HAND_WANT) <= 1e-14
    ok = full_k.passed and affine.passed and hand_ok
    verdict(3, "score-normalization identities", ok,
            f"asnorm(K=N)-snorm dev={full_k.max_deviation:.2e} (tol 1e-12), "
            f"affine dev={affine.max_deviation:.2e} (tol 1e-10), "
            f"hand case dev={abs(hand - HAND_WANT):.2e} (tol 1e-14)")


# ----------------------------------------------------------------------
# 4. detection metrics match exhaustive threshold enumeration on 200
#    random score sets (cost model: p_target 0.05, unit costs), minimum
#    cost exactly, interpolated equal-error within 1e-12; plus invariance
#    under strictly increasing score transforms


def test_criterion_4_metric_oracle():
    eer = run_registered("oracle_eer", instances=200)
    dcf = run_registered("oracle_min_dcf", instances=200)
    mono = run_registered("identity_metric_monotone", instances=50)
    ok = eer.passed and dcf.passed and mono.passed
    verdict(4, "metric oracle", ok,
            f"eer dev={eer.max_deviation:.2e} (tol 1e-12), "
            f"min_dcf dev={dcf.max_deviation:.2e} (exact), "
            f"monotone dev={mono.max_deviation:.2e} (tol 1e-12); "
            f"200 sets each")


# ----------------------------------------------------------------------
# 5. normalized covariance: symmetric, unit diagonal, entries in [-1, 1],
#    invariant under positive per-column rescaling; 100 random batches


def test_criterion_5_covariance_properties():
    worst = {"symmetry": 0.0, "diagonal": 0.0, "range": 0.0, "scale": 0.0}
    for i in range(100):
        rng = np.random.default_rng([505, i])
        n = int(rng.integers(4, 17))
        d = int(rng.integers(3, 9))
        z = rng.standard_normal((n, d)) * rng.uniform(0.2, 5.0, size=d)
        c = numerics.normalized_covariance(z)
        worst["symmetry"] = max(worst["symmetry"],
                                float(np.abs(c - c.T).max()))
        worst["diagonal"] = max(worst["diagonal"],
                                float(np.abs(np.diag(c) - 1.0).max()))
        worst["range"] = max(worst["range"], float((np.abs(c) - 1.0).max()))
        rescaled = numerics.normalized_covariance(
            z * rng.uniform(0.1, 10.0, size=d))
        worst["scale"] = max(worst["scale"],
                             float(np.abs(c - rescaled).max()))
    ok = (max(worst["symmetry"], worst["diagonal"], worst["scale"]) <= 1e-12
          and worst["range"] <= 1e-12)
    verdict(5, "covariance properties", ok,
            ", ".join(f"{k} dev={v:.2e}" for k, v in worst.items())
            + " (tol 1e-12), 100 batches")


# ----------------------------------------------------------------------
# 6. anti-collapse experiment: with 20 speakers x 10 utterances and the
#    same seed, either dimension regularizer at weight 0.05 ends with
#    mean |off-diagonal| <= 0.5x the unregularized run, within 5 minutes


def test_criterion_6_anti_collapse_experiment():
    start = time.perf_counter()
    out = proptests.paired_regularizer_runs(
        7, num_speakers=20, utts_per_speaker=10, frames_per_utt=160,
        epochs=300, batch_size=32)
    elapsed = time.perf_counter() - start
    r_odr = out["off_diagonal"] / out["none"]
    r_fdr = out["frobenius"] / out["none"]
    ok = r_odr <= 0.5 and r_fdr <= 0.5 and elapsed <= 300.0
    verdict(6, "anti-collapse experiment", ok,
            f"mean|offdiag| none={out['none']:.4f}, "
            f"off_diagonal ratio={r_odr:.3f}, frobenius ratio={r_fdr:.3f} "
            f"(bar 0.5), {elapsed:.0f}s (budget 300s)")


# ----------------------------------------------------------------------
# 7. end-to-end: train on one synthetic corpus, embed a held-out corpus
#    (same spread 0.5 recipe, fresh speakers), cosine EER <= 10%, and
#    adaptive normalization at K = cohort/2 costs at most 0.5 points

E2E_SEED = 1234


def _embed_store(net, corpus, prefix=""):
    return scoring.EmbeddingStore(
        {prefix + u.utterance_id: model.forward_embed(net, u.frames)[0]
         for u in corpus})


def test_criterion_7_end_to_end():
    train_corpus = data.generate_synthetic_corpus(20, 10, 160, 24, 0.5,
                                                  E2E_SEED)
    held = [data.Utterance("h" + u.utterance_id, u.speaker_id, u.frames)
            for u in data.generate_synthetic_corpus(12, 6, 160, 24, 0.5,
                                                    E2E_SEED + 1)]
    cohort_corpus = data.generate_synthetic_corpus(200, 1, 160, 24, 0.5,
                                                   E2E_SEED + 2)

    cfg = RunConfig(
        seed=E2E_SEED, crops=CropConfig(1, 4, 120, 60),
        augment=MaskConfig(enabled=False),
        model=ModelConfig(encoder_hidden=48, embed_dim=48, proj_hidden=64,
                          proj_dim=16, num_prototypes=32, ema_momentum=0.99),
        train=TrainSection(epochs=120, batch_size=32, lr_peak=0.05,
                           lr_final=1e-5, warmup_epochs=6, mu=0.1, lam=0.05,
                           regularizer="frobenius"))
    pair = model.TeacherStudentPair.create(
        np.random.default_rng(E2E_SEED), feature_dim=24, encoder_hidden=48,
        embed_dim=48, proj_hidden=64, proj_dim=16, num_prototypes=32)
    pair, _, _ = trainer.train(train_corpus, pair, cfg)

    store = _embed_store(pair.teacher, held)
    trials = data.build_trial_list(held)
    labels = [t.label == "1" for t in trials]
    _, cosine = scoring.TrialScorer(store, None).score_trials(trials)
    eer_cos, _ = metrics.eer(cosine, labels)

    cohort_store = _embed_store(pair.teacher, cohort_corpus, prefix="c_")
    cohort = scoring.Cohort.from_store(
        cohort_store, {t.enroll for t in trials} | {t.test for t in trials})
    _, adaptive = scoring.TrialScorer(
        store, cohort, method="as",
        top_k=len(cohort_store) // 2).score_trials(trials)
    eer_as, _ = metrics.eer(adaptive, labels)

    ok = eer_cos <= 0.10 and eer_as <= eer_cos + 0.005
    verdict(7, "end-to-end synthetic verification", ok,
            f"cosine EER={eer_cos:.4f} (bar 0.10), adaptive-norm "
            f"EER={eer_as:.4f} (bar cosine+0.005), "
            f"{len(trials)} held-out trials, cohort 200, K=100")


# ----------------------------------------------------------------------
# 8. two CLI pipeline runs with the same seed produce byte-identical
#    checkpoints, score files, and evaluation reports

C8_CONFIG = {
    "seed": 1905,
    "data": {"num_speakers": 6, "utts_per_speaker": 4, "frames_per_utt": 48,
             "feature_dim": 6},
    "crops": {"num_global": 1, "num_local": 2, "len_global": 24,
              "len_local": 10},
    "augment": {"enabled": True, "num_time_masks": 1, "num_freq_masks": 1,
                "max_width": 3},
    "model": {"encoder_hidden": 10, "embed_dim": 10, "proj_hidden": 12,
              "proj_dim": 5, "num_prototypes": 8, "ema_momentum": 0.98},
    "train": {"epochs": 3, "batch_size": 4, "lr_peak": 0.05,
              "warmup_epochs": 1},
}


def _pipeline_once(root, config):
    corpus = root / "corpus"
    trials = root / "trials.txt"
    assert cli.main(["gen-data", "--config", str(config),
                     "--out", str(corpus), "--trials-out", str(trials)]) == 0
    run = root / "run"
    assert cli.main(["train", "--config", str(config),
                     "--manifest", str(corpus / "manifest.tsv"),
                     "--out", str(run)]) == 0
    store = root / "emb.store"
    assert cli.main(["embed", "--checkpoint", str(run / "checkpoint.sdck"),
                     "--manifest", str(corpus / "manifest.tsv"),
                     "--out", str(store)]) == 0
    scores = root / "scores.tsv"
    assert cli.main(["score", "--store", str(store), "--trials", str(trials),
                     "--out", str(scores)]) == 0
    report = root / "report.json"
    assert cli.main(["eval", "--scores", str(scores), "--trials", str(trials),
                     "--out", str(report)]) == 0
    return {
        "checkpoint": run / "checkpoint.sdck",
        "metrics_log": run / "metrics.jsonl",
        "store": store,
        "scores": scores,
        "report": report,
    }


def test_criterion_8_byte_identical_pipeline(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(C8_CONFIG), encoding="utf-8")
    a = _pipeline_once(tmp_path / "a", config)
    b = _pipeline_once(tmp_path / "b", config)
    capsys.readouterr()  # swallow the CLI's own path echoes
    mismatched = [k for k in a if a[k].read_bytes() != b[k].read_bytes()]
    verdict(8, "pipeline determinism", not mismatched,
            "checkpoint, metrics log, embedding store, scores, report "
            + ("all byte-identical" if not mismatched
               else f"MISMATCH in {mismatched}"))

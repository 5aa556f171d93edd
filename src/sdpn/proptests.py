"""Cross-module verification suite: finite-difference gradient cases,
brute-force metric oracles, algebraic identities, and a miniature paired
anti-collapse run.

Every case is registered with a name, seed, and tolerance; ``run_suite``
executes a fnmatch-filtered subset and reports one record per case. The
``grad-check`` CLI subcommand and the test suite both drive this module, so
the oracle code lives here once. Oracles deliberately use naive counting
loops and re-derived formulas rather than the library's vectorized paths.
"""

from __future__ import annotations

import fnmatch
import json
import time
from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from . import losses, metrics, model, numerics, scoring, trainer
from .config import CropConfig, ModelConfig

FD_STEP = 1e-5


def rel_error(analytic, numeric) -> float:
    """Max absolute deviation scaled by the larger matrix magnitude."""
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(numeric, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-12)
    return float(np.abs(a - b).max(initial=0.0) / scale)


@dataclass(frozen=True)
class CaseResult:
    name: str
    kind: str
    max_deviation: float
    tolerance: float
    passed: bool
    elapsed: float
    detail: str = ""


@dataclass(frozen=True)
class OracleCase:
    name: str
    kind: str  # fd_gradient | oracle | identity | paired_run
    seed: int
    tolerance: float
    runner: object  # callable(seed, instances, tolerance) -> (max_dev, detail)
    instances: int = 50


# ----------------------------------------------------------------------
# instance generators


def _random_distributions(rng, rows, k):
    return numerics.softmax(rng.standard_normal((rows, k)), 1.0)


def _well_separated_batch(rng, n, d, margin=1e-3, floor=1e-2,
                          unit_rows=False):
    """Random batch whose nearest-neighbour structure is stable under the
    finite-difference perturbation (no min-distance ties near the step).

    With ``unit_rows`` the rows are L2-normalized first (separation is
    re-checked afterwards): prototype scores of a unit batch stay in [-1, 1],
    which keeps even a sharply tempered softmax well clear of the
    probability floor that would flatten the finite differences.
    """
    while True:
        x = rng.standard_normal((n, d))
        if unit_rows:
            x /= np.linalg.norm(x, axis=1, keepdims=True)
        dist = numerics.pairwise_distances(x)
        np.fill_diagonal(dist, np.inf)
        ordered = np.sort(dist, axis=1)
        if ordered[:, 0].min() > floor and (ordered[:, 1] - ordered[:, 0]).min() > margin:
            return x


def _dims(rng):
    return int(rng.integers(4, 17)), int(rng.integers(3, 9))


# ----------------------------------------------------------------------
# finite-difference cases


def _fd_ce(seed, instances, tolerance):
    worst = 0.0
    for i in range(instances):
        rng = np.random.default_rng([seed, i])
        k = int(rng.integers(3, 9))
        g = int(rng.integers(1, 3))
        l = int(rng.integers(1, 5))
        p_tea = _random_distributions(rng, g, k)
        logits = rng.standard_normal((l, k))

        def f(y):
            return losses.cross_entropy_loss(p_tea, numerics.softmax(y, 1.0)).value

        analytic = losses.cross_entropy_loss(
            p_tea, numerics.softmax(logits, 1.0)).gradient
        fd = numerics.finite_diff_gradient(f, logits, FD_STEP)
        worst = max(worst, rel_error(analytic, fd))
    return worst, f"{instances} instances"


def _fd_re(seed, instances, tolerance):
    worst = 0.0
    for i in range(instances):
        rng = np.random.default_rng([seed, i])
        n, d = _dims(rng)
        x = _well_separated_batch(rng, n, d)

        def f(z):
            return losses.diversity_regularization(z).value

        analytic = losses.diversity_regularization(x).gradient
        fd = numerics.finite_diff_gradient(f, x, FD_STEP)
        worst = max(worst, rel_error(analytic, fd))
    return worst, f"{instances} instances"


def _fd_dimreg(loss_fn):
    def run(seed, instances, tolerance):
        worst = 0.0
        for i in range(instances):
            rng = np.random.default_rng([seed, i])
            n, d = _dims(rng)
            z_tea = rng.standard_normal((n, d))
            z_stu = rng.standard_normal((n, d))
            result = loss_fn(z_tea, z_stu)
            fd_tea = numerics.finite_diff_gradient(
                lambda z: loss_fn(z, z_stu).value, z_tea, FD_STEP)
            fd_stu = numerics.finite_diff_gradient(
                lambda z: loss_fn(z_tea, z).value, z_stu, FD_STEP)
            worst = max(worst,
                        rel_error(result.teacher_gradient, fd_tea),
                        rel_error(result.student_gradient, fd_stu))
        return worst, f"{instances} instances, both batch gradients"
    return run


def _fd_composite(seed, instances, tolerance):
    """Full objective through a prototype-scoring forward: one input batch
    feeds the distillation softmax, the diversity term, and the dimension
    regularizer, so the chain rule across all three must agree with FD."""
    weights = losses.LossWeights(mu=0.1, lam=0.05)
    temp = 0.1
    worst = 0.0
    for i in range(instances):
        rng = np.random.default_rng([seed, i])
        n, d = _dims(rng)
        k = int(rng.integers(3, 9))
        protos = rng.standard_normal((k, d))
        protos /= np.linalg.norm(protos, axis=1, keepdims=True)
        p_tea = _random_distributions(rng, int(rng.integers(1, 3)), k)
        z_tea = rng.standard_normal((n, d))
        x = _well_separated_batch(rng, n, d, unit_rows=True)
        reg = (losses.frobenius_regularization if i % 2 == 0
               else losses.off_diagonal_regularization)

        def objective(z):
            ce = losses.cross_entropy_loss(
                p_tea, numerics.softmax(z @ protos.T, temp))
            total = losses.sdpn_objective(
                ce.value, losses.diversity_regularization(z), reg(z_tea, z),
                weights)
            return ce, total

        ce, total = objective(x)
        analytic = (ce.gradient / temp) @ protos + total.gradient
        fd = numerics.finite_diff_gradient(
            lambda z: objective(z)[1].value, x, FD_STEP)
        worst = max(worst, rel_error(analytic, fd))
    return worst, f"{instances} instances, alternating regularizers"


def _random_unit_diagonal(rng, d):
    m = rng.uniform(-0.9, 0.9, size=(d, d))
    c = (m + m.T) / 2.0
    np.fill_diagonal(c, 1.0)
    return c


def _fd_eq_frobenius_covariance(seed, instances, tolerance):
    """Covariance-level gradient formula vs FD of log||C||_F, off-diagonal
    entries perturbed one at a time with the diagonal held at 1."""
    worst = 0.0
    for i in range(instances):
        rng = np.random.default_rng([seed, i])
        d = int(rng.integers(3, 9))
        c = _random_unit_diagonal(rng, d)
        analytic = losses.frobenius_reg_covariance_grad(c)
        fd = np.zeros_like(c)
        for r in range(d):
            for s in range(d):
                if r == s:
                    continue
                bumped = c.copy()
                bumped[r, s] = c[r, s] + FD_STEP
                up = np.log(numerics.frobenius_norm(bumped))
                bumped[r, s] = c[r, s] - FD_STEP
                down = np.log(numerics.frobenius_norm(bumped))
                fd[r, s] = (up - down) / (2.0 * FD_STEP)
        worst = max(worst, float(np.abs(analytic - fd).max()))
    return worst, f"{instances} matrices, absolute deviation"


# ----------------------------------------------------------------------
# metric oracles: naive counting loops, no shared code with metrics.py


def oracle_det_points(scores, labels):
    pairs = list(zip([float(s) for s in scores], [bool(b) for b in labels]))
    tar = [s for s, is_t in pairs if is_t]
    non = [s for s, is_t in pairs if not is_t]
    thresholds = sorted(set(s for s, _ in pairs))
    thresholds = [thresholds[0] - 1.0] + thresholds + [thresholds[-1] + 1.0]
    points = []
    for t in thresholds:
        p_miss = sum(1 for s in tar if s < t) / len(tar)
        p_fa = sum(1 for s in non if s > t) / len(non)
        points.append((t, p_miss, p_fa))
    return points


def oracle_eer(scores, labels):
    points = oracle_det_points(scores, labels)
    for i in range(len(points)):
        t, pm, pf = points[i]
        if pm - pf < 0:
            continue
        if pm - pf == 0.0:
            return pm, t
        t0, pm0, pf0 = points[i - 1]
        frac = (pf0 - pm0) / ((pm - pm0) + (pf0 - pf))
        return pm0 + frac * (pm - pm0), t0 + frac * (t - t0)
    raise AssertionError("no crossing")


def oracle_min_dcf(scores, labels, p_target=0.05, c_miss=1.0, c_fa=1.0):
    denom = min(c_miss * p_target, c_fa * (1.0 - p_target))
    best = None
    best_t = None
    for t, pm, pf in oracle_det_points(scores, labels):
        cost = (c_miss * pm * p_target + c_fa * pf * (1.0 - p_target)) / denom
        if best is None or cost < best:
            best, best_t = cost, t
    return best, best_t


def _random_score_set(rng, max_trials=60):
    while True:
        m = int(rng.integers(2, max_trials + 1))
        labels = rng.random(m) < rng.uniform(0.2, 0.8)
        if labels.any() and not labels.all():
            break
    scores = rng.standard_normal(m)
    if rng.random() < 0.3:
        scores = np.round(scores, 1)  # force ties across and within classes
    return scores, labels


def _oracle_eer_case(seed, instances, tolerance):
    worst = 0.0
    for i in range(instances):
        rng = np.random.default_rng([seed, i])
        scores, labels = _random_score_set(rng)
        got, _ = metrics.eer(scores, labels)
        want, _ = oracle_eer(scores, labels)
        worst = max(worst, abs(got - want))
    return worst, f"{instances} random score sets"


def _oracle_min_dcf_case(seed, instances, tolerance):
    worst = 0.0
    for i in range(instances):
        rng = np.random.default_rng([seed, i])
        scores, labels = _random_score_set(rng)
        got, _ = metrics.min_dcf(scores, labels)
        want, _ = oracle_min_dcf(scores, labels)
        worst = max(worst, abs(got - want))
    return worst, f"{instances} random score sets, exhaustive enumeration"


def _identity_monotone_metrics(seed, instances, tolerance):
    worst = 0.0
    for i in range(instances):
        rng = np.random.default_rng([seed, i])
        scores, labels = _random_score_set(rng)
        base_eer, _ = metrics.eer(scores, labels)
        base_dcf, _ = metrics.min_dcf(scores, labels)
        for transformed in (np.exp(scores), 2.0 * scores + 3.0):
            e, _ = metrics.eer(transformed, labels)
            d, _ = metrics.min_dcf(transformed, labels)
            worst = max(worst, abs(e - base_eer), abs(d - base_dcf))
    return worst, "exp and affine transforms"


# ----------------------------------------------------------------------
# normalization identities


def _identity_asnorm_snorm(seed, instances, tolerance):
    worst = 0.0
    for i in range(instances):
        rng = np.random.default_rng([seed, i])
        n = int(rng.integers(5, 40))
        e_scores = rng.standard_normal(n)
        t_scores = rng.standard_normal(n)
        raw = float(rng.standard_normal())
        full = scoring.snorm(raw, scoring.cohort_stats(e_scores),
                             scoring.cohort_stats(t_scores))
        adaptive = scoring.asnorm(raw, e_scores, t_scores, top_k=n)
        worst = max(worst, abs(full - adaptive))
    return worst, "top-K equals cohort size"


def _identity_affine_invariance(seed, instances, tolerance):
    worst = 0.0
    for i in range(instances):
        rng = np.random.default_rng([seed, i])
        n = int(rng.integers(6, 40))
        k = int(rng.integers(2, n + 1))
        e_scores = rng.standard_normal(n)
        t_scores = rng.standard_normal(n)
        raw = float(rng.standard_normal())
        base = {
            "z": scoring.znorm(raw, scoring.cohort_stats(e_scores)),
            "t": scoring.tnorm(raw, scoring.cohort_stats(t_scores)),
            "s": scoring.snorm(raw, scoring.cohort_stats(e_scores),
                               scoring.cohort_stats(t_scores)),
            "as": scoring.asnorm(raw, e_scores, t_scores, top_k=k),
        }
        for a in (0.5, 3.0):
            for b in (-1.0, 2.0):
                te, tt, tr = a * e_scores + b, a * t_scores + b, a * raw + b
                got = {
                    "z": scoring.znorm(tr, scoring.cohort_stats(te)),
                    "t": scoring.tnorm(tr, scoring.cohort_stats(tt)),
                    "s": scoring.snorm(tr, scoring.cohort_stats(te),
                                       scoring.cohort_stats(tt)),
                    "as": scoring.asnorm(tr, te, tt, top_k=k),
                }
                worst = max(worst, max(abs(got[m] - base[m]) for m in base))
    return worst, "a in {0.5, 3}, b in {-1, 2}"


def _identity_covariance_scale(seed, instances, tolerance):
    worst = 0.0
    for i in range(instances):
        rng = np.random.default_rng([seed, i])
        n, d = _dims(rng)
        z = rng.standard_normal((n, d))
        scales = rng.uniform(0.1, 10.0, size=d)
        base = numerics.normalized_covariance(z)
        scaled = numerics.normalized_covariance(z * scales)
        worst = max(worst, float(np.abs(base - scaled).max()))
    return worst, "positive per-column rescaling"


# ----------------------------------------------------------------------
# miniature paired anti-collapse run (directional check; the full-size
# experiment lives in the acceptance suite)


def paired_regularizer_runs(seed, *, num_speakers, utts_per_speaker,
                            frames_per_utt, epochs, batch_size,
                            kinds=("off_diagonal", "frobenius"),
                            feature_dim=24, proj_dim=6, lam=0.05,
                            mu=0.0, lr_peak=0.12, lr_final=None):
    """Train identical models differing only in regularizer_kind; returns
    {kind: final mean_abs_offdiag} including the 'none' baseline.

    Defaults isolate the regularizer's effect: mu=0 switches the diversity
    term off so the unregularized baseline has no decorrelating pressure of
    its own, and the learning rate stays flat (lr_final defaults to lr_peak)
    because the frobenius penalty's gradient is small and needs the late
    epochs at full strength.
    """
    corpus = data_mod.generate_synthetic_corpus(
        num_speakers, utts_per_speaker, frames_per_utt, feature_dim,
        intra_speaker_spread=0.5, seed=seed)
    crops = CropConfig(num_global=1, num_local=4,
                       len_global=min(120, frames_per_utt), len_local=60)
    model_cfg = ModelConfig(encoder_hidden=48, embed_dim=48, proj_hidden=64,
                            proj_dim=proj_dim, num_prototypes=32,
                            ema_momentum=0.99)
    out = {}
    for kind in ("none", *kinds):
        cfg = trainer.TrainConfig(
            epochs=epochs, batch_size=batch_size, lr_peak=lr_peak,
            lr_final=lr_peak if lr_final is None else lr_final,
            warmup_epochs=max(1, epochs // 20),
            weights=losses.LossWeights(mu=mu, lam=lam),
            regularizer_kind=kind, seed=seed)
        rng = np.random.default_rng(seed)
        pair = model.TeacherStudentPair.create(
            rng, feature_dim=feature_dim,
            encoder_hidden=model_cfg.encoder_hidden,
            embed_dim=model_cfg.embed_dim, proj_hidden=model_cfg.proj_hidden,
            proj_dim=model_cfg.proj_dim,
            num_prototypes=model_cfg.num_prototypes,
            ema_momentum=model_cfg.ema_momentum)
        _, records, _ = trainer.train(corpus, pair, cfg, model_cfg, crops)
        out[kind] = records[-1]["mean_abs_offdiag"]
    return out


def _paired_run_mini(seed, instances, tolerance):
    # smoke-scale check with the strong (off-diagonal) penalty only; the
    # frobenius penalty is too weak to separate reliably at 8 speakers and
    # is exercised at full scale by the acceptance experiment
    result = paired_regularizer_runs(
        seed, num_speakers=8, utts_per_speaker=6, frames_per_utt=160,
        epochs=100, batch_size=16, kinds=("off_diagonal",))
    ratio = result["off_diagonal"] / result["none"]
    return ratio, (f"offdiag none={result['none']:.4f} "
                   f"odr={result['off_diagonal']:.4f}")


# ----------------------------------------------------------------------
# registry


def build_cases() -> list[OracleCase]:
    return [
        OracleCase("fd_ce_gradient", "fd_gradient", 101, 1e-4, _fd_ce),
        OracleCase("fd_re_gradient", "fd_gradient", 102, 1e-4, _fd_re),
        OracleCase("fd_odr_gradient", "fd_gradient", 103, 1e-4,
                   _fd_dimreg(losses.off_diagonal_regularization)),
        OracleCase("fd_fdr_gradient", "fd_gradient", 104, 1e-4,
                   _fd_dimreg(losses.frobenius_regularization)),
        OracleCase("fd_composite_gradient", "fd_gradient", 105, 1e-4,
                   _fd_composite),
        OracleCase("fd_frobenius_covariance_grad", "fd_gradient", 106, 1e-6,
                   _fd_eq_frobenius_covariance, instances=100),
        OracleCase("oracle_eer", "oracle", 201, 1e-12, _oracle_eer_case,
                   instances=200),
        OracleCase("oracle_min_dcf", "oracle", 202, 0.0, _oracle_min_dcf_case,
                   instances=200),
        OracleCase("identity_metric_monotone", "identity", 203, 1e-12,
                   _identity_monotone_metrics, instances=50),
        OracleCase("identity_asnorm_snorm", "identity", 301, 1e-12,
                   _identity_asnorm_snorm, instances=100),
        OracleCase("identity_affine_invariance", "identity", 302, 1e-10,
                   _identity_affine_invariance, instances=50),
        OracleCase("identity_covariance_scale", "identity", 303, 1e-12,
                   _identity_covariance_scale, instances=100),
        OracleCase("paired_run_mini", "paired_run", 401, 0.7,
                   _paired_run_mini, instances=1),
    ]


def run_case(case: OracleCase, instances: int | None = None) -> CaseResult:
    start = time.perf_counter()
    max_dev, detail = case.runner(case.seed, instances or case.instances,
                                  case.tolerance)
    elapsed = time.perf_counter() - start
    return CaseResult(case.name, case.kind, float(max_dev), case.tolerance,
                      max_dev <= case.tolerance, elapsed, detail)


def run_suite(pattern: str = "*", instances: int | None = None
              ) -> list[CaseResult]:
    results = []
    for case in build_cases():
        if fnmatch.fnmatch(case.name, pattern):
            results.append(run_case(case, instances))
    return results


def write_report(results, path):
    """JSON-lines, one record per case."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in results:
            fh.write(json.dumps({
                "name": r.name, "kind": r.kind,
                "max_deviation": r.max_deviation, "tolerance": r.tolerance,
                "passed": r.passed, "elapsed_sec": round(r.elapsed, 3),
                "detail": r.detail,
            }) + "\n")

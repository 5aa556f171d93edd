"""Independent checks the tests call directly: brute-force metric oracles,
algebraic identities of the normalizations and the covariance, a plain
reference of the encoder's forward and backward, a per-view reference of
the crop sampler and its masking, and a miniature paired anti-collapse run.

The oracles are naive counting loops that share no code with
``sdpn.metrics``. Each case draws instance ``i`` from
``default_rng([seed, i])`` with its own fixed seed and returns the largest
deviation it saw; the calling test holds the tolerance.
"""

import numpy as np

from sdpn import data, metrics, model, numerics, proptests, scoring, trainer
from sdpn.config import (CropConfig, MaskConfig, ModelConfig, RunConfig,
                         TrainSection)

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


def eer_vs_oracle(instances):
    """Largest |metrics.eer - oracle_eer| over random score sets (seed 201)."""
    worst = 0.0
    for i in range(instances):
        rng = np.random.default_rng([201, i])
        scores, labels = _random_score_set(rng)
        got, _ = metrics.eer(metrics.det_sweep(scores, labels))
        want, _ = oracle_eer(scores, labels)
        worst = max(worst, abs(got - want))
    return worst


def min_dcf_vs_oracle(instances):
    """Largest |metrics.min_dcf - oracle_min_dcf| over random score sets,
    by exhaustive enumeration (seed 202)."""
    worst = 0.0
    for i in range(instances):
        rng = np.random.default_rng([202, i])
        scores, labels = _random_score_set(rng)
        got, _ = metrics.min_dcf(metrics.det_sweep(scores, labels))
        want, _ = oracle_min_dcf(scores, labels)
        worst = max(worst, abs(got - want))
    return worst


def identity_metric_monotone(instances):
    """EER and minDCF under exp and affine score transforms (seed 203)."""
    worst = 0.0
    for i in range(instances):
        rng = np.random.default_rng([203, i])
        scores, labels = _random_score_set(rng)
        base = metrics.det_sweep(scores, labels)
        base_eer, _ = metrics.eer(base)
        base_dcf, _ = metrics.min_dcf(base)
        for transformed in (np.exp(scores), 2.0 * scores + 3.0):
            sweep = metrics.det_sweep(transformed, labels)
            e, _ = metrics.eer(sweep)
            d, _ = metrics.min_dcf(sweep)
            worst = max(worst, abs(e - base_eer), abs(d - base_dcf))
    return worst


# ----------------------------------------------------------------------
# normalization and covariance identities


def asnorm(raw, enroll_scores, test_scores, top_k: int):
    """Adaptive S-norm of one trial: the mean of the raw score standardized
    by each side's top-K cohort stats (``TrialScorer`` does the same over
    whole arrays)."""
    return snorm(raw, *(scoring.cohort_stats(scores, top_k=top_k)
                        for scores in (enroll_scores, test_scores)))


def snorm(raw, enroll_stats, test_stats):
    """S-norm of one trial from each side's (mu, sigma)."""
    return 0.5 * (scoring.standardize(raw, *enroll_stats)
                  + scoring.standardize(raw, *test_stats))


def identity_asnorm_snorm(instances):
    """Adaptive normalization with top-K equal to the cohort size against
    the symmetric norm (seed 301)."""
    worst = 0.0
    for i in range(instances):
        rng = np.random.default_rng([301, i])
        n = int(rng.integers(5, 40))
        e_scores = rng.standard_normal(n)
        t_scores = rng.standard_normal(n)
        raw = float(rng.standard_normal())
        full = snorm(raw, scoring.cohort_stats(e_scores),
                     scoring.cohort_stats(t_scores))
        adaptive = asnorm(raw, e_scores, t_scores, top_k=n)
        worst = max(worst, abs(full - adaptive))
    return worst


def identity_affine_invariance(instances):
    """z/t/s/as outputs under global affine maps a in {0.5, 3},
    b in {-1, 2} of every score (seed 302)."""
    worst = 0.0
    for i in range(instances):
        rng = np.random.default_rng([302, i])
        n = int(rng.integers(6, 40))
        k = int(rng.integers(2, n + 1))
        e_scores = rng.standard_normal(n)
        t_scores = rng.standard_normal(n)
        raw = float(rng.standard_normal())
        base = {
            "z": scoring.standardize(raw, *scoring.cohort_stats(e_scores)),
            "t": scoring.standardize(raw, *scoring.cohort_stats(t_scores)),
            "s": snorm(raw, scoring.cohort_stats(e_scores),
                       scoring.cohort_stats(t_scores)),
            "as": asnorm(raw, e_scores, t_scores, top_k=k),
        }
        for a in (0.5, 3.0):
            for b in (-1.0, 2.0):
                te, tt, tr = a * e_scores + b, a * t_scores + b, a * raw + b
                got = {
                    "z": scoring.standardize(tr, *scoring.cohort_stats(te)),
                    "t": scoring.standardize(tr, *scoring.cohort_stats(tt)),
                    "s": snorm(tr, scoring.cohort_stats(te),
                               scoring.cohort_stats(tt)),
                    "as": asnorm(tr, te, tt, top_k=k),
                }
                worst = max(worst, max(abs(got[m] - base[m]) for m in base))
    return worst


def identity_covariance_scale(instances):
    """Normalized covariance under positive per-column rescaling
    (seed 303)."""
    worst = 0.0
    for i in range(instances):
        rng = np.random.default_rng([303, i])
        n, d = proptests._dims(rng)
        z = rng.standard_normal((n, d))
        scales = rng.uniform(0.1, 10.0, size=d)
        base = numerics.normalized_covariance(z)
        scaled = numerics.normalized_covariance(z * scales)
        worst = max(worst, float(np.abs(base - scaled).max()))
    return worst


# ----------------------------------------------------------------------
# encoder reference: fresh temporaries and an einsum weight gradient


def encoder_reference(params, prefix, frames, g_emb):
    """Embeddings of ``frames`` (B, T, F) under the ``<prefix>.encoder.*``
    tensors of ``params`` and their gradients for d loss / d embeddings
    ``g_emb``, written out term by term with a new array per step and
    ``np.einsum`` for the frame-layer weights."""
    w1, b1, w2, b2 = (params[f"{prefix}.encoder.{k}"]
                      for k in ("w1", "b1", "w2", "b2"))
    x = np.asarray(frames, dtype=np.float64)
    h1 = np.tanh(x @ w1 + b1)
    t, hidden = h1.shape[1:]
    mu = h1.mean(axis=1)
    sd = np.sqrt(h1.var(axis=1) + model.EPS_POOL_VAR)
    pooled = np.concatenate([mu, sd], axis=1)
    emb = pooled @ w2 + b2
    g_pooled = g_emb @ w2.T
    g_mu = g_pooled[:, :hidden]
    g_sd = g_pooled[:, hidden:]
    centered = h1 - mu[:, None, :]
    g_h1 = g_mu[:, None, :] / t \
        + g_sd[:, None, :] * centered / (t * sd[:, None, :])
    g_a1 = g_h1 * (1.0 - h1 * h1)
    grads = {f"{prefix}.encoder.w1": np.einsum("btf,bth->fh", x, g_a1),
             f"{prefix}.encoder.b1": g_a1.sum(axis=(0, 1)),
             f"{prefix}.encoder.w2": pooled.T @ g_emb,
             f"{prefix}.encoder.b2": g_emb.sum(axis=0)}
    return emb, grads


# ----------------------------------------------------------------------
# crop sampler reference: one view at a time, scalar draws, copies,
# np.stack


def stacked_crop_batch(utterances, crops, rng, mask=None):
    """What ``data.iter_crop_sets`` returns, built one view at a time with
    one scalar draw per number: every view's start, utterance by utterance
    (its global starts, then its local ones), each view a fresh slice copy;
    then, with an enabled ``mask``, the global views and then the local
    views masked by ``masked_views``; the views of each kind stacked with
    ``np.stack`` into (B, count, length, F)."""
    kinds = ((crops.num_global, crops.len_global),
             (crops.num_local, crops.len_local))
    batch = ([], [])
    for utt in utterances:
        t = utt.frames.shape[0]
        for (count, length), views in zip(kinds, batch):
            for _ in range(count):
                start = int(rng.integers(0, t - length + 1))
                views.append(utt.frames[start:start + length].copy())
    if mask is not None and mask.enabled:
        batch = tuple(masked_views(views, mask, rng) for views in batch)
    return tuple(np.stack(views).reshape(len(utterances), count, length, -1)
                 for views, (count, length) in zip(batch, kinds))


def masked_views(views, mask, rng):
    """Copies of the (T, F) ``views`` with the MaskConfig ``mask``'s runs set
    to each view's own pre-mask mean. The time runs are drawn first: the
    widths of all views, view by view, then their starts in the same order;
    then the same for the feature runs."""
    fills = [v.mean() for v in views]
    out = [v.copy() for v in views]
    for axis, count in ((0, mask.num_time_masks), (1, mask.num_freq_masks)):
        widths = [[int(rng.integers(1, mask.max_width + 1))
                   for _ in range(count)] for _ in views]
        for v, fill, row in zip(out, fills, widths):
            for width in row:
                start = int(rng.integers(0, v.shape[axis] - width + 1))
                if axis == 0:
                    v[start:start + width, :] = fill
                else:
                    v[:, start:start + width] = fill
    return out


# ----------------------------------------------------------------------
# miniature paired anti-collapse run (directional check; the full-size
# experiment is acceptance criterion 6)


def paired_regularizer_runs(seed, *, num_speakers, utts_per_speaker,
                            frames_per_utt, epochs, batch_size,
                            kinds=("off_diagonal", "frobenius"),
                            feature_dim=24, proj_dim=6, lam=0.05,
                            mu=0.0, lr_peak=0.12, lr_final=None):
    """Train identical models differing only in the regularizer; returns
    {kind: final mean_abs_offdiag} including the 'none' baseline.

    Defaults isolate the regularizer's effect: mu=0 switches the diversity
    term off so the unregularized baseline has no decorrelating pressure of
    its own, and the learning rate stays flat (lr_final defaults to lr_peak)
    because the frobenius penalty's gradient is small and needs the late
    epochs at full strength.
    """
    corpus = data.generate_synthetic_corpus(
        num_speakers, utts_per_speaker, frames_per_utt, feature_dim,
        intra_speaker_spread=0.5, seed=seed)
    crops = CropConfig(num_global=1, num_local=4,
                       len_global=min(120, frames_per_utt), len_local=60)
    model_cfg = ModelConfig(encoder_hidden=48, embed_dim=48, proj_hidden=64,
                            proj_dim=proj_dim, num_prototypes=32,
                            ema_momentum=0.99)
    out = {}
    for kind in ("none", *kinds):
        cfg = RunConfig(
            seed=seed, crops=crops, augment=MaskConfig(enabled=False),
            model=model_cfg,
            train=TrainSection(
                epochs=epochs, batch_size=batch_size, lr_peak=lr_peak,
                lr_final=lr_peak if lr_final is None else lr_final,
                warmup_epochs=max(1, epochs // 20), mu=mu, lam=lam,
                regularizer=kind))
        params = model.init_params(
            np.random.default_rng(seed), feature_dim=feature_dim,
            encoder_hidden=model_cfg.encoder_hidden,
            embed_dim=model_cfg.embed_dim, proj_hidden=model_cfg.proj_hidden,
            proj_dim=model_cfg.proj_dim,
            num_prototypes=model_cfg.num_prototypes)
        _, records = trainer.train(corpus, trainer.init_state(params), cfg)
        out[kind] = records[-1]["mean_abs_offdiag"]
    return out


def paired_run_mini():
    """off_diagonal / none ratio of final mean |off-diagonal| at smoke scale
    (seed 401), with the run's values.

    Only the strong (off-diagonal) penalty runs: the frobenius penalty is
    too weak to separate reliably at 8 speakers and is exercised at full
    scale by the acceptance experiment.
    """
    result = paired_regularizer_runs(
        401, num_speakers=8, utts_per_speaker=6, frames_per_utt=160,
        epochs=100, batch_size=16, kinds=("off_diagonal",))
    return result["off_diagonal"] / result["none"], result

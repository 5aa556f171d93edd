"""Detection metrics: DET sweep, interpolated EER, and minimum detection cost.

Convention: the sweep places one operating point at every distinct score plus
an accept-all and a reject-all boundary. At threshold t a point counts misses
strictly below t and false alarms strictly above t — the corner of the DET
staircase at that score. Between corners the error rates are treated as
linear for the EER interpolation. The oracles in ``tests/oracles.py``
re-derive every point with naive counting loops and must agree exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, InvalidConfig


def _split_scores(scores, labels):
    """Sorted target and nontarget scores of matching 1-d arrays."""
    s = np.asarray(scores, dtype=np.float64)
    lab = np.asarray(labels, dtype=bool)
    tar = s[lab]
    non = s[~lab]
    if tar.size == 0 or non.size == 0:
        raise DataError(
            f"need both classes, got {tar.size} targets / {non.size} nontargets"
        )
    return np.sort(tar), np.sort(non)


def det_sweep(scores, labels):
    """Operating points at every distinct score plus both boundaries, as
    ``(thresholds, p_miss, p_fa)`` arrays.

    p_miss is nondecreasing and p_fa nonincreasing in the threshold, so the
    points are ordered along the DET curve.
    """
    tar, non = _split_scores(scores, labels)
    distinct = np.unique(np.concatenate([tar, non]))
    thresholds = np.concatenate(
        [[distinct[0] - 1.0], distinct, [distinct[-1] + 1.0]])
    # count of targets strictly below t / nontargets strictly above t
    p_miss = np.searchsorted(tar, thresholds, side="left") / tar.size
    p_fa = (non.size - np.searchsorted(non, thresholds, side="right")) / non.size
    return thresholds, p_miss, p_fa


def eer(sweep) -> tuple[float, float]:
    """Equal error rate and its threshold, linearly interpolated, from a
    ``det_sweep`` result.

    Takes the first point of the sweep where p_miss >= p_fa (the reject-all
    point, p_miss=1 and p_fa=0, always qualifies); if the difference is
    exactly zero there, that point is the EER, otherwise the crossing is
    interpolated between it and its predecessor.
    """
    thresholds, p_miss, p_fa = sweep
    i = int(np.argmax(p_miss - p_fa >= 0))
    if p_miss[i] - p_fa[i] == 0.0 or i == 0:
        return float(p_miss[i]), float(thresholds[i])
    (t0, t1), (pm0, pm1), (pf0, pf1) = (
        a[i - 1:i + 1].tolist() for a in (thresholds, p_miss, p_fa))
    frac = (pf0 - pm0) / ((pm1 - pm0) + (pf0 - pf1))
    return pm0 + frac * (pm1 - pm0), t0 + frac * (t1 - t0)


def min_dcf(sweep, p_target: float = 0.05, c_miss: float = 1.0,
            c_fa: float = 1.0) -> tuple[float, float]:
    """Minimum normalized detection cost over a ``det_sweep`` result, with
    its threshold.

    cost(t) = [c_miss * p_miss * p_target + c_fa * p_fa * (1 - p_target)]
              / min(c_miss * p_target, c_fa * (1 - p_target)).
    The reject-all boundary always yields cost 1, so the minimum is <= 1.
    Ties go to the lowest threshold.
    """
    if not 0.0 < p_target < 1.0:
        raise InvalidConfig(f"p_target must be in (0, 1), got {p_target}")
    if not (0.0 < c_miss < np.inf and 0.0 < c_fa < np.inf):
        raise InvalidConfig(f"costs must be positive and finite, got "
                            f"c_miss={c_miss} c_fa={c_fa}")
    thresholds, p_miss, p_fa = sweep
    denom = min(c_miss * p_target, c_fa * (1.0 - p_target))
    costs = (c_miss * p_miss * p_target
             + c_fa * p_fa * (1.0 - p_target)) / denom
    best = int(np.argmin(costs))
    return float(costs[best]), float(thresholds[best])


def evaluation_report(scores, labels, p_target: float = 0.05,
                      c_miss: float = 1.0, c_fa: float = 1.0) -> dict:
    """All evaluation numbers in the report layout the CLI writes."""
    lab = np.asarray(labels, dtype=bool)
    sweep = det_sweep(scores, lab)
    eer_value, eer_thr = eer(sweep)
    dcf_value, dcf_thr = min_dcf(sweep, p_target, c_miss, c_fa)
    return {
        "trials": int(lab.size),
        "targets": int(lab.sum()),
        "nontargets": int((~lab).sum()),
        "eer": eer_value,
        "eer_threshold": eer_thr,
        "min_dcf": dcf_value,
        "dcf_threshold": dcf_thr,
        "p_target": p_target,
        "c_miss": c_miss,
        "c_fa": c_fa,
    }

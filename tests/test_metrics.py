"""EER / minDCF against hand-worked sweeps and the naive enumerators."""

import numpy as np
import pytest

from oracles import oracle_det_points, oracle_eer, oracle_min_dcf
from sdpn import metrics
from sdpn.errors import DataError

TARGETS = [0.9, 0.8, 0.4]
NONTARGETS = [0.7, 0.3, 0.2]
SCORES = TARGETS + NONTARGETS
LABELS = [1, 1, 1, 0, 0, 0]


def test_det_sweep_point_count():
    thresholds, p_miss, p_fa = metrics.det_sweep(SCORES, LABELS)
    # one point per distinct score plus the two boundary corners
    assert thresholds.shape == p_miss.shape == p_fa.shape \
        == (len(set(SCORES)) + 2,)


def test_det_sweep_endpoints():
    _, p_miss, p_fa = metrics.det_sweep(SCORES, LABELS)
    assert (p_miss[0], p_fa[0]) == (0.0, 1.0)
    assert (p_miss[-1], p_fa[-1]) == (1.0, 0.0)


def test_det_sweep_monotone():
    rng = np.random.default_rng(51)
    scores = rng.standard_normal(40)
    labels = (rng.random(40) < 0.5).astype(int)
    if labels.min() == labels.max():  # pragma: no cover - seed is fixed
        labels[0] = 1 - labels[0]
    _, p_miss, p_fa = metrics.det_sweep(scores, labels)
    assert all(a <= b + 1e-15 for a, b in zip(p_miss, p_miss[1:]))
    assert all(a >= b - 1e-15 for a, b in zip(p_fa, p_fa[1:]))


def test_eer_hand_bracket():
    # miss/fa cross between (0, 1/3) and (1/3, 0): interpolate to 1/6
    eer, threshold = metrics.eer(metrics.det_sweep(SCORES, LABELS))
    assert eer == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert threshold == pytest.approx(0.55, abs=1e-12)


def test_eer_perfect_separation():
    eer, _ = metrics.eer(metrics.det_sweep([0.9, 0.8, 0.2, 0.1],
                                           [1, 1, 0, 0]))
    assert eer == 0.0


def test_eer_exact_crossing_no_interpolation():
    # symmetric overlap: at the right threshold both rates are exactly 1/2
    eer, _ = metrics.eer(metrics.det_sweep([0.1, 0.9, 0.0, 1.0],
                                           [1, 1, 0, 0]))
    assert eer == pytest.approx(0.5, abs=1e-15)


def test_eer_matches_oracle_on_randoms():
    rng = np.random.default_rng(52)
    for _ in range(50):
        n = int(rng.integers(4, 40))
        scores = np.round(rng.standard_normal(n), 1)  # induces ties
        labels = (rng.random(n) < 0.5).astype(int)
        labels[0], labels[1] = 1, 0
        got, _ = metrics.eer(metrics.det_sweep(scores, labels))
        want, _ = oracle_eer(scores, labels)
        assert got == pytest.approx(want, abs=1e-12)


def test_min_dcf_reject_all_bound():
    rng = np.random.default_rng(53)
    for _ in range(30):
        n = int(rng.integers(4, 30))
        scores = rng.standard_normal(n)
        labels = (rng.random(n) < 0.4).astype(int)
        labels[0], labels[1] = 1, 0
        value, _ = metrics.min_dcf(metrics.det_sweep(scores, labels))
        assert value <= 1.0 + 1e-15


def test_min_dcf_accept_all_cost():
    # normalized cost of always accepting: 0.95/0.05 = 19 at p_target 0.05
    _, p_miss, p_fa = metrics.det_sweep(SCORES, LABELS)
    cost = (p_miss[0] * 0.05 + p_fa[0] * 0.95) / 0.05
    assert cost == pytest.approx(19.0)


def test_min_dcf_hand_case_perfect():
    value, _ = metrics.min_dcf(metrics.det_sweep([0.9, 0.8, 0.2, 0.1],
                                                 [1, 1, 0, 0]))
    assert value == 0.0


def test_min_dcf_matches_oracle():
    rng = np.random.default_rng(54)
    for _ in range(50):
        n = int(rng.integers(4, 40))
        scores = np.round(rng.standard_normal(n), 1)
        labels = (rng.random(n) < 0.5).astype(int)
        labels[0], labels[1] = 1, 0
        got, _ = metrics.min_dcf(metrics.det_sweep(scores, labels))
        assert got == oracle_min_dcf(scores, labels, 0.05, 1.0, 1.0)[0]


def test_sweep_matches_oracle_points():
    rng = np.random.default_rng(55)
    scores = np.round(rng.standard_normal(25), 1)
    labels = (rng.random(25) < 0.5).astype(int)
    labels[0], labels[1] = 1, 0
    fast = list(zip(*(a.tolist()
                      for a in metrics.det_sweep(scores, labels))))
    slow = oracle_det_points(scores, labels)
    assert fast == slow


def test_metrics_invariant_under_monotone_transform():
    rng = np.random.default_rng(56)
    scores = rng.standard_normal(30)
    labels = (rng.random(30) < 0.5).astype(int)
    labels[0], labels[1] = 1, 0
    base = metrics.det_sweep(scores, labels)
    base_eer, _ = metrics.eer(base)
    base_dcf, _ = metrics.min_dcf(base)
    warp = metrics.det_sweep(np.tanh(scores) * 3.0 + 1.0, labels)
    warp_eer, _ = metrics.eer(warp)
    warp_dcf, _ = metrics.min_dcf(warp)
    assert warp_eer == pytest.approx(base_eer, abs=1e-12)
    assert warp_dcf == pytest.approx(base_dcf, abs=1e-12)


def test_negating_scores_and_labels_swaps_error_types():
    rng = np.random.default_rng(57)
    scores = rng.standard_normal(20)
    labels = (rng.random(20) < 0.5).astype(int)
    labels[0], labels[1] = 1, 0
    eer_fwd, _ = metrics.eer(metrics.det_sweep(scores, labels))
    eer_rev, _ = metrics.eer(metrics.det_sweep(-scores,
                                               1 - np.asarray(labels)))
    assert eer_fwd == pytest.approx(eer_rev, abs=1e-12)


def test_single_class_raises():
    with pytest.raises(DataError, match="^need both classes, got 2 targets "
                       "/ 0 nontargets$"):
        metrics.det_sweep([0.1, 0.2], [1, 1])
    with pytest.raises(DataError, match="^need both classes, got 0 targets "
                       "/ 2 nontargets$"):
        metrics.evaluation_report([0.1, 0.2], [0, 0])


def test_evaluation_report_shape():
    report = metrics.evaluation_report(SCORES, LABELS)
    assert list(report) == ["trials", "targets", "nontargets", "eer",
                            "eer_threshold", "min_dcf", "dcf_threshold",
                            "p_target", "c_miss", "c_fa"]
    assert report["trials"] == 6
    assert report["targets"] == 3
    assert report["nontargets"] == 3
    assert report["eer"] == pytest.approx(1.0 / 6.0)
    assert report["p_target"] == 0.05

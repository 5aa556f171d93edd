"""Objective terms and their hand-derived gradients."""

import numpy as np
import numpy.testing as npt
import pytest

from sdpn import losses, numerics
from sdpn.errors import BatchTooSmall, DistributionLengthMismatch, InvalidConfig


def fd(f, x, h=1e-5):
    return numerics.finite_diff_gradient(f, x, h)


# ----------------------------------------------------------------------
# distillation cross-entropy


def test_ce_hand_value_two_classes():
    # H((0.7,0.3) | (0.5,0.5)) = -(0.7+0.3) log 0.5 = log 2
    out = losses.cross_entropy_loss([[0.7, 0.3]], [[0.5, 0.5]])
    assert out.value == pytest.approx(np.log(2.0), abs=1e-15)


def test_ce_uniform_student_is_log_k():
    p_tea = np.array([[0.1, 0.2, 0.3, 0.4]])
    p_stu = np.full((1, 4), 0.25)
    assert losses.cross_entropy_loss(p_tea, p_stu).value \
        == pytest.approx(np.log(4.0), abs=1e-15)


def test_ce_equal_distributions_equal_teacher_entropy():
    rng = np.random.default_rng(31)
    p = numerics.softmax(rng.standard_normal(6), 1.0)
    entropy = -float(p @ np.log(p))
    out = losses.cross_entropy_loss(p[None, :], p[None, :])
    assert out.value == pytest.approx(entropy, abs=1e-12)


def test_ce_nonnegative_and_minimized_at_teacher():
    rng = np.random.default_rng(32)
    for _ in range(25):
        p_tea = numerics.softmax(rng.standard_normal((2, 5)), 1.0)
        p_stu = numerics.softmax(rng.standard_normal((3, 5)), 1.0)
        assert losses.cross_entropy_loss(p_tea, p_stu).value >= 0.0


def test_ce_sums_over_view_pairs():
    rng = np.random.default_rng(33)
    p_tea = numerics.softmax(rng.standard_normal((2, 4)), 1.0)
    p_stu = numerics.softmax(rng.standard_normal((3, 4)), 1.0)
    total = losses.cross_entropy_loss(p_tea, p_stu).value
    by_hand = sum(-float(p_tea[g] @ np.log(p_stu[l]))
                  for g in range(2) for l in range(3))
    assert total == pytest.approx(by_hand, abs=1e-12)


def test_ce_gradient_is_summed_probability_gap():
    rng = np.random.default_rng(34)
    p_tea = numerics.softmax(rng.standard_normal((2, 5)), 1.0)
    logits = rng.standard_normal((3, 5))
    p_stu = numerics.softmax(logits, 1.0)
    out = losses.cross_entropy_loss(p_tea, p_stu)
    expected = 2.0 * p_stu - p_tea.sum(axis=0)[None, :]
    npt.assert_allclose(out.gradient, expected, atol=1e-12)
    fd_grad = fd(lambda y: losses.cross_entropy_loss(
        p_tea, numerics.softmax(y, 1.0)).value, logits)
    npt.assert_allclose(out.gradient, fd_grad, rtol=0, atol=1e-8)


def test_ce_length_mismatch():
    with pytest.raises(DistributionLengthMismatch):
        losses.cross_entropy_loss([[0.5, 0.5]], [[0.2, 0.3, 0.5]])


# ----------------------------------------------------------------------
# nearest-neighbour diversity


def test_diversity_hand_value():
    # nearest distances: row0->row1 = 5, row1->row0 = 5, row2->row1 = sqrt(65)
    batch = np.array([[0.0, 0.0], [3.0, 4.0], [10.0, 0.0]])
    expected = -(2.0 * np.log(5.0) + np.log(np.sqrt(65.0))) / 3.0
    out = losses.diversity_regularization(batch)
    assert out.value == pytest.approx(expected, abs=1e-14)
    assert out.value == pytest.approx(-1.7686898, abs=5e-8)


def test_diversity_summed_scaling_flag():
    batch = np.array([[0.0, 0.0], [3.0, 4.0], [10.0, 0.0]])
    base = losses.diversity_regularization(batch)
    summed = losses.diversity_regularization(batch, summed=True)
    assert summed.value == pytest.approx(3.0 * base.value, abs=1e-12)
    npt.assert_allclose(summed.gradient, 3.0 * base.gradient, atol=1e-12)


def test_diversity_gradient_touches_nearest_pair_only():
    batch = np.array([[0.0, 0.0], [3.0, 4.0], [10.0, 0.0]])
    out = losses.diversity_regularization(batch)
    fd_grad = fd(lambda z: losses.diversity_regularization(z).value, batch)
    npt.assert_allclose(out.gradient, fd_grad, rtol=0, atol=1e-8)
    # row 2 appears only in its own term (nobody else's nearest), so its
    # gradient is exactly the single-pair pull toward/away from row 1
    expected_row2 = -(batch[2] - batch[1]) / (65.0 * 3.0)
    npt.assert_allclose(out.gradient[2], expected_row2, atol=1e-15)


def test_diversity_requires_two_rows():
    with pytest.raises(BatchTooSmall):
        losses.diversity_regularization(np.ones((1, 3)))


def test_diversity_duplicate_rows_floor_silently():
    batch = np.array([[1.0, 1.0], [1.0, 1.0], [4.0, 5.0]])
    out = losses.diversity_regularization(batch)
    assert np.isfinite(out.value)
    # rows 0/1 coincide: their own terms are floored out of the gradient.
    # Row 2 still pushes off its nearest (the tie resolves to row 0), so
    # only row 1 ends up untouched and 0/2 feel equal-and-opposite pulls.
    npt.assert_array_equal(out.gradient[1], 0.0)
    npt.assert_allclose(out.gradient[0], -out.gradient[2], atol=1e-15)
    assert np.linalg.norm(out.gradient[2]) > 0.0


def test_diversity_decreases_when_rows_spread():
    tight = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]])
    spread = tight * 10.0
    assert losses.diversity_regularization(spread).value \
        < losses.diversity_regularization(tight).value


# ----------------------------------------------------------------------
# covariance regularizers


def test_odr_identical_columns_hand_value():
    # both branches use a 2-column batch whose columns coincide: each
    # covariance is all-ones, contributing 2 off-diagonal squares... per
    # branch when both batches are the degenerate pair the total is 4;
    # using an uncorrelated teacher keeps the hand value at 2.
    col = np.array([1.0, 2.0, 3.0])
    student = np.stack([col, col], axis=1)
    teacher = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = losses.off_diagonal_regularization(teacher, student)
    assert out.value == pytest.approx(2.0, abs=1e-12)


def test_odr_teacher_hand_value():
    batch = np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]])
    ident = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = losses.off_diagonal_regularization(batch, ident)
    assert out.value == pytest.approx(2.0 * (13.0 / 14.0) ** 2, abs=1e-12)
    assert out.value == pytest.approx(1.7244898, abs=5e-8)


def test_odr_zero_iff_diagonal_covariances():
    out = losses.off_diagonal_regularization(np.eye(3), np.eye(3))
    assert out.value == 0.0
    rng = np.random.default_rng(41)
    noisy = losses.off_diagonal_regularization(rng.standard_normal((6, 3)),
                                               rng.standard_normal((6, 3)))
    assert noisy.value > 0.0


def test_fdr_identity_covariance_value():
    # orthogonal columns: each covariance is I_4, log ||I_4||_F = log 2
    out = losses.frobenius_regularization(np.eye(4), np.eye(4))
    assert out.value == pytest.approx(2.0 * np.log(2.0), abs=1e-12)


def test_fdr_hand_value():
    batch = np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]])
    ident = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = losses.frobenius_regularization(batch, ident)
    r = 13.0 / 14.0
    expected = np.log(np.sqrt(2.0 + 2.0 * r * r)) + np.log(np.sqrt(2.0))
    assert out.value == pytest.approx(expected, abs=1e-14)
    assert out.value == pytest.approx(1.0040385, abs=5e-8)


def test_fdr_lower_bound_at_diagonal_covariance():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n, d = int(rng.integers(4, 12)), int(rng.integers(2, 7))
        t, s = rng.standard_normal((n, d)), rng.standard_normal((n, d))
        value = losses.frobenius_regularization(t, s).value
        assert value >= np.log(np.sqrt(d)) * 2.0 - 1e-12


def test_fdr_covariance_gradient_formula_and_bound():
    rng = np.random.default_rng(43)
    for _ in range(20):
        d = int(rng.integers(2, 8))
        m = rng.uniform(-0.9, 0.9, size=(d, d))
        c = (m + m.T) / 2.0
        np.fill_diagonal(c, 1.0)
        g = losses.frobenius_reg_covariance_grad(c)
        off = ~np.eye(d, dtype=bool)
        denom = d + float((c[off] ** 2).sum())
        npt.assert_allclose(g[off], c[off] / denom, atol=1e-15)
        npt.assert_array_equal(np.diag(g), 0.0)
        # |C_ij| <= 1 makes every entry at most 1/d
        assert np.abs(g).max() <= 1.0 / d + 1e-15


def test_dimreg_gradients_vs_fd_both_branches():
    rng = np.random.default_rng(44)
    t = rng.standard_normal((7, 4))
    s = rng.standard_normal((7, 4))
    for loss_fn in (losses.off_diagonal_regularization,
                    losses.frobenius_regularization):
        out = loss_fn(t, s)
        fd_t = fd(lambda z: loss_fn(z, s).value, t)
        fd_s = fd(lambda z: loss_fn(t, z).value, s)
        npt.assert_allclose(out.teacher_gradient, fd_t, rtol=0, atol=1e-7)
        npt.assert_allclose(out.student_gradient, fd_s, rtol=0, atol=1e-7)


def test_dimreg_row_permutation_invariance():
    rng = np.random.default_rng(45)
    t, s = rng.standard_normal((8, 5)), rng.standard_normal((8, 5))
    perm = rng.permutation(8)
    for loss_fn in (losses.off_diagonal_regularization,
                    losses.frobenius_regularization):
        assert loss_fn(t, s).value \
            == pytest.approx(loss_fn(t[perm], s[perm]).value, abs=1e-12)


# ----------------------------------------------------------------------
# composition


def test_weights_validation():
    losses.LossWeights(mu=0.0, lam=0.0)  # boundary allowed
    with pytest.raises(InvalidConfig):
        losses.LossWeights(mu=-0.1)
    with pytest.raises(InvalidConfig):
        losses.LossWeights(lam=-1.0)


def test_sdpn_loss_arithmetic():
    grad = np.ones((3, 2))
    w = losses.LossWeights(mu=0.5, lam=0.0)
    combined = losses.sdpn_objective(1.0, losses.LossValue(-1.0, grad),
                                     None, w)
    assert combined.value == pytest.approx(0.5)
    unweighted = losses.sdpn_objective(1.0, losses.LossValue(-1.0, grad),
                                       None, losses.LossWeights(mu=0.0))
    assert unweighted.value == pytest.approx(1.0)


def test_total_loss_arithmetic():
    zero = np.zeros((3, 2))
    re = losses.LossValue(0.0, zero)
    dr = losses.DimRegLoss(1.0, zero, zero)
    w = losses.LossWeights(mu=0.0, lam=0.1)
    total = losses.sdpn_objective(2.0, re, dr, w)
    assert total.value == pytest.approx(2.1)
    frozen = losses.sdpn_objective(2.0, re, dr, losses.LossWeights(lam=0.0))
    assert frozen.value == pytest.approx(2.0)


def test_combined_gradient_linearity():
    rng = np.random.default_rng(46)
    g1, g2, g_tea = (rng.standard_normal((3, 2)) for _ in range(3))
    re = losses.LossValue(1.0, g1)
    dr = losses.DimRegLoss(2.0, g_tea, g2)
    w = losses.LossWeights(mu=0.25, lam=0.5)
    out = losses.sdpn_objective(3.0, re, dr, w)
    npt.assert_allclose(out.gradient, 0.25 * g1 + 0.5 * g2, atol=1e-15)
    no_reg = losses.sdpn_objective(3.0, re, None, w)
    npt.assert_allclose(no_reg.gradient, 0.25 * g1, atol=1e-15)
    assert no_reg.value == pytest.approx(3.25)

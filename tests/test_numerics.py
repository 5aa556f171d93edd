"""Matrix primitives: normalized covariance, norms, distances, softmax,
and the finite-difference checker itself."""

import numpy as np
import numpy.testing as npt
import pytest

from sdpn import numerics
from sdpn.errors import BatchTooSmall, NonPositiveTemperature, ShapeMismatch


# ----------------------------------------------------------------------
# normalized covariance


def test_covariance_orthogonal_columns_is_identity():
    c = numerics.normalized_covariance(np.array([[1.0, 0.0], [0.0, 1.0]]))
    npt.assert_array_equal(c, np.eye(2))


def test_covariance_hand_value():
    # columns (1,2,3) and (2,1,3): dot 13, both norms sqrt(14)
    batch = np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]])
    c = numerics.normalized_covariance(batch)
    assert c[0, 1] == pytest.approx(13.0 / 14.0, abs=1e-15)
    assert c[1, 0] == c[0, 1]


def test_covariance_identical_columns_gives_one():
    rng = np.random.default_rng(3)
    col = rng.standard_normal(6)
    batch = np.stack([col, col, rng.standard_normal(6)], axis=1)
    c = numerics.normalized_covariance(batch)
    assert c[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_covariance_symmetry_is_exact():
    rng = np.random.default_rng(11)
    for _ in range(20):
        batch = rng.standard_normal((int(rng.integers(2, 12)),
                                     int(rng.integers(2, 9))))
        c = numerics.normalized_covariance(batch)
        npt.assert_array_equal(c, c.T)
        npt.assert_array_equal(np.diag(c), np.ones(c.shape[0]))
        assert np.all(np.abs(c) <= 1.0 + 1e-12)


def test_covariance_column_scale_invariance():
    rng = np.random.default_rng(12)
    batch = rng.standard_normal((8, 5))
    scaled = batch.copy()
    scaled[:, 2] *= 37.5
    npt.assert_allclose(numerics.normalized_covariance(batch),
                        numerics.normalized_covariance(scaled),
                        rtol=0, atol=1e-12)


def test_covariance_zero_column_raises_and_floor_survives():
    batch = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    c = numerics.normalized_covariance(batch)
    assert np.all(np.isfinite(c))
    assert c[1, 1] != 1.0  # dead column is not reported as unit variance


def test_covariance_needs_two_rows():
    with pytest.raises(BatchTooSmall):
        numerics.normalized_covariance(np.ones((1, 3)))
    with pytest.raises(ShapeMismatch):
        numerics.normalized_covariance(np.ones(3))


def test_covariance_vjp_matches_fd():
    rng = np.random.default_rng(17)
    batch = rng.standard_normal((7, 4))
    cot = rng.standard_normal((4, 4))

    def scalar(z):
        return float((numerics.normalized_covariance(z) * cot).sum())

    grad = numerics.normalized_covariance_vjp(batch, cot)
    fd = numerics.finite_diff_gradient(scalar, batch, 1e-5)
    npt.assert_allclose(grad, fd, rtol=0, atol=1e-7)


# ----------------------------------------------------------------------
# frobenius norm


def test_frobenius_identity():
    assert numerics.frobenius_norm(np.eye(5)) == pytest.approx(np.sqrt(5.0))


def test_frobenius_all_ones():
    assert numerics.frobenius_norm(np.ones((2, 2))) == pytest.approx(2.0)


def test_frobenius_hand_value():
    r = 13.0 / 14.0
    m = np.array([[1.0, r], [r, 1.0]])
    expected = np.sqrt(2.0 + 2.0 * r * r)  # = 1.9298937...
    assert numerics.frobenius_norm(m) == pytest.approx(expected, abs=1e-14)
    assert numerics.frobenius_norm(m) == pytest.approx(1.9298937, abs=5e-8)


# ----------------------------------------------------------------------
# pairwise distances


def test_pairwise_distances_match_norm():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 3))
    d = numerics.pairwise_distances(x)
    for u in range(6):
        for v in range(6):
            assert d[u, v] == pytest.approx(np.linalg.norm(x[u] - x[v]),
                                            abs=1e-12)


# ----------------------------------------------------------------------
# softmax


def test_softmax_uniform():
    npt.assert_allclose(numerics.softmax(np.zeros(3), 1.0),
                        np.full(3, 1.0 / 3.0), atol=1e-15)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(7)
    logits = rng.standard_normal(9)
    for tau in (0.04, 0.1, 1.0, 3.0):
        npt.assert_allclose(numerics.softmax(logits, tau),
                            numerics.softmax(logits + 4.2, tau),
                            rtol=0, atol=1e-12)


def test_softmax_closed_form_with_temperature():
    # logits (1,2) at tau=0.5 scale to (2,4); the odds ratio is e^2
    p = numerics.softmax(np.array([1.0, 2.0]), 0.5)
    e2 = np.exp(2.0)
    npt.assert_allclose(p, [1.0 / (1.0 + e2), e2 / (1.0 + e2)], atol=1e-15)


def test_softmax_sums_to_one_and_rejects_bad_temperature():
    rng = np.random.default_rng(19)
    p = numerics.softmax(rng.standard_normal((4, 6)) * 30.0, 0.04)
    npt.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-9)
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(NonPositiveTemperature):
            numerics.softmax(np.zeros(2), bad)


# ----------------------------------------------------------------------
# the FD checker itself


def test_fd_gradient_on_linear_function():
    fd = numerics.finite_diff_gradient(lambda m: float(m.sum()),
                                       np.zeros((3, 2)), 1e-5)
    npt.assert_allclose(fd, np.ones((3, 2)), atol=1e-10)


def test_fd_gradient_on_quadratic():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((4, 3))
    fd = numerics.finite_diff_gradient(
        lambda m: 0.5 * float((m * m).sum()), x, 1e-5)
    npt.assert_allclose(fd, x, rtol=0, atol=1e-10)


def test_fd_gradient_does_not_mutate_input():
    x = np.arange(6.0).reshape(2, 3)
    before = x.copy()
    numerics.finite_diff_gradient(lambda m: float((m ** 3).sum()), x, 1e-5)
    npt.assert_array_equal(x, before)

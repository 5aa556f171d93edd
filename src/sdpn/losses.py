"""Training objective: distillation cross-entropy, batch diversity, and the
two covariance-based dimension regularizers.

Every loss returns its value together with a hand-derived analytic gradient;
the verification suite holds each of those gradients against central finite
differences. No autodiff framework is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import (
    BatchTooSmall,
    DistributionLengthMismatch,
    InvalidConfig,
    ShapeMismatch,
)

# Probabilities are floored before the log so sharpened teacher targets with
# exact zeros cannot produce -inf.
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class LossValue:
    """A scalar loss plus the gradient w.r.t. its differentiated input."""

    value: float
    gradient: np.ndarray


@dataclass(frozen=True)
class DimRegLoss:
    """Dimension-regularizer value with gradients for both batches."""

    value: float
    teacher_gradient: np.ndarray
    student_gradient: np.ndarray


@dataclass(frozen=True)
class LossWeights:
    """mu scales the diversity term, lam the dimension regularizer."""

    mu: float = 0.1
    lam: float = 0.05

    def __post_init__(self):
        if self.mu < 0 or self.lam < 0:
            raise InvalidConfig(
                f"loss weights must be >= 0, got mu={self.mu} lam={self.lam}"
            )


def cross_entropy_loss(p_teacher, p_student) -> LossValue:
    """Sum of H(teacher | student) over every (global, local) view pair.

    ``p_teacher`` holds one distribution per teacher (global) view,
    ``p_student`` one per student (local) view; H(a|b) = -sum_k a_k log b_k.
    The gradient is taken w.r.t. the student logits that produced
    ``p_student`` via softmax: for local view l it is
    sum_g (p_student_l - p_teacher_g).
    """
    a = np.atleast_2d(np.asarray(p_teacher, dtype=np.float64))
    b = np.atleast_2d(np.asarray(p_student, dtype=np.float64))
    if a.shape[-1] != b.shape[-1]:
        raise DistributionLengthMismatch(
            f"teacher has {a.shape[-1]} classes, student {b.shape[-1]}"
        )
    log_b = np.log(np.maximum(b, PROB_FLOOR))
    # sum_g sum_l (-a_g . log b_l) factorizes through the per-class sums.
    value = -float(a.sum(axis=0) @ log_b.sum(axis=0))
    grad = a.shape[0] * b - a.sum(axis=0)[None, :]
    return LossValue(value, grad)


def diversity_regularization(batch, *, summed: bool = False) -> LossValue:
    """Push every embedding away from its nearest neighbour in the batch.

    value = -(1/n) sum_u log(min_{v != u} ||x_u - x_v||), distances floored
    at the duplicate epsilon (floored terms contribute zero gradient). With
    ``summed`` the value and gradient are scaled by n — a batch sum instead
    of a batch mean, so the term's weight grows with batch size.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeMismatch(f"expected a 2-d batch, got shape {x.shape}")
    n = x.shape[0]
    if n < 2:
        raise BatchTooSmall(f"diversity needs n >= 2 rows, got {n}")

    dist = numerics.pairwise_distances(x)
    np.fill_diagonal(dist, np.inf)
    nearest = dist.argmin(axis=1)
    d_min = dist[np.arange(n), nearest]

    safe = d_min >= numerics.EPS_DUPLICATE
    value = -float(np.log(np.maximum(d_min, numerics.EPS_DUPLICATE)).sum()) / n

    grad = np.zeros_like(x)
    for u in np.flatnonzero(safe):
        v = nearest[u]
        pull = (x[u] - x[v]) / (d_min[u] * d_min[u] * n)
        grad[u] -= pull
        grad[v] += pull

    if summed:
        return LossValue(value * n, grad * n)
    return LossValue(value, grad)


def _covariance_pair(teacher_batch, student_batch, floor_columns, centered):
    c_t = numerics.normalized_covariance(
        teacher_batch, floor_columns=floor_columns, centered=centered)
    c_s = numerics.normalized_covariance(
        student_batch, floor_columns=floor_columns, centered=centered)
    return c_t, c_s


def _offdiag_square_sum(c: np.ndarray) -> float:
    return float(np.einsum("ij,ij->", c, c) - np.einsum("ii,ii->", c, c))


def off_diagonal_regularization(teacher_batch, student_batch, *,
                                floor_columns: bool = False,
                                centered: bool = False) -> DimRegLoss:
    """Sum of squared off-diagonal covariance entries for both batches."""
    c_t, c_s = _covariance_pair(teacher_batch, student_batch,
                                floor_columns, centered)
    value = _offdiag_square_sum(c_t) + _offdiag_square_sum(c_s)

    def grad_for(batch, c):
        g = 2.0 * c
        np.fill_diagonal(g, 0.0)
        return numerics.normalized_covariance_vjp(
            batch, g, floor_columns=floor_columns, centered=centered)

    return DimRegLoss(value, grad_for(teacher_batch, c_t),
                      grad_for(student_batch, c_s))


def frobenius_reg_covariance_grad(c) -> np.ndarray:
    """Covariance-level gradient of log ||C||_F for a unit-diagonal C.

    Off-diagonal entry (i, j) gets C_ij / (D + sum_{i != j} C_ij^2); the
    diagonal is pinned at 1 and gets zero.
    """
    cm = np.asarray(c, dtype=np.float64)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {cm.shape}")
    d = cm.shape[0]
    denom = d + _offdiag_square_sum(cm)
    g = cm / denom
    np.fill_diagonal(g, 0.0)
    return g


def frobenius_regularization(teacher_batch, student_batch, *,
                             floor_columns: bool = False,
                             centered: bool = False) -> DimRegLoss:
    """log Frobenius norm of both covariance matrices, diagonal included.

    Because every live diagonal entry is exactly 1, the entry gradient
    C_ij / (D + sum_offdiag C^2) coincides with the true derivative of
    log ||C||_F, so the analytic and finite-difference routes agree.
    """
    c_t, c_s = _covariance_pair(teacher_batch, student_batch,
                                floor_columns, centered)
    value = float(np.log(numerics.frobenius_norm(c_t))
                  + np.log(numerics.frobenius_norm(c_s)))

    def grad_for(batch, c):
        return numerics.normalized_covariance_vjp(
            batch, frobenius_reg_covariance_grad(c),
            floor_columns=floor_columns, centered=centered)

    return DimRegLoss(value, grad_for(teacher_batch, c_t),
                      grad_for(student_batch, c_s))


def sdpn_objective(ce_value: float, re: LossValue, dr: DimRegLoss | None,
                   weights: LossWeights) -> LossValue:
    """Total ``ce + mu*re + lam*dr`` with its gradient w.r.t. the student
    global projections, ``mu*re.gradient + lam*dr.student_gradient`` (the
    distillation gradient flows through the local views instead). ``dr`` is
    None when no dimension regularizer runs."""
    dr_value = 0.0 if dr is None else dr.value
    value = ce_value + weights.mu * re.value + weights.lam * dr_value
    gradient = weights.mu * re.gradient
    if dr is not None:
        gradient = gradient + weights.lam * dr.student_gradient
    return LossValue(value, gradient)

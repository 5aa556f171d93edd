"""Terms of the training objective: distillation cross-entropy, batch
diversity, and the two covariance-based dimension regularizers.
``trainer.student_objective`` weighs them into the objective.

Every loss returns its value together with a hand-derived analytic gradient;
``grad-check`` (``proptests``) holds each of those gradients against central
finite differences. No autodiff framework is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics

# Probabilities are floored before the log so sharpened teacher targets with
# exact zeros cannot produce -inf.
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class LossValue:
    """A scalar loss plus the gradient w.r.t. its differentiated input."""

    value: float
    gradient: np.ndarray


def cross_entropy_loss(p_teacher, p_student) -> LossValue:
    """Sum of H(teacher | student) over every (global, local) view pair.

    ``p_teacher`` (..., G, K) holds one distribution per teacher (global)
    view, ``p_student`` (..., L, K) one per student (local) view, with the
    same leading batch dimensions; H(a|b) = -sum_k a_k log b_k. The value is
    also summed over the batch. The gradient is taken w.r.t. the student
    logits that produced ``p_student`` via softmax: for local view l it is
    sum_g (p_student_l - p_teacher_g) within the same batch entry.
    """
    a = np.atleast_2d(np.asarray(p_teacher, dtype=np.float64))
    b = np.atleast_2d(np.asarray(p_student, dtype=np.float64))
    log_b = np.log(np.maximum(b, PROB_FLOOR))
    # sum_g sum_l (-a_g . log b_l) factorizes through the per-class sums.
    a_sum = a.sum(axis=-2)
    value = -float(a_sum.ravel() @ log_b.sum(axis=-2).ravel())
    grad = a.shape[-2] * b - a_sum[..., None, :]
    return LossValue(value, grad)


def diversity_regularization(batch) -> LossValue:
    """Push every embedding away from its nearest neighbour in the batch.

    value = -(1/n) sum_u log(min_{v != u} ||x_u - x_v||), distances floored
    at the duplicate epsilon (floored terms contribute zero gradient).
    """
    x = np.asarray(batch, dtype=np.float64)
    n = x.shape[0]
    dist = numerics.pairwise_distances(x)
    np.fill_diagonal(dist, np.inf)
    nearest = dist.argmin(axis=1)
    d_min = dist[np.arange(n), nearest]

    safe = d_min >= numerics.EPS_DUPLICATE
    value = -float(np.log(np.maximum(d_min, numerics.EPS_DUPLICATE)).sum()) / n

    # row u gets -pull and its nearest v gets +pull; the interleaved scatter
    # adds them in the order of a loop over u
    u = np.flatnonzero(safe)
    v = nearest[u]
    pull = (x[u] - x[v]) / (d_min[u] * d_min[u] * n)[:, None]
    grad = np.zeros_like(x)
    np.add.at(grad, np.stack([u, v], 1).ravel(),
              np.stack([-pull, pull], 1).reshape(-1, x.shape[1]))
    return LossValue(value, grad)


def _covariance_pair(teacher_batch, student_batch):
    return (numerics.normalized_covariance(teacher_batch),
            numerics.normalized_covariance(student_batch))


def _offdiag_square_sum(c: np.ndarray) -> float:
    return float(np.einsum("ij,ij->", c, c) - np.einsum("ii,ii->", c, c))


def off_diagonal_regularization(teacher_batch, student_batch) -> LossValue:
    """Sum of squared off-diagonal covariance entries for both batches; the
    gradient is w.r.t. the student batch (the teacher moves only by EMA)."""
    c_t, c_s = _covariance_pair(teacher_batch, student_batch)
    value = _offdiag_square_sum(c_t) + _offdiag_square_sum(c_s)
    g = 2.0 * c_s
    np.fill_diagonal(g, 0.0)
    return LossValue(value,
                     numerics.normalized_covariance_vjp(student_batch, g))


def frobenius_reg_covariance_grad(c) -> np.ndarray:
    """Covariance-level gradient of log ||C||_F for a unit-diagonal C.

    Off-diagonal entry (i, j) gets C_ij / (D + sum_{i != j} C_ij^2); the
    diagonal is pinned at 1 and gets zero.
    """
    cm = np.asarray(c, dtype=np.float64)
    denom = cm.shape[0] + _offdiag_square_sum(cm)
    g = cm / denom
    np.fill_diagonal(g, 0.0)
    return g


def frobenius_regularization(teacher_batch, student_batch) -> LossValue:
    """log Frobenius norm of both covariance matrices, diagonal included;
    the gradient is w.r.t. the student batch (the teacher moves only by EMA).

    Because every live diagonal entry is exactly 1, the entry gradient
    C_ij / (D + sum_offdiag C^2) coincides with the true derivative of
    log ||C||_F, so the analytic and finite-difference routes agree.
    """
    c_t, c_s = _covariance_pair(teacher_batch, student_batch)
    value = float(np.log(numerics.frobenius_norm(c_t))
                  + np.log(numerics.frobenius_norm(c_s)))
    return LossValue(value, numerics.normalized_covariance_vjp(
        student_batch, frobenius_reg_covariance_grad(c_s)))


# ``train.regularizer`` name -> the dimension regularizer it adds, the only
# list of those names: ``config.validate`` checks the name against it and
# ``trainer.student_objective`` looks the function up in it.
REGULARIZERS = {
    "none": None,
    "off_diagonal": off_diagonal_regularization,
    "frobenius": frobenius_regularization,
}

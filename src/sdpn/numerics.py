"""Float64 matrix primitives shared by the losses, model, and scoring code.

Everything here operates on plain numpy arrays in double precision: the
normalized cross-dimension covariance and its vector-Jacobian product,
nearest-neighbour distances, a temperature softmax, row blocks, and a
central finite-difference gradient checker for ``grad-check`` and tests.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import (
    BatchTooSmall,
    InvalidConfig,
    NonPositiveTemperature,
    ShapeMismatch,
)

# Floor under which a column norm counts as collapsed / two embeddings count
# as duplicates; the floor is substituted for the norm or distance.
EPS_COLUMN = 1e-12
EPS_DUPLICATE = 1e-12
# Embedding and scoring work on blocks of rows holding about this many
# float64 values, which bounds their working memory whatever the corpus,
# trial list or cohort size.
BLOCK_ELEMENTS = 2 ** 18


def blocks(rows: int, width: int) -> list[slice]:
    """Slices of ``rows`` rows of ``width`` values, ~BLOCK_ELEMENTS each."""
    step = max(1, BLOCK_ELEMENTS // max(1, width))
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def _as_batch(batch) -> np.ndarray:
    z = np.asarray(batch, dtype=np.float64)
    if z.ndim != 2:
        raise ShapeMismatch(f"expected a 2-d batch, got shape {z.shape}")
    if z.shape[0] < 2:
        raise BatchTooSmall(f"need at least 2 rows, got {z.shape[0]}")
    return z


def _column_scales(z: np.ndarray):
    """Column norms plus the denominators used: the norms floored at
    EPS_COLUMN (a norm at or above the floor is used unchanged)."""
    norms = np.sqrt(np.einsum("bi,bi->i", z, z))
    return norms, np.maximum(norms, EPS_COLUMN)


def normalized_covariance(batch) -> np.ndarray:
    """Cross-dimension covariance with per-column norm normalization.

    Entry (i, j) is sum_b z[b,i] z[b,j] / (||z[:,i]|| * ||z[:,j]||) — the raw
    second moment of the columns, not mean-centered. The result is exactly
    symmetric (upper triangle mirrored) and has unit diagonal for every
    column with nonzero norm, so all entries live in [-1, 1] up to roundoff.
    A column whose norm sits under EPS_COLUMN is divided by the floor
    instead, so its entries stay finite and its diagonal is not 1.
    """
    z = _as_batch(batch)
    norms, denom = _column_scales(z)
    c = (z.T @ z) / np.outer(denom, denom)
    upper = np.triu(c, 1)
    sym = upper + upper.T
    diag = np.einsum("bi,bi->i", z, z) / (denom * denom)
    diag = np.where(norms >= EPS_COLUMN, 1.0, diag)
    sym[np.diag_indices(z.shape[1])] = diag
    return sym


def normalized_covariance_vjp(batch, cotangent) -> np.ndarray:
    """Backpropagate a covariance-level gradient to the batch.

    Given dL/dC for the matrix produced by :func:`normalized_covariance`,
    returns dL/dZ. The diagonal of the cotangent is ignored because the
    forward pins live diagonal entries to the constant 1. Columns whose norm
    sits under the floor contribute no norm-derivative term (the floor is a
    constant there).
    """
    z = _as_batch(batch)
    d = z.shape[1]
    g = np.asarray(cotangent, dtype=np.float64)
    if g.shape != (d, d):
        raise ShapeMismatch(f"cotangent shape {g.shape} != ({d}, {d})")
    norms, denom = _column_scales(z)
    live = (norms >= EPS_COLUMN).astype(np.float64)

    h = g + g.T
    np.fill_diagonal(h, 0.0)
    u = z / denom
    c = (z.T @ z) / np.outer(denom, denom)
    r = np.einsum("kj,kj->k", h, c)
    return (u @ h - u * (r * live)[None, :]) / denom[None, :]


def frobenius_norm(m) -> float:
    """sqrt of the sum of squared entries, diagonal included."""
    x = np.asarray(m, dtype=np.float64).ravel()
    return float(np.sqrt(x @ x))


def pairwise_distances(batch) -> np.ndarray:
    """Full Euclidean distance matrix with a zero diagonal.

    Computed from explicit row differences rather than the Gram expansion:
    the finite-difference checks perturb single entries by 1e-5 and the
    expansion's cancellation error would swamp that.
    """
    x = _as_batch(batch)
    diff = x[:, None, :] - x[None, :, :]
    return np.sqrt(np.einsum("uvd,uvd->uv", diff, diff))


def softmax(logits, temperature: float = 1.0) -> np.ndarray:
    """Temperature softmax over the last axis, max-subtracted for stability."""
    if not temperature > 0:
        raise NonPositiveTemperature(
            f"temperature must be positive, got {temperature}"
        )
    x = np.asarray(logits, dtype=np.float64) / temperature
    x = x - x.max(axis=-1, keepdims=True)
    e = np.exp(x)
    return e / e.sum(axis=-1, keepdims=True)


def finite_diff_gradient(f: Callable[[np.ndarray], float], at,
                         step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, entry by entry."""
    if not step > 0:
        raise InvalidConfig(f"step must be positive, got {step}")
    x = np.array(at, dtype=np.float64, copy=True)
    grad = np.empty_like(x)
    for idx in np.ndindex(*x.shape):
        orig = x[idx]
        x[idx] = orig + step
        f_plus = f(x.copy())
        x[idx] = orig - step
        f_minus = f(x.copy())
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * step)
    return grad

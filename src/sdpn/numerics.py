"""Float64 matrix primitives shared by the losses, model, and scoring code.

Everything here operates on plain numpy arrays in double precision: the
normalized cross-dimension covariance and its vector-Jacobian product,
nearest-neighbour distances, a temperature softmax, row blocks, a
central finite-difference gradient checker for ``grad-check`` and tests,
and ``one_blas_thread``, which ``train`` and ``forward_embed`` hold while
they run their own two threads.
A batch is an (n, d) array with n >= 2, as the validated config's batch
size guarantees; nothing here re-checks its shape.
"""

from __future__ import annotations

import contextlib
import ctypes
from typing import Callable

import numpy as np

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


# The thread-count setter and getter of OpenBLAS: as the numpy wheels
# link it (64-bit ints, prefixed names), then as a system library.
OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"))


def openblas_threads():
    """(set, get) of the thread count of the OpenBLAS that numpy calls, or
    None if numpy links another BLAS or the library cannot be reached."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    return next(((getattr(lib, s), getattr(lib, g))
                 for s, g in OPENBLAS_THREAD_CALLS if hasattr(lib, s)), None)


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS on one thread, then restore its count.
    A caller that runs its own two threads already keeps two cores busy,
    and a BLAS call that splits itself over the cores as well stalls the
    other thread. OpenBLAS splits a product over blocks of its output, so the
    thread count does not change the bytes a run writes."""
    calls = openblas_threads()
    if calls is None:
        yield
        return
    set_threads, get_threads = calls
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


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
    z = np.asarray(batch, dtype=np.float64)
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
    z = np.asarray(batch, dtype=np.float64)
    g = np.asarray(cotangent, dtype=np.float64)  # (d, d) for a (n, d) batch
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
    x = np.asarray(batch, dtype=np.float64)
    diff = x[:, None, :] - x[None, :, :]
    return np.sqrt(np.einsum("uvd,uvd->uv", diff, diff))


def softmax(logits, temperature: float = 1.0) -> np.ndarray:
    """Temperature (> 0) softmax over the last axis, max-subtracted."""
    x = np.asarray(logits, dtype=np.float64) / temperature
    x = x - x.max(axis=-1, keepdims=True)
    e = np.exp(x)
    return e / e.sum(axis=-1, keepdims=True)


def finite_diff_gradient(f: Callable[[np.ndarray], float], at,
                         step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, entry by entry."""
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

"""Finite-difference gradient checks run by ``grad-check``.

Each check compares a hand-derived gradient with central differences over
``instances`` random problems drawn from ``default_rng([seed, i])`` and
returns ``(max_dev, detail)``. ``GRAD_CHECKS`` names each check, its seed
and its tolerance under the ``--loss`` choice that selects it.
"""

from __future__ import annotations

import json
import time

import numpy as np

from . import losses, model, numerics, trainer
from .config import RunConfig, TrainSection
from .data import atomic_write

FD_STEP = 1e-5


def rel_error(analytic, numeric) -> float:
    """Max absolute deviation scaled by the larger matrix magnitude."""
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(numeric, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-12)
    return float(np.abs(a - b).max(initial=0.0) / scale)


# ----------------------------------------------------------------------
# instance generators


def _random_distributions(rng, rows, k):
    return numerics.softmax(rng.standard_normal((rows, k)), 1.0)


def _well_separated(x, margin=1e-3, floor=1e-2) -> bool:
    """Whether the nearest-neighbour structure of the rows of ``x`` is
    stable under the finite-difference perturbation (no min-distance ties
    near the step)."""
    dist = numerics.pairwise_distances(x)
    np.fill_diagonal(dist, np.inf)
    ordered = np.sort(dist, axis=1)
    return ordered[:, 0].min() > floor and \
        (ordered[:, 1] - ordered[:, 0]).min() > margin


def _well_separated_batch(rng, n, d):
    """Random (n, d) batch that passes ``_well_separated``."""
    while True:
        x = rng.standard_normal((n, d))
        if _well_separated(x):
            return x


def _dims(rng):
    return int(rng.integers(4, 17)), int(rng.integers(3, 9))


# ----------------------------------------------------------------------
# finite-difference cases


def _fd_ce(seed, instances):
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


def _fd_re(seed, instances):
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
    def run(seed, instances):
        worst = 0.0
        for i in range(instances):
            rng = np.random.default_rng([seed, i])
            n, d = _dims(rng)
            z_tea = rng.standard_normal((n, d))
            z_stu = rng.standard_normal((n, d))
            fd = numerics.finite_diff_gradient(
                lambda z: loss_fn(z_tea, z).value, z_stu, FD_STEP)
            worst = max(worst, rel_error(loss_fn(z_tea, z_stu).gradient, fd))
        return worst, f"{instances} instances, student batch gradient"
    return run


# The composite check's tiny model, and its batch: (B, G, Tg) global and
# (B, L, Tl) local views.
COMPOSITE_DIMS = dict(feature_dim=4, encoder_hidden=4, embed_dim=4,
                      proj_hidden=4, proj_dim=3, num_prototypes=5)
COMPOSITE_VIEWS = ((4, 1, 6), (4, 2, 3))


def _fd_composite(seed, instances):
    """The trainer's own objective, ``trainer.student_objective``: the
    gradient of every student tensor and of the prototypes against central
    differences of its total loss, with the teacher targets of the batch
    held fixed. The regularizer cycles through ``losses.REGULARIZERS`` in
    its order by instance. An instance whose student global projections
    are near a nearest-neighbour tie is redrawn."""
    feature_dim = COMPOSITE_DIMS["feature_dim"]
    kinds = list(losses.REGULARIZERS)
    worst = 0.0
    for i in range(instances):
        rng = np.random.default_rng([seed, i])
        cfg = RunConfig(train=TrainSection(regularizer=kinds[i % len(kinds)]))
        while True:
            params = model.init_params(rng, **COMPOSITE_DIMS)
            # nonzero biases, and a teacher apart from the student
            for arr in params.values():
                arr += 0.1 * rng.standard_normal(arr.shape)
            model.normalize_prototypes(params["prototypes"])
            gv, lv = (rng.standard_normal((*shape, feature_dim))
                      for shape in COMPOSITE_VIEWS)
            _, s_proj_g, _ = model.network_forward(
                params, "student", gv.reshape(-1, *gv.shape[2:]))
            if _well_separated(s_proj_g):
                break
        targets = trainer.teacher_targets(
            params, gv, np.zeros(COMPOSITE_DIMS["num_prototypes"]), cfg)
        _, grads, _ = trainer.student_objective(params, gv, lv, targets, cfg)
        for name, grad in grads.items():
            def loss(value, name=name):
                terms, _, _ = trainer.student_objective(
                    {**params, name: value}, gv, lv, targets, cfg)
                return terms["loss"]

            fd = numerics.finite_diff_gradient(loss, params[name], FD_STEP)
            worst = max(worst, rel_error(grad, fd))
    return worst, (f"{instances} instances, every student tensor and the "
                   "prototypes, alternating regularizers")


def _random_unit_diagonal(rng, d):
    m = rng.uniform(-0.9, 0.9, size=(d, d))
    c = (m + m.T) / 2.0
    np.fill_diagonal(c, 1.0)
    return c


def _fd_eq_frobenius_covariance(seed, instances):
    """Covariance-level gradient formula vs FD of log||C||_F, off-diagonal
    entries perturbed one at a time with the diagonal held at 1."""
    worst = 0.0
    for i in range(instances):
        rng = np.random.default_rng([seed, i])
        d = int(rng.integers(3, 9))
        c = _random_unit_diagonal(rng, d)
        analytic = losses.frobenius_reg_covariance_grad(c)
        fd = numerics.finite_diff_gradient(
            lambda m: np.log(numerics.frobenius_norm(m)), c, FD_STEP)
        np.fill_diagonal(fd, 0.0)
        worst = max(worst, float(np.abs(analytic - fd).max()))
    return worst, f"{instances} matrices, absolute deviation"


# ----------------------------------------------------------------------
# the --loss table


GRAD_CHECKS = {
    "ce": ("fd_ce_gradient", _fd_ce, 101, 1e-4),
    "re": ("fd_re_gradient", _fd_re, 102, 1e-4),
    "odr": ("fd_odr_gradient",
            _fd_dimreg(losses.off_diagonal_regularization), 103, 1e-4),
    "fdr": ("fd_fdr_gradient",
            _fd_dimreg(losses.frobenius_regularization), 104, 1e-4),
    "composite": ("fd_composite_gradient", _fd_composite, 105, 1e-4),
    "covariance": ("fd_frobenius_covariance_grad",
                   _fd_eq_frobenius_covariance, 106, 1e-6),
}


def run_check(loss: str, instances: int, seed_offset: int = 0) -> dict:
    """Run one table entry; returns its JSON-lines report record."""
    name, check, seed, tolerance = GRAD_CHECKS[loss]
    start = time.perf_counter()
    max_dev, detail = check(seed + seed_offset, instances)
    elapsed = time.perf_counter() - start
    return {"name": name, "kind": "fd_gradient",
            "max_deviation": float(max_dev), "tolerance": tolerance,
            "passed": max_dev <= tolerance,
            "elapsed_sec": round(elapsed, 3), "detail": detail}


def write_report(records, path):
    """JSON-lines, one record per check, written atomically."""
    atomic_write(path, "".join(json.dumps(r) + "\n" for r in records)
                 .encode("utf-8"))

"""Teacher-student training loop at desk scale.

``teacher_targets`` runs the teacher over the global views (centered,
sharp softmax) and returns read-only targets. ``student_objective`` holds
them fixed and is the one definition of the training objective: the
student scores local views for the distillation term and global views for
the diversity and dimension-regularization terms, and the function returns
the loss terms with the gradients of every student tensor and the shared
prototypes. ``grad-check --loss composite`` checks that function against
finite differences. SGD with momentum applies the gradients; the teacher
moves only through the EMA update; prototype rows are re-normalized after
every step; the teacher center follows the batch mean of teacher prototype
scores.

A step has two halves that share only the teacher targets, and ``train``
runs them at the same time on two threads: a worker runs the teacher and
then the student's global path (forward, diversity term, regularizer,
backward), while the calling thread runs the student's local path and its
distillation term. numpy releases the GIL in the array work of both. The
gradients are summed in a fixed order after the join, so the result does
not depend on thread scheduling; the updates run on the calling thread.
While the loop runs, OpenBLAS runs each product on one thread
(``numerics.one_blas_thread``), because the two halves already fill two
cores.

The training state is one dict of float64 arrays keyed by checkpoint tensor
name: the weights of ``model.init_params`` plus the ``optimizer.*`` tensors
of ``init_state`` (momentum buffers, teacher center, epoch and global-step
counters). ``train`` updates it in place, and saving it is the checkpoint.

Randomness is re-derived per epoch from (seed, epoch), which makes resuming
from an epoch checkpoint bit-identical to the uninterrupted run.
"""

from __future__ import annotations

import contextlib
import json
import math
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import NamedTuple

import numpy as np

from . import data as data_mod
from . import losses, model, numerics
from .config import RunConfig
from .errors import DataError, DivergedLoss, InvalidConfig


def lr_at(step: int, total_steps: int, cfg: RunConfig) -> float:
    """Linear warmup to lr_peak, then cosine decay to lr_final."""
    if not 0 <= step <= total_steps:
        raise InvalidConfig(f"step {step} outside [0, {total_steps}]")
    t = cfg.train
    warmup_steps = (total_steps * t.warmup_epochs) // t.epochs
    if step < warmup_steps:
        return t.lr_peak * step / warmup_steps
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    return t.lr_final + 0.5 * (t.lr_peak - t.lr_final) * (
        1.0 + math.cos(math.pi * progress))


def diagnostics(student_global_embeddings, teacher_distributions) -> dict:
    """Collapse indicators, keyed as an epoch record holds them:
    ``mean_abs_offdiag`` of the student covariance, ``embedding_std`` (the
    mean per-dimension spread) and ``prototype_usage_entropy`` of the
    average teacher distribution (0 = one prototype eats everything)."""
    z = np.asarray(student_global_embeddings, dtype=np.float64)
    c = numerics.normalized_covariance(z)
    d = c.shape[0]
    mean_abs = float((np.abs(c).sum() - np.trace(np.abs(c))) / (d * (d - 1)))
    emb_std = float(z.std(axis=0).mean())
    p = np.atleast_2d(np.asarray(teacher_distributions, dtype=np.float64))
    p_mean = p.reshape(-1, p.shape[-1]).mean(axis=0)
    entropy = float(-(p_mean * np.log(np.maximum(p_mean, losses.PROB_FLOOR))).sum())
    return {"mean_abs_offdiag": mean_abs, "embedding_std": emb_std,
            "prototype_usage_entropy": entropy}


def init_state(params: dict) -> dict:
    """The training state: ``params`` (see ``model.init_params``) plus the
    optimizer tensors ``optimizer.velocity.<name>`` (zero) for every
    student tensor and the prototypes, the teacher ``optimizer.center``
    (zero), and ``optimizer.epoch`` and ``optimizer.global_step`` as
    shape-(1,) counters, as a checkpoint stores them."""
    state = dict(params)
    trained = [n for n in params if n.startswith("student.")] + ["prototypes"]
    for name in trained:
        state[f"optimizer.velocity.{name}"] = np.zeros_like(params[name])
    state["optimizer.center"] = np.zeros(params["prototypes"].shape[0])
    state["optimizer.epoch"] = np.zeros(1)
    state["optimizer.global_step"] = np.zeros(1)
    return state


def encoder_workspace(global_views, local_views, hidden: int):
    """The encoder buffers of one step (see ``student_objective``): a
    (B·G, Tg, H) pair for the global views and a (B·L, Tl, H) pair for the
    local views of batch arrays shaped like these."""
    return tuple((np.empty((n * k, t, hidden)), np.empty((n * k, t, hidden)))
                 for n, k, t, _ in (global_views.shape, local_views.shape))


class TeacherTargets(NamedTuple):
    """What the teacher makes of a batch's (B, G, T, F) global views, all
    read-only: unit projections (B·G, P), prototype scores (B·G, K) and the
    centered, sharpened distributions (B, G, K)."""

    projections: np.ndarray
    scores: np.ndarray
    distributions: np.ndarray


def teacher_targets(params, global_views, center, cfg: RunConfig,
                    buffers=None) -> TeacherTargets:
    """The teacher's forward over the global views at ``center`` and
    ``cfg.model.teacher_temp``. ``buffers``, if given, is the global pair
    of ``encoder_workspace``; the teacher drops its cache, so the student
    global pass may overwrite it."""
    gv = np.asarray(global_views, dtype=np.float64)
    _, proj, _ = model.network_forward(params, "teacher",
                                       gv.reshape(-1, *gv.shape[2:]), buffers)
    scores = model.prototype_scores(proj, params["prototypes"])
    p = numerics.softmax(scores - center, cfg.model.teacher_temp)
    targets = TeacherTargets(proj, scores, p.reshape(*gv.shape[:2], -1))
    for arr in targets:
        arr.flags.writeable = False
    return targets


def _resolved(targets) -> TeacherTargets:
    """``targets``, or the result of a Future of them, which raises what
    the teacher raised."""
    return targets.result() if isinstance(targets, Future) else targets


def _distillation_path(params, local_views, targets, cfg: RunConfig, buf_l):
    """The student over the local views against the teacher's global-view
    distributions: (distillation term, gradients of the student tensors and
    the prototypes). ``targets`` is resolved where the term needs them."""
    b, l = local_views.shape[:2]
    protos, temp = params["prototypes"], cfg.model.student_temp
    _, s_proj_l, caches_l = model.network_forward(
        params, "student", local_views.reshape(-1, *local_views.shape[2:]),
        buf_l)
    p_stu = model.prototype_distribution(s_proj_l, protos, temp)
    ce = losses.cross_entropy_loss(_resolved(targets).distributions,
                                   p_stu.reshape(b, l, -1))
    d_scores_l = (ce.gradient / b).reshape(p_stu.shape) / temp
    grads = model.network_backward(params, "student", caches_l,
                                   d_scores_l @ protos)
    grads["prototypes"] = d_scores_l.T @ s_proj_l
    return ce.value / b, grads


def _regularization_path(params, global_views, targets, cfg: RunConfig,
                         buf_g):
    """The student over the global views: (its projections, the diversity
    term, the dimension regularizer, 0.0 under "none", and the gradients
    of the student tensors they weigh in). The teacher pass of a pending
    ``targets`` writes ``buf_g`` too, so this path waits for it first."""
    targets = _resolved(targets)
    _, s_proj_g, caches_g = model.network_forward(
        params, "student", global_views.reshape(-1, *global_views.shape[2:]),
        buf_g)
    re = losses.diversity_regularization(s_proj_g)
    kind = losses.REGULARIZERS[cfg.train.regularizer]
    dr = None if kind is None else kind(targets.projections, s_proj_g)
    g_proj_g = cfg.train.mu * re.gradient
    if dr is not None:
        g_proj_g += cfg.train.lam * dr.gradient
    grads = model.network_backward(params, "student", caches_g, g_proj_g)
    return s_proj_g, re.value, 0.0 if dr is None else dr.value, grads


def student_objective(params, global_views, local_views, targets,
                      cfg: RunConfig, workspace=None, pool=None):
    """The training objective against fixed teacher ``targets`` (a
    ``TeacherTargets`` or a Future of one): the student scores the local
    views for the distillation term and the global views for the
    diversity and dimension-regularization terms. Reads the student
    temperature from ``cfg.model`` and the loss weights and regularizer
    from ``cfg.train``. Returns (terms, grads, student_global): the loss
    terms, the gradients of the student tensors (encoder, then projection)
    and the prototypes keyed by name, and the student's global projections
    (B·G, P).

    ``workspace`` (see ``encoder_workspace``), if given, holds the encoder
    activations: the student local pass writes the local pair and the
    global pass the global pair. Without it every pass allocates its own.
    ``pool``, an executor, if given, runs the global path while this thread
    runs the local path; without it the global path runs here, after the
    local one. Either way the arithmetic is the same, the worker is done
    before this returns or raises, and of several errors the one raised is
    the first in the order teacher, local path, global path.
    """
    gv = np.asarray(global_views, dtype=np.float64)
    lv = np.asarray(local_views, dtype=np.float64)
    buf_g, buf_l = workspace if workspace is not None else (None, None)
    pending = None if pool is None else pool.submit(
        _regularization_path, params, gv, targets, cfg, buf_g)
    try:
        ce_value, grads = _distillation_path(params, lv, targets, cfg, buf_l)
    finally:
        if pending is not None:
            wait((pending,))  # no worker writes the workspace after this
        _resolved(targets)  # a teacher error replaces a local-path one
    s_proj_g, re_value, dr_value, grads_g = (
        _regularization_path(params, gv, targets, cfg, buf_g)
        if pending is None else pending.result())
    for key, val in grads_g.items():
        grads[key] += val

    # total ce + mu*re + lam*dr: mu weighs the diversity term, lam the
    # dimension regularizer, which is absent under "none"
    terms = {
        "loss_ce": ce_value,
        "loss_re": re_value,
        "loss_dr": dr_value,
        "loss": ce_value + cfg.train.mu * re_value + cfg.train.lam * dr_value,
    }
    return terms, grads, s_proj_g


def train_step(state: dict, global_views, local_views, cfg: RunConfig,
               lr: float, workspace, pool):
    """One SGD+momentum update of the student and prototypes in ``state``,
    with ``workspace`` as in ``student_objective``. The teacher and then
    the student's global path run on the worker of ``pool``, an executor,
    while this thread runs the student's local path; the worker is done
    before this returns or raises. The teacher is untouched here; the loop
    moves it via ema_update afterwards. Returns (terms, targets,
    student_global) as ``teacher_targets`` and ``student_objective`` gave
    them.

    Raises DivergedLoss, naming the first non-finite loss term or else
    gradient (encoder, projection, prototypes), before anything is updated.
    """
    targets = pool.submit(teacher_targets, state, global_views,
                          state["optimizer.center"], cfg, workspace[0])
    try:
        terms, grads, student_global = student_objective(
            state, global_views, local_views, targets, cfg, workspace, pool)
    finally:
        wait((targets,))
    targets = targets.result()
    for key, value in terms.items():
        if not math.isfinite(value):
            raise DivergedLoss(f"non-finite {key} {value}")
    for name, grad in grads.items():
        if not np.isfinite(grad).all():
            raise DivergedLoss(f"non-finite gradient {name}")
    for name, grad in grads.items():
        vel = state[f"optimizer.velocity.{name}"]
        vel *= cfg.train.momentum
        vel += grad
        state[name] -= lr * vel
    model.normalize_prototypes(state["prototypes"])
    return terms, targets, student_global


def check_inputs(corpus, state: dict, cfg: RunConfig):
    """Refuse a corpus ``train`` could not run on: InvalidConfig if it
    cannot fill a batch or if the state's ``optimizer.global_step`` is not
    its ``optimizer.epoch`` times this corpus's steps per epoch (a
    checkpoint trained on a corpus of another size), DataError naming the
    first utterance whose feature width is not the encoder's, else the
    first one shorter than a global crop. The batch, counter and length
    checks apply only if ``train.epochs`` > 0. ``cfg`` has passed
    ``config.validate``."""
    batch_size, epochs = cfg.train.batch_size, cfg.train.epochs
    if epochs > 0 and len(corpus) < batch_size:
        raise InvalidConfig(
            f"corpus of {len(corpus)} cannot fill a batch of {batch_size}")
    steps_per_epoch = len(corpus) // batch_size
    epoch = int(state["optimizer.epoch"][0])
    global_step = int(state["optimizer.global_step"][0])
    if epochs > 0 and global_step != epoch * steps_per_epoch:
        raise InvalidConfig(
            f"optimizer.global_step {global_step} is not optimizer.epoch "
            f"{epoch} times the {steps_per_epoch} steps per epoch of this "
            f"corpus ({len(corpus)} utterances, batch {batch_size})")
    feature_dim = state["student.encoder.w1"].shape[0]
    for utt in corpus:
        if utt.frames.shape[1] != feature_dim:
            raise DataError(
                f"utterance '{utt.utterance_id}' has {utt.frames.shape[1]} "
                f"features per frame; the model takes {feature_dim} "
                "(data.feature_dim)")
    len_g = cfg.crops.len_global
    short = next((u for u in corpus if u.frames.shape[0] < len_g), None)
    if epochs > 0 and short is not None:
        raise DataError(f"utterance '{short.utterance_id}' has "
                        f"{short.frames.shape[0]} frames < {len_g}")


def train(corpus, state: dict, cfg: RunConfig, *, log_path=None):
    """Run the loop under ``cfg`` (its ``train``, ``model``, ``crops``,
    ``augment`` and ``seed``) from ``state`` (see ``init_state``; a loaded
    checkpoint resumes at its ``optimizer.epoch``), updating it in place.
    Returns (state, epoch_records); each record is also written as one
    JSON line to ``log_path``, if given. Each step runs on this thread and
    one worker, with OpenBLAS held to one thread until the run ends.

    ``cfg`` has passed ``config.validate``. Raises what ``check_inputs``
    raises before the first step, DataError if ``log_path`` cannot be
    opened for writing, and DivergedLoss (carrying a copy of the state at
    the end of the last finished epoch) if a loss term or a gradient leaves
    the reals.
    """
    check_inputs(corpus, state, cfg)
    batch_size, epochs = cfg.train.batch_size, cfg.train.epochs
    steps_per_epoch = len(corpus) // batch_size
    total_steps = steps_per_epoch * epochs
    num_prototypes = state["prototypes"].shape[0]
    global_step = state["optimizer.global_step"]  # shape (1,), in place

    last_good = {k: v.copy() for k, v in state.items()}
    batch = None  # the view arrays every step overwrites
    workspace = None  # the encoder buffers every step overwrites
    records = []
    with contextlib.ExitStack() as run:
        with data_mod.os_errors("write", log_path):
            log_fh = None if not log_path else run.enter_context(
                open(log_path, "w", encoding="utf-8"))
        run.enter_context(numerics.one_blas_thread())
        # the step's second thread, joined when the run ends or raises
        pool = run.enter_context(ThreadPoolExecutor(max_workers=1))
        for epoch in range(int(state["optimizer.epoch"][0]), epochs):
            rng = np.random.default_rng([cfg.seed, epoch])
            order = rng.permutation(len(corpus))
            sums = {"loss": 0.0, "loss_ce": 0.0, "loss_re": 0.0, "loss_dr": 0.0}
            epoch_globals = []
            epoch_teacher_p = []
            last_lr = 0.0
            for step_in_epoch in range(steps_per_epoch):
                chosen = order[step_in_epoch * batch_size:
                               (step_in_epoch + 1) * batch_size]
                batch = data_mod.iter_crop_sets([corpus[i] for i in chosen],
                                                cfg.crops, rng, cfg.augment,
                                                batch)
                gv, lv = batch
                if workspace is None:
                    workspace = encoder_workspace(
                        gv, lv, state["student.encoder.w1"].shape[1])
                step = int(global_step[0])
                last_lr = lr_at(step, total_steps, cfg)
                try:
                    terms, targets, student_global = train_step(
                        state, gv, lv, cfg, last_lr, workspace, pool)
                except DivergedLoss as exc:
                    raise DivergedLoss(
                        f"{exc} at epoch {epoch} step {step_in_epoch}",
                        last_good=last_good) from None
                momentum = model.ema_momentum_at(step, total_steps,
                                                 cfg.model.ema_momentum)
                model.ema_update(state, momentum)
                cm = cfg.model.center_momentum
                state["optimizer.center"] = cm * state["optimizer.center"] + \
                    (1.0 - cm) * targets.scores.mean(axis=0)
                global_step += 1
                for key in sums:
                    sums[key] += terms[key]
                epoch_globals.append(student_global)
                epoch_teacher_p.append(targets.distributions
                                       .reshape(-1, num_prototypes))
            record = {
                "epoch": epoch,
                **{key: sums[key] / steps_per_epoch for key in sums},
                "lr": last_lr,
                **diagnostics(np.concatenate(epoch_globals),
                              np.concatenate(epoch_teacher_p)),
            }
            records.append(record)
            if log_fh is not None:
                log_fh.write(json.dumps(record) + "\n")
                log_fh.flush()
            state["optimizer.epoch"][0] = epoch + 1
            last_good = {k: v.copy() for k, v in state.items()}
    return state, records

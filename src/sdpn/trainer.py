"""Teacher-student training loop at desk scale.

A step has two halves. ``teacher_targets`` runs the teacher over the
global views (centered, sharp softmax) and returns read-only targets.
``student_objective`` holds them fixed and is the one definition of the
training objective: the student scores local views for the distillation
term and global views for the diversity and dimension-regularization
terms, and the function returns the loss terms with the gradients of every
student tensor and the shared prototypes. ``grad-check --loss composite``
checks that function against finite differences. SGD with momentum applies
the gradients; the teacher moves only through the EMA update; prototype
rows are re-normalized after every step; the teacher center follows the
batch mean of teacher prototype scores.

The training state is one dict of float64 arrays keyed by checkpoint tensor
name: the weights of ``model.init_params`` plus the ``optimizer.*`` tensors
of ``init_state`` (momentum buffers, teacher center, epoch and global-step
counters). ``train`` updates it in place, and saving it is the checkpoint.

Randomness is re-derived per epoch from (seed, epoch), which makes resuming
from an epoch checkpoint bit-identical to the uninterrupted run.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

from . import data as data_mod
from . import losses, model, numerics
from .config import RunConfig
from .errors import DataError, DivergedLoss, InvalidConfig, ShapeMismatch

REGULARIZERS = {
    "none": None,
    "off_diagonal": losses.off_diagonal_regularization,
    "frobenius": losses.frobenius_regularization,
}


def validate_config(cfg: RunConfig):
    """Reject a ``train`` section, or a teacher-center or EMA momentum,
    that the loop cannot run. Called by ``train`` itself, because CLI flag
    overrides are set on the loaded config after its sections were built."""
    t = cfg.train
    if t.epochs < 0:
        raise InvalidConfig(f"epochs must be >= 0, got {t.epochs}")
    if t.epochs > 0 and not 0 <= t.warmup_epochs < t.epochs:
        raise InvalidConfig(
            f"need 0 <= warmup_epochs < epochs, got "
            f"{t.warmup_epochs}/{t.epochs}")
    if t.batch_size < 2:
        raise InvalidConfig(f"batch_size must be >= 2, got {t.batch_size}")
    if not 0 <= t.momentum < 1:
        raise InvalidConfig(f"momentum must be in [0, 1), got {t.momentum}")
    if t.lr_peak <= 0 or t.lr_final < 0 or t.lr_final > t.lr_peak:
        raise InvalidConfig(
            f"need lr_peak > 0 and 0 <= lr_final <= lr_peak, got "
            f"{t.lr_peak}/{t.lr_final}")
    if t.mu < 0 or t.lam < 0:
        raise InvalidConfig(
            f"loss weights must be >= 0, got mu={t.mu} lam={t.lam}")
    if not 0 <= cfg.model.center_momentum < 1:
        raise InvalidConfig(
            f"center_momentum must be in [0, 1), got "
            f"{cfg.model.center_momentum}")
    if not 0 <= cfg.model.ema_momentum < 1:
        raise InvalidConfig(
            f"ema_momentum must be in [0, 1), got {cfg.model.ema_momentum}")
    if t.regularizer not in REGULARIZERS:
        raise InvalidConfig(
            f"regularizer must be one of {sorted(REGULARIZERS)}, "
            f"got '{t.regularizer}'")


def lr_at(step: int, total_steps: int, cfg: RunConfig) -> float:
    """Linear warmup to lr_peak, then cosine decay to lr_final."""
    if not 0 <= step <= total_steps:
        raise InvalidConfig(f"step {step} outside [0, {total_steps}]")
    t = cfg.train
    warmup_steps = (total_steps * t.warmup_epochs) // max(t.epochs, 1)
    if step < warmup_steps:
        return t.lr_peak * step / warmup_steps
    if total_steps == warmup_steps:
        return t.lr_peak
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


def student_objective(params, global_views, local_views,
                      targets: TeacherTargets, cfg: RunConfig,
                      workspace=None):
    """The training objective against fixed teacher ``targets``: the
    student scores the local views for the distillation term and the
    global views for the diversity and dimension-regularization terms.
    Reads the student temperature from ``cfg.model`` and the loss weights
    and regularizer from ``cfg.train``. Returns (terms, grads,
    student_global): the loss terms, the gradients of the student tensors
    (encoder, then projection) and the prototypes keyed by name, and the
    student's global projections (B·G, P).

    ``workspace`` (see ``encoder_workspace``), if given, holds the encoder
    activations: the student local pass writes the local pair and the
    global pass the global pair. Without it every pass allocates its own.
    """
    model_cfg = cfg.model
    gv = np.asarray(global_views, dtype=np.float64)
    lv = np.asarray(local_views, dtype=np.float64)
    b, l = gv.shape[0], lv.shape[1]
    protos = params["prototypes"]
    buf_g, buf_l = workspace if workspace is not None else (None, None)

    # distillation path over local views
    _, s_proj_l, caches_l = model.network_forward(
        params, "student", lv.reshape(-1, *lv.shape[2:]), buf_l)
    p_stu = model.prototype_distribution(s_proj_l, protos,
                                         model_cfg.student_temp)
    ce = losses.cross_entropy_loss(targets.distributions,
                                   p_stu.reshape(b, l, -1))
    ce_value = ce.value / b
    d_scores_l = (ce.gradient / b).reshape(p_stu.shape) \
        / model_cfg.student_temp
    g_proj_l = d_scores_l @ protos
    g_protos = d_scores_l.T @ s_proj_l

    # covariance/diversity path over global views
    _, s_proj_g, caches_g = model.network_forward(
        params, "student", gv.reshape(-1, *gv.shape[2:]), buf_g)
    # total ce + mu*re + lam*dr: mu weighs the diversity term, lam the
    # dimension regularizer, which is absent under "none"
    mu, lam = cfg.train.mu, cfg.train.lam
    re = losses.diversity_regularization(s_proj_g)
    kind = REGULARIZERS[cfg.train.regularizer]
    dr = None if kind is None else kind(targets.projections, s_proj_g)
    dr_value = 0.0 if dr is None else dr.value
    g_proj_g = mu * re.gradient
    if dr is not None:
        g_proj_g += lam * dr.gradient

    grads = model.network_backward(params, "student", caches_l, g_proj_l)
    for key, val in model.network_backward(params, "student", caches_g,
                                           g_proj_g).items():
        grads[key] += val
    grads["prototypes"] = g_protos

    terms = {
        "loss_ce": ce_value,
        "loss_re": re.value,
        "loss_dr": dr_value,
        "loss": ce_value + mu * re.value + lam * dr_value,
    }
    return terms, grads, s_proj_g


def train_step(state: dict, global_views, local_views, cfg: RunConfig,
               lr: float, workspace=None):
    """One SGD+momentum update of the student and prototypes in ``state``,
    with ``workspace`` as in ``student_objective``. The teacher is
    untouched here; the loop moves it via ema_update afterwards. Returns
    (terms, targets, student_global) as ``teacher_targets`` and
    ``student_objective`` gave them.

    Raises DivergedLoss, naming the first non-finite loss term or else
    gradient (encoder, projection, prototypes), before anything is updated.
    """
    targets = teacher_targets(state, global_views, state["optimizer.center"],
                              cfg, None if workspace is None else workspace[0])
    terms, grads, student_global = student_objective(
        state, global_views, local_views, targets, cfg, workspace)
    for key in ("loss_ce", "loss_re", "loss_dr", "loss"):
        if not math.isfinite(terms[key]):
            raise DivergedLoss(f"non-finite {key} {terms[key]}")
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


def train(corpus, state: dict, cfg: RunConfig, *, log_path=None):
    """Run the loop under ``cfg`` (its ``train``, ``model``, ``crops``,
    ``augment`` and ``seed``) from ``state`` (see ``init_state``; a loaded
    checkpoint resumes at its ``optimizer.epoch``), updating it in place.
    Returns (state, epoch_records); each record is also written as one
    JSON line to ``log_path``, if given.

    Raises InvalidConfig before the first step if ``validate_config``
    rejects ``cfg``, ShapeMismatch if an utterance's feature width is not
    the encoder's input width, DataError if ``log_path`` cannot be opened
    for writing, and DivergedLoss (carrying a copy of the state at the end
    of the last finished epoch) if a loss term or a gradient leaves the
    reals.
    """
    validate_config(cfg)
    batch_size, epochs = cfg.train.batch_size, cfg.train.epochs
    steps_per_epoch = len(corpus) // batch_size
    if epochs > 0 and steps_per_epoch < 1:
        raise InvalidConfig(
            f"corpus of {len(corpus)} cannot fill a batch of {batch_size}")
    feature_dim = state["student.encoder.w1"].shape[0]
    for utt in corpus:
        if utt.frames.shape[1] != feature_dim:
            raise ShapeMismatch(
                f"utterance '{utt.utterance_id}' has {utt.frames.shape[1]} "
                f"features per frame; the model takes {feature_dim} "
                "(data.feature_dim)")
    total_steps = steps_per_epoch * epochs
    num_prototypes = state["prototypes"].shape[0]
    global_step = state["optimizer.global_step"]  # shape (1,), in place

    last_good = {k: v.copy() for k, v in state.items()}
    batch = None  # the view arrays every step overwrites
    workspace = None  # the encoder buffers every step overwrites
    records = []
    try:
        log_fh = open(log_path, "w", encoding="utf-8") if log_path else None
    except OSError as exc:
        raise DataError(
            f"cannot write {log_path}: {exc.strerror or exc}") from None
    try:
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
                        state, gv, lv, cfg, last_lr, workspace)
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
                "loss": sums["loss"] / steps_per_epoch,
                "loss_ce": sums["loss_ce"] / steps_per_epoch,
                "loss_re": sums["loss_re"] / steps_per_epoch,
                "loss_dr": sums["loss_dr"] / steps_per_epoch,
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
    finally:
        if log_fh is not None:
            log_fh.close()
    return state, records

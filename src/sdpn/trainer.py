"""Teacher-student training loop at desk scale.

Per step: the teacher scores global views (centered, sharp softmax), the
student scores local views for the distillation term and global views for
the diversity and dimension-regularization terms; SGD with momentum updates
the student and the shared prototypes; the teacher moves only through the
EMA update; prototype rows are re-normalized after every step; the teacher
center follows the batch mean of teacher prototype scores.

Randomness is re-derived per epoch from (seed, epoch), which makes resuming
from an epoch checkpoint bit-identical to the uninterrupted run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from . import losses, model, numerics
from .config import RunConfig
from .errors import DivergedLoss, InvalidConfig

REGULARIZERS = {
    "none": None,
    "off_diagonal": losses.off_diagonal_regularization,
    "frobenius": losses.frobenius_regularization,
}


def validate_config(cfg: RunConfig):
    """Reject a ``train`` section the loop cannot run. Called by ``train``
    itself, because CLI flag overrides are set on the loaded config after
    its sections were built."""
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


@dataclass(frozen=True)
class CollapseDiagnostics:
    mean_abs_offdiag: float
    embedding_std: float
    prototype_usage_entropy: float


def diagnostics(student_global_embeddings, teacher_distributions
                ) -> CollapseDiagnostics:
    """Collapse indicators: mean |off-diagonal| of the student covariance,
    mean per-dimension embedding spread, and the entropy of the average
    teacher distribution (0 = one prototype eats everything)."""
    z = np.asarray(student_global_embeddings, dtype=np.float64)
    c = numerics.normalized_covariance(z)
    d = c.shape[0]
    mean_abs = float((np.abs(c).sum() - np.trace(np.abs(c))) / (d * (d - 1)))
    emb_std = float(z.std(axis=0).mean())
    p = np.atleast_2d(np.asarray(teacher_distributions, dtype=np.float64))
    p_mean = p.reshape(-1, p.shape[-1]).mean(axis=0)
    entropy = float(-(p_mean * np.log(np.maximum(p_mean, losses.PROB_FLOOR))).sum())
    return CollapseDiagnostics(mean_abs, emb_std, entropy)


@dataclass
class TrainerState:
    velocities: dict
    center: np.ndarray
    epoch: int = 0
    global_step: int = 0

    def copy(self) -> "TrainerState":
        return TrainerState({k: v.copy() for k, v in self.velocities.items()},
                            self.center.copy(), self.epoch, self.global_step)


def _student_param_arrays(pair: model.TeacherStudentPair) -> dict:
    arrays = dict(pair.student.named_arrays("student"))
    arrays["prototypes"] = pair.prototypes
    return arrays


def init_state(pair: model.TeacherStudentPair) -> TrainerState:
    velocities = {name: np.zeros_like(arr)
                  for name, arr in _student_param_arrays(pair).items()}
    center = np.zeros(pair.prototypes.shape[0])
    return TrainerState(velocities, center)


def batch_loss_and_grads(pair: model.TeacherStudentPair, global_views,
                         local_views, cfg: RunConfig, center):
    """Multi-view forward and backward of one batch: the teacher sees the
    global views only, the student the local views (distillation) and the
    global views (diversity, covariance). Reads the temperatures from
    ``cfg.model`` and the loss weights and regularizer from ``cfg.train``.
    Returns (terms, grads, aux), grads keyed like _student_param_arrays;
    aux's teacher outputs are read-only.
    """
    model_cfg = cfg.model
    gv = np.asarray(global_views, dtype=np.float64)
    lv = np.asarray(local_views, dtype=np.float64)
    b, g = gv.shape[:2]
    l = lv.shape[1]
    protos = pair.prototypes

    # teacher path: constants as far as gradients are concerned
    _, t_proj, _ = model.network_forward(pair.teacher,
                                         gv.reshape(-1, *gv.shape[2:]))
    t_scores = model.prototype_scores(t_proj, protos)
    p_tea = numerics.softmax(t_scores - center, model_cfg.teacher_temp)
    for arr in (t_proj, p_tea):
        arr.flags.writeable = False

    # student distillation path over local views
    _, s_proj_l, caches_l = model.network_forward(
        pair.student, lv.reshape(-1, *lv.shape[2:]))
    p_stu = model.prototype_distribution(s_proj_l, protos,
                                         model_cfg.student_temp)

    ce_value = 0.0
    d_logits = np.empty_like(p_stu)
    p_tea_b = p_tea.reshape(b, g, -1)
    p_stu_b = p_stu.reshape(b, l, -1)
    for i in range(b):
        ce = losses.cross_entropy_loss(p_tea_b[i], p_stu_b[i])
        ce_value += ce.value / b
        d_logits[i * l:(i + 1) * l] = ce.gradient / b
    d_scores_l = d_logits / model_cfg.student_temp
    g_proj_l = d_scores_l @ protos
    g_protos = d_scores_l.T @ s_proj_l

    # student covariance/diversity path over global views
    _, s_proj_g, caches_g = model.network_forward(
        pair.student, gv.reshape(-1, *gv.shape[2:]))
    re = losses.diversity_regularization(s_proj_g)
    kind = REGULARIZERS[cfg.train.regularizer]
    dr = None if kind is None else kind(t_proj, s_proj_g)
    total = losses.sdpn_objective(ce_value, re, dr, cfg.train.mu,
                                  cfg.train.lam)

    grads = {f"student.{k}": v for k, v in
             model.network_backward(pair.student, caches_l, g_proj_l).items()}
    for key, val in model.network_backward(pair.student, caches_g,
                                           total.gradient).items():
        grads[f"student.{key}"] += val
    grads["prototypes"] = g_protos

    terms = {
        "loss_ce": ce_value,
        "loss_re": re.value,
        "loss_dr": 0.0 if dr is None else dr.value,
        "loss": total.value,
    }
    aux = {
        "teacher_scores": t_scores,
        "teacher_distributions": p_tea_b,
        "student_global": s_proj_g,
        "teacher_global": t_proj,
    }
    return terms, grads, aux


def train_step(pair: model.TeacherStudentPair, global_views, local_views,
               cfg: RunConfig, state: TrainerState, lr: float):
    """One SGD+momentum update of the student and prototypes. The teacher is
    untouched here; the loop moves it via ema_update afterwards."""
    terms, grads, aux = batch_loss_and_grads(pair, global_views, local_views,
                                             cfg, state.center)
    params = _student_param_arrays(pair)
    for name, arr in params.items():
        vel = state.velocities[name]
        vel *= cfg.train.momentum
        vel += grads[name]
        arr -= lr * vel
    model.normalize_prototypes(pair.prototypes)
    return terms, aux


def _assemble_batch(crop_sets):
    gv = np.stack([np.stack(cs.global_views) for cs in crop_sets])
    lv = np.stack([np.stack(cs.local_views) for cs in crop_sets])
    return gv, lv


def train(corpus, pair: model.TeacherStudentPair, cfg: RunConfig, *,
          resume: TrainerState | None = None, on_step=None, log_path=None):
    """Run the loop under ``cfg`` (its ``train``, ``model``, ``crops``,
    ``augment`` and ``seed``); returns (pair, epoch_records, state).

    ``on_step`` (if given) receives a dict per step with the raw batch, the
    loss terms, and the projected globals — the verification suite uses it to
    recompute losses independently. Raises InvalidConfig before the first
    step if ``validate_config`` rejects ``cfg``, and DivergedLoss (carrying
    the last finite state) if the loss leaves the reals.
    """
    validate_config(cfg)
    batch_size, epochs = cfg.train.batch_size, cfg.train.epochs
    steps_per_epoch = len(corpus) // batch_size
    if epochs > 0 and steps_per_epoch < 1:
        raise InvalidConfig(
            f"corpus of {len(corpus)} cannot fill a batch of {batch_size}")
    total_steps = steps_per_epoch * epochs

    state = resume.copy() if resume is not None else init_state(pair)
    last_good = (pair.copy(), state.copy())
    records = []
    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None
    try:
        for epoch in range(state.epoch, epochs):
            rng = np.random.default_rng([cfg.seed, epoch])
            order = rng.permutation(len(corpus))
            sums = {"loss": 0.0, "loss_ce": 0.0, "loss_re": 0.0, "loss_dr": 0.0}
            epoch_globals = []
            epoch_teacher_p = []
            last_lr = 0.0
            for step_in_epoch in range(steps_per_epoch):
                chosen = order[step_in_epoch * batch_size:
                               (step_in_epoch + 1) * batch_size]
                crop_sets = list(data_mod.iter_crop_sets(
                    [corpus[i] for i in chosen], cfg.crops, rng, cfg.augment))
                gv, lv = _assemble_batch(crop_sets)
                last_lr = lr_at(state.global_step, total_steps, cfg)
                terms, aux = train_step(pair, gv, lv, cfg, state, last_lr)
                for key in ("loss_ce", "loss_re", "loss_dr", "loss"):
                    if not math.isfinite(terms[key]):
                        raise DivergedLoss(
                            f"non-finite {key} {terms[key]} at epoch {epoch} "
                            f"step {step_in_epoch}", last_good=last_good)
                momentum = model.ema_momentum_at(state.global_step, total_steps,
                                                 cfg.model.ema_momentum)
                model.ema_update(pair, momentum)
                cm = cfg.model.center_momentum
                state.center = cm * state.center + \
                    (1.0 - cm) * aux["teacher_scores"].mean(axis=0)
                state.global_step += 1
                for key in sums:
                    sums[key] += terms[key]
                epoch_globals.append(aux["student_global"])
                epoch_teacher_p.append(aux["teacher_distributions"]
                                       .reshape(-1, pair.prototypes.shape[0]))
                if on_step is not None:
                    on_step({"epoch": epoch, "step": step_in_epoch,
                             "global_step": state.global_step - 1,
                             "lr": last_lr, "terms": terms,
                             "global_views": gv, "local_views": lv,
                             "aux": aux})
            diag = diagnostics(np.concatenate(epoch_globals),
                               np.concatenate(epoch_teacher_p))
            record = {
                "epoch": epoch,
                "loss": sums["loss"] / steps_per_epoch,
                "loss_ce": sums["loss_ce"] / steps_per_epoch,
                "loss_re": sums["loss_re"] / steps_per_epoch,
                "loss_dr": sums["loss_dr"] / steps_per_epoch,
                "lr": last_lr,
                "mean_abs_offdiag": diag.mean_abs_offdiag,
                "embedding_std": diag.embedding_std,
                "prototype_usage_entropy": diag.prototype_usage_entropy,
            }
            records.append(record)
            if log_fh is not None:
                log_fh.write(json.dumps(record) + "\n")
                log_fh.flush()
            state.epoch = epoch + 1
            last_good = (pair.copy(), state.copy())
    finally:
        if log_fh is not None:
            log_fh.close()
    return pair, records, state


# ----------------------------------------------------------------------
# checkpoint plumbing shared by the CLI and tests


def state_tensors(pair: model.TeacherStudentPair, state: TrainerState) -> dict:
    tensors = model.pair_tensors(pair)
    for name, vel in state.velocities.items():
        tensors[f"optimizer.velocity.{name}"] = vel
    tensors["optimizer.center"] = state.center
    tensors["optimizer.epoch"] = np.array(float(state.epoch))
    tensors["optimizer.global_step"] = np.array(float(state.global_step))
    return tensors


def state_from_tensors(tensors: dict, pair: model.TeacherStudentPair
                       ) -> TrainerState:
    velocities = {}
    for name in _student_param_arrays(pair):
        key = f"optimizer.velocity.{name}"
        velocities[name] = tensors[key].copy() if key in tensors \
            else np.zeros_like(_student_param_arrays(pair)[name])
    center = tensors.get("optimizer.center",
                         np.zeros(pair.prototypes.shape[0])).copy()
    # scalars come back from checkpoints as shape-(1,) arrays
    epoch = int(np.ravel(tensors.get("optimizer.epoch", 0.0))[0])
    global_step = int(np.ravel(tensors.get("optimizer.global_step", 0.0))[0])
    return TrainerState(velocities, center, epoch, global_step)

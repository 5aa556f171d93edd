"""Training loop: schedule, descent, determinism, resume, divergence."""

import json
import math
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from sdpn import data, losses, model, numerics, trainer
from sdpn.config import (CropConfig, MaskConfig, ModelConfig, RunConfig,
                         TrainSection, validate)
from sdpn.errors import DataError, DivergedLoss, InvalidConfig

FEATURE_DIM = 6
DIMS = dict(encoder_hidden=8, embed_dim=8, proj_hidden=10, proj_dim=4,
            num_prototypes=6)


def train_run_config(seed=1234, **train_kw):
    """The run config of the tiny world: small crops, no masking, and the
    ``train`` section built from ``train_kw``."""
    return RunConfig(
        seed=seed,
        crops=CropConfig(num_global=1, num_local=2, len_global=24,
                         len_local=10),
        augment=MaskConfig(enabled=False),
        model=ModelConfig(ema_momentum=0.98, **DIMS),
        train=TrainSection(**train_kw))


def tiny_world(seed=21, epochs=4, batch_size=4, **train_kw):
    corpus = data.generate_synthetic_corpus(4, 4, 40, FEATURE_DIM, 0.5, seed)
    kw = dict(epochs=epochs, batch_size=batch_size, lr_peak=0.08,
              lr_final=0.0, warmup_epochs=1)
    kw.update(train_kw)
    cfg = train_run_config(seed, **kw)
    params = model.init_params(np.random.default_rng(seed),
                               feature_dim=FEATURE_DIM, **DIMS)
    return corpus, trainer.init_state(params), cfg


def copy_state(state):
    return {name: arr.copy() for name, arr in state.items()}


def assert_states_equal(got, want):
    assert list(got) == list(want)
    for name, arr in want.items():
        npt.assert_array_equal(got[name], arr, err_msg=name)


def tiny_batch(corpus, crops, seed=3):
    return data.iter_crop_sets(corpus[:4], crops, np.random.default_rng(seed),
                               MaskConfig(enabled=False))


def record_steps(monkeypatch):
    """Wrap ``trainer.train_step`` so that each step the loop runs appends
    a dict of its global step, learning rate, loss terms, teacher
    ``targets`` and ``student_global`` projections to the returned list."""
    real, seen = trainer.train_step, []

    def recorded(state, global_views, local_views, cfg, lr, *rest):
        step = int(state["optimizer.global_step"][0])
        terms, targets, student_global = real(
            state, global_views, local_views, cfg, lr, *rest)
        seen.append({"global_step": step, "lr": lr, "terms": terms,
                     "targets": targets, "student_global": student_global})
        return terms, targets, student_global

    monkeypatch.setattr(trainer, "train_step", recorded)
    return seen


@pytest.mark.parametrize("masked", [True, False])
def test_assembled_batch_is_byte_identical_to_stacked_crop_sets(masked):
    corpus = data.generate_synthetic_corpus(4, 4, 40, FEATURE_DIM, 0.5, 22)
    crops = CropConfig(num_global=2, num_local=3, len_global=24,
                       len_local=10)
    mask = MaskConfig(enabled=masked, num_time_masks=2, num_freq_masks=1,
                      max_width=3)
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    batch = None
    for step in range(2):  # the second step overwrites the first's arrays
        utts = corpus[4 * step:4 * step + 4]
        batch = data.iter_crop_sets(utts, crops, rng, mask, batch)
        want = oracles.stacked_crop_batch(utts, crops, ref_rng, mask)
        for got, ref in zip(batch, want):
            assert got.dtype == np.float64
            assert got.tobytes() == ref.tobytes()
    assert rng.integers(1 << 62) == ref_rng.integers(1 << 62)


@pytest.mark.parametrize("masked", [True, False])
def test_unequal_lengths_batch_is_byte_identical_to_stacked_crop_sets(
        masked):
    # each utterance's starts are bounded by its own length
    rng = np.random.default_rng(23)
    corpus = [data.Utterance(f"u{t}", None,
                             rng.standard_normal((t, FEATURE_DIM)))
              for t in (24, 61, 25, 40, 33)]
    crops = CropConfig(num_global=2, num_local=3, len_global=24,
                       len_local=10)
    mask = MaskConfig(enabled=masked, num_time_masks=1, num_freq_masks=2,
                      max_width=4)
    rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
    got = data.iter_crop_sets(corpus, crops, rng, mask)
    want = oracles.stacked_crop_batch(corpus, crops, ref_rng, mask)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    if not masked:  # a 24-frame utterance has one global crop: itself
        npt.assert_array_equal(got[0][0, 0], corpus[0].frames)
    assert rng.integers(1 << 62) == ref_rng.integers(1 << 62)


def test_training_step_after_the_first_allocates_no_activation_array(
        monkeypatch):
    # numpy reports its buffers to tracemalloc; a step that allocated its
    # encoder activations would peak at two (B·L, Tl, H) arrays or more
    hidden, b, l, len_l = 48, 8, 4, 30
    corpus = data.generate_synthetic_corpus(4, 4, 80, FEATURE_DIM, 0.5, 31)
    cfg = RunConfig(
        seed=31,
        crops=CropConfig(num_global=1, num_local=l, len_global=60,
                         len_local=len_l),
        augment=MaskConfig(enabled=True, max_width=3),
        model=ModelConfig(**dict(DIMS, encoder_hidden=hidden)),
        train=TrainSection(epochs=2, batch_size=b, warmup_epochs=0))
    params = model.init_params(np.random.default_rng(31),
                               feature_dim=FEATURE_DIM,
                               **dict(DIMS, encoder_hidden=hidden))
    real, base, peaks = trainer.train_step, [0], []

    def measured(state, *args):
        step = int(state["optimizer.global_step"][0])
        out = real(state, *args)
        if step > 0:  # the peak since the previous step returned
            peaks.append(tracemalloc.get_traced_memory()[1] - base[0])
        base[0] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return out

    monkeypatch.setattr(trainer, "train_step", measured)
    tracemalloc.start()
    try:
        trainer.train(corpus, trainer.init_state(params), cfg)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 3
    assert max(peaks) < 8 * b * l * len_l * hidden


# ----------------------------------------------------------------------
# learning-rate schedule


def test_lr_warmup_peak_and_floor():
    cfg = train_run_config(epochs=10, warmup_epochs=2, lr_peak=0.1,
                           lr_final=0.01)
    total = 100  # 10 steps/epoch -> warmup ends at step 20
    assert trainer.lr_at(0, total, cfg) == 0.0
    assert trainer.lr_at(10, total, cfg) == pytest.approx(0.05)
    assert trainer.lr_at(20, total, cfg) == pytest.approx(0.1)
    assert trainer.lr_at(total, total, cfg) == pytest.approx(0.01)
    values = [trainer.lr_at(s, total, cfg) for s in range(total + 1)]
    assert max(values) == pytest.approx(0.1)
    tail = values[20:]
    assert all(a >= b - 1e-15 for a, b in zip(tail, tail[1:]))


def test_lr_halfway_down_the_cosine():
    cfg = train_run_config(epochs=10, warmup_epochs=0, lr_peak=0.1,
                           lr_final=0.0)
    assert trainer.lr_at(50, 100, cfg) == pytest.approx(0.05)


def test_lr_flat_when_final_equals_peak():
    cfg = train_run_config(epochs=5, warmup_epochs=0, lr_peak=0.12,
                           lr_final=0.12)
    for total in (1, 7, 40):
        for step in range(total + 1):
            assert trainer.lr_at(step, total, cfg) == 0.12


def test_lr_rejects_out_of_range_step():
    cfg = train_run_config(epochs=2, warmup_epochs=0)
    with pytest.raises(InvalidConfig):
        trainer.lr_at(-1, 10, cfg)
    with pytest.raises(InvalidConfig):
        trainer.lr_at(11, 10, cfg)


WEIGHTS_AT_ZERO = dict(mu=0.0, lam=0.0)  # the boundary is allowed


@pytest.mark.parametrize("bad", [
    dict(epochs=-1),
    dict(epochs=5, warmup_epochs=5),
    dict(batch_size=1),
    dict(momentum=1.0),
    dict(lr_peak=0.0),
    dict(lr_final=0.2),  # above the peak
    dict(regularizer="ridge"),
    dict(mu=-0.1),
    dict(lam=-1.0),
    WEIGHTS_AT_ZERO,
    dict(center_momentum=1.0),
    dict(center_momentum=-0.5),
    dict(ema_momentum=1.0),  # rejected before step 0 updates anything
    dict(ema_momentum=-0.1),
])
def test_train_config_validation(bad):
    # config.validate owns every rule, the regularizer name included
    model_keys = {"center_momentum", "ema_momentum"}
    train_kw = {k: v for k, v in bad.items() if k not in model_keys}
    corpus, state, cfg = tiny_world(**train_kw)
    for key in model_keys & bad.keys():
        setattr(cfg.model, key, bad[key])
    if bad is WEIGHTS_AT_ZERO:
        validate(cfg)
        trainer.train(corpus, state, cfg)
        return
    key = list(bad)[-1]  # the field the case gets wrong
    section = "model" if key in model_keys else "train"
    with pytest.raises(InvalidConfig, match=f"{section}.{key} "):
        validate(cfg)


def test_check_inputs_names_first_utterance_shorter_than_global_crop():
    # checked over the whole corpus before step 0, whichever utterances
    # the first epoch draws
    corpus, state, cfg = tiny_world()
    for i in (5, 2):
        corpus[i].frames = corpus[i].frames[:cfg.crops.len_global - 1]
    with pytest.raises(DataError,
                       match="^utterance 'utt00002' has 23 frames < 24$"):
        trainer.check_inputs(corpus, state, cfg)
    cfg.train.epochs = 0  # no epoch crops anything
    trainer.check_inputs(corpus, state, cfg)


# ----------------------------------------------------------------------
# the loop itself

RECORD_KEYS = {"epoch", "loss", "loss_ce", "loss_re", "loss_dr", "lr",
               "mean_abs_offdiag", "embedding_std",
               "prototype_usage_entropy"}


def test_loss_falls_and_records_are_sane():
    corpus, state, cfg = tiny_world(epochs=6)
    state, records = trainer.train(corpus, state, cfg)
    assert len(records) == 6
    assert records[-1]["loss"] < records[0]["loss"]
    for r in records:
        assert set(r) == RECORD_KEYS
        assert 0.0 <= r["lr"] <= cfg.train.lr_peak
        assert r["mean_abs_offdiag"] >= 0.0
        assert 0.0 <= r["prototype_usage_entropy"] <= math.log(
            cfg.model.num_prototypes) + 1e-12
    npt.assert_allclose(np.linalg.norm(state["prototypes"], axis=1), 1.0,
                        atol=1e-12)
    assert state["optimizer.epoch"].tolist() == [6.0]
    assert state["optimizer.global_step"].tolist() \
        == [6 * (len(corpus) // cfg.train.batch_size)]


def test_zero_lr_step_changes_nothing():
    corpus, state, cfg = tiny_world()
    gv, lv = tiny_batch(corpus, cfg.crops)
    before = copy_state(state)
    workspace = trainer.encoder_workspace(gv, lv, DIMS["encoder_hidden"])
    with ThreadPoolExecutor(max_workers=1) as pool:
        trainer.train_step(state, gv, lv, cfg, 0.0, workspace, pool)
    for name in (n for n in state if not n.startswith("optimizer.")):
        if name == "prototypes":
            npt.assert_allclose(state[name], before[name], rtol=0, atol=1e-14)
        else:
            npt.assert_array_equal(state[name], before[name])


def test_zero_epochs_is_a_noop():
    corpus, state, cfg = tiny_world(epochs=0, warmup_epochs=0)
    before = copy_state(state)
    state, records = trainer.train(corpus, state, cfg)
    assert records == []
    assert_states_equal(state, before)


def test_corpus_smaller_than_batch_rejected():
    corpus, state, cfg = tiny_world(batch_size=32)
    with pytest.raises(InvalidConfig):
        trainer.train(corpus, state, cfg)


def test_two_runs_are_bit_identical(tmp_path):
    blobs = []
    for run in range(2):
        corpus, state, cfg = tiny_world(epochs=3)
        state, _ = trainer.train(corpus, state, cfg)
        path = tmp_path / f"run{run}.sdck"
        model.save_checkpoint(path, state, "fp")
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_resume_replays_the_uninterrupted_run(tmp_path, monkeypatch):
    # reference: a clean 5-epoch run
    corpus, state_a, cfg = tiny_world(epochs=5)
    state_a, records_a = trainer.train(corpus, state_a, cfg)

    # doomed twin: poison a student weight right after epoch 2 begins, so
    # the next step goes non-finite and training aborts with the end-of-
    # epoch-1 snapshot as last_good
    corpus, state_b, cfg = tiny_world(epochs=5)
    real, calls = trainer.train_step, []

    def poisoned(state, *args):
        calls.append(None)
        if len(calls) == 10:  # epoch 2 step 1: four steps per epoch
            state["student.encoder.w1"].flat[0] = np.nan
        return real(state, *args)

    monkeypatch.setattr(trainer, "train_step", poisoned)
    with pytest.raises(DivergedLoss) as exc_info:
        trainer.train(corpus, state_b, cfg)
    monkeypatch.undo()
    # the student forward goes NaN, and the cross-entropy is the first term
    assert str(exc_info.value).startswith("non-finite loss_ce nan ")
    good = exc_info.value.last_good
    assert good["optimizer.epoch"].tolist() == [2.0]
    assert all(np.isfinite(arr).all() for arr in good.values())

    # persist, reload (in the checkpoint's sorted key order), resume under
    # the same config
    path = tmp_path / "lastgood.sdck"
    model.save_checkpoint(path, good, "fp")
    state_c, _ = model.load_checkpoint(path)
    state_c, records_c = trainer.train(corpus, state_c, cfg)

    assert [r["epoch"] for r in records_c] == [2, 3, 4]
    assert records_c == records_a[2:]
    assert sorted(state_c) == sorted(state_a)
    for name in state_a:
        npt.assert_array_equal(state_c[name], state_a[name], err_msg=name)


def test_non_finite_gradient_names_its_group(monkeypatch):
    corpus, state, cfg = tiny_world(epochs=3)
    real = trainer.student_objective
    calls = []

    def poisoned(*args, **kwargs):
        terms, grads, student_global = real(*args, **kwargs)
        calls.append(None)
        if len(calls) == 5:  # epoch 1 step 0: four steps per epoch
            grads["student.encoder.w1"].flat[0] = np.nan
        return terms, grads, student_global

    monkeypatch.setattr(trainer, "student_objective", poisoned)
    with pytest.raises(DivergedLoss) as exc_info:
        trainer.train(corpus, state, cfg)
    assert str(exc_info.value) \
        == "non-finite gradient student.encoder.w1 at epoch 1 step 0"
    good = exc_info.value.last_good
    assert good["optimizer.epoch"].tolist() == [1.0]
    # the NaN was never applied: the state is still the end-of-epoch-0 one
    assert_states_equal(state, good)
    assert all(np.isfinite(arr).all() for arr in state.values())


def test_step_terms_are_recomputable(monkeypatch):
    corpus, state, cfg = tiny_world(epochs=1, warmup_epochs=0)
    seen = record_steps(monkeypatch)
    trainer.train(corpus, state, cfg)
    assert len(seen) == len(corpus) // cfg.train.batch_size
    total = len(seen) * cfg.train.epochs
    for rec in seen:
        student_global, terms = rec["student_global"], rec["terms"]
        re = losses.diversity_regularization(student_global)
        dr = losses.frobenius_regularization(
            rec["targets"].projections, student_global)
        assert terms["loss_re"] == pytest.approx(re.value, rel=1e-12)
        assert terms["loss_dr"] == pytest.approx(dr.value, rel=1e-12)
        assert terms["loss"] == pytest.approx(
            terms["loss_ce"] + cfg.train.mu * re.value
            + cfg.train.lam * dr.value, rel=1e-12)
        assert rec["lr"] == trainer.lr_at(rec["global_step"], total, cfg)


def test_center_is_ema_of_teacher_score_means(monkeypatch):
    corpus, state, cfg = tiny_world(epochs=2)
    seen = record_steps(monkeypatch)
    state, _ = trainer.train(corpus, state, cfg)
    mc = cfg.model
    expect = np.zeros(mc.num_prototypes)
    for m in (rec["targets"].scores.mean(axis=0) for rec in seen):
        expect = mc.center_momentum * expect + (1 - mc.center_momentum) * m
    npt.assert_allclose(state["optimizer.center"], expect, atol=1e-15)


def test_log_file_mirrors_records(tmp_path):
    corpus, state, cfg = tiny_world(epochs=3)
    log = tmp_path / "metrics.jsonl"
    _, records = trainer.train(corpus, state, cfg, log_path=log)
    lines = log.read_text().splitlines()
    assert [json.loads(line) for line in lines] == records


def test_unwritable_log_is_refused_before_the_first_step(tmp_path):
    corpus, state, cfg = tiny_world()
    before = copy_state(state)
    with pytest.raises(DataError) as exc_info:
        trainer.train(corpus, state, cfg, log_path=tmp_path)  # a directory
    assert str(exc_info.value).startswith(f"cannot write {tmp_path}: ")
    assert_states_equal(state, before)


def test_state_tensor_roundtrip(tmp_path):
    corpus, state, cfg = tiny_world(epochs=2)
    state, _ = trainer.train(corpus, state, cfg)
    path = tmp_path / "state.sdck"
    model.save_checkpoint(path, state, "fp")
    back, _ = model.load_checkpoint(path)
    assert sorted(back) == sorted(state)
    for name, arr in state.items():  # counters stay shape (1,)
        assert back[name].shape == arr.shape, name
        npt.assert_array_equal(back[name], arr, err_msg=name)
    assert back["optimizer.epoch"].tolist() == [2.0]


# ----------------------------------------------------------------------
# the step's two threads

PARTS = ("teacher", "local", "global")  # the order of a serial step


class PartFailed(Exception):
    pass


def part_of(prefix, frames, cfg):
    """Which part of a step a ``model.network_forward`` call belongs to."""
    if prefix == "teacher":
        return "teacher"
    return "local" if frames.shape[1] == cfg.crops.len_local else "global"


def fail_parts(monkeypatch, cfg, failing, delay):
    """Make the forward of each part in ``failing`` raise PartFailed naming
    it; a part before the last failing one in ``PARTS`` sleeps ``delay``
    first, so later parts raise earlier in time."""
    real = model.network_forward
    last = max(PARTS.index(p) for p in failing)

    def forward(params, prefix, frames, out=None):
        part = part_of(prefix, frames, cfg)
        if part in failing:
            if PARTS.index(part) < last:
                time.sleep(delay)
            raise PartFailed(part)
        return real(params, prefix, frames, out)

    monkeypatch.setattr(model, "network_forward", forward)


@pytest.mark.parametrize("delay", [0.0, 0.02])
@pytest.mark.parametrize("failing", [
    ("teacher",), ("local",), ("global",), ("teacher", "local"),
    ("teacher", "global"), ("local", "global"), PARTS], ids="+".join)
def test_a_failing_step_raises_what_a_serial_step_raises_first(
        monkeypatch, failing, delay):
    corpus, state, cfg = tiny_world(epochs=1)
    before, threads = copy_state(state), set(threading.enumerate())
    fail_parts(monkeypatch, cfg, failing, delay)
    with pytest.raises(PartFailed) as exc_info:
        trainer.train(corpus, state, cfg)
    assert exc_info.value.args == (failing[0],)
    assert_states_equal(state, before)
    assert set(threading.enumerate()) <= threads


def test_a_failing_step_returns_only_after_its_worker(monkeypatch):
    # the caller's local path fails at once while the worker still runs
    # the teacher and the student's global path into the workspace
    corpus, state, cfg = tiny_world()
    gv, lv = tiny_batch(corpus, cfg.crops)
    workspace = trainer.encoder_workspace(gv, lv, DIMS["encoder_hidden"])
    real, done = model.network_forward, []

    def forward(params, prefix, frames, out=None):
        part = part_of(prefix, frames, cfg)
        if part == "local":
            raise PartFailed(part)
        time.sleep(0.02)
        result = real(params, prefix, frames, out)
        done.append(part)
        return result

    monkeypatch.setattr(model, "network_forward", forward)
    with ThreadPoolExecutor(max_workers=1) as pool:
        with pytest.raises(PartFailed):
            trainer.train_step(state, gv, lv, cfg, 0.1, workspace, pool)
        assert done == ["teacher", "global"]


def test_a_step_on_two_threads_matches_the_step_on_one():
    # the objective on this thread alone, with its own buffers, against
    # the objective split over a worker and this thread into a workspace
    corpus, state, cfg = tiny_world()
    gv, lv = tiny_batch(corpus, cfg.crops)
    targets = trainer.teacher_targets(state, gv, state["optimizer.center"],
                                      cfg)
    inline = trainer.student_objective(state, gv, lv, targets, cfg)
    workspace = trainer.encoder_workspace(gv, lv, DIMS["encoder_hidden"])
    with ThreadPoolExecutor(max_workers=1) as pool:
        threaded = trainer.student_objective(state, gv, lv, targets, cfg,
                                             workspace, pool)
    assert inline[0] == threaded[0]
    assert list(inline[1]) == list(threaded[1])
    for name, grad in inline[1].items():
        assert grad.tobytes() == threaded[1][name].tobytes(), name
    assert inline[2].tobytes() == threaded[2].tobytes()


@pytest.mark.parametrize("slow", ["worker", "caller"])
def test_a_slowed_thread_changes_no_byte(tmp_path, monkeypatch, slow):
    # the results do not depend on which half of a step finishes first
    runs = []
    for slowed in (False, True):
        corpus, state, cfg = tiny_world(epochs=2)
        if slowed and slow == "worker":
            real_teacher = trainer.teacher_targets

            def teacher(*args):
                time.sleep(0.005)
                return real_teacher(*args)

            monkeypatch.setattr(trainer, "teacher_targets", teacher)
        elif slowed:
            real_forward = model.network_forward

            def forward(params, prefix, frames, out=None):
                if part_of(prefix, frames, cfg) == "local":
                    time.sleep(0.005)
                return real_forward(params, prefix, frames, out)

            monkeypatch.setattr(model, "network_forward", forward)
        log = tmp_path / f"metrics{slowed}.jsonl"
        state, _ = trainer.train(corpus, state, cfg, log_path=log)
        ckpt = tmp_path / f"state{slowed}.sdck"
        model.save_checkpoint(ckpt, state, "fp")
        runs.append((ckpt.read_bytes(), log.read_bytes()))
        monkeypatch.undo()
    assert runs[0] == runs[1]


def test_train_leaves_no_thread_behind():
    threads = set(threading.enumerate())
    corpus, state, cfg = tiny_world(epochs=1)
    trainer.train(corpus, state, cfg)
    assert set(threading.enumerate()) <= threads

    corpus, state, cfg = tiny_world(epochs=1)
    state["student.encoder.w1"].flat[0] = np.nan
    with pytest.raises(DivergedLoss):
        trainer.train(corpus, state, cfg)
    assert set(threading.enumerate()) <= threads

    corpus, state, cfg = tiny_world(batch_size=32)
    with pytest.raises(InvalidConfig):
        trainer.train(corpus, state, cfg)
    assert set(threading.enumerate()) <= threads


def test_train_runs_blas_on_one_thread_and_restores_its_count(monkeypatch):
    calls = numerics.openblas_threads()
    if calls is None:
        pytest.skip("numpy calls no OpenBLAS that ctypes can reach")
    set_threads, get_threads = calls
    real, seen = trainer.train_step, []

    def counted(*args):
        seen.append(get_threads())
        return real(*args)

    monkeypatch.setattr(trainer, "train_step", counted)
    before = get_threads()
    set_threads(2)
    try:
        corpus, state, cfg = tiny_world(epochs=1)
        trainer.train(corpus, state, cfg)
        assert seen == [1] * 4 and get_threads() == 2
        corpus, state, cfg = tiny_world(epochs=1)
        state["student.encoder.w1"].flat[0] = np.nan
        with pytest.raises(DivergedLoss):
            trainer.train(corpus, state, cfg)
        assert get_threads() == 2
    finally:
        set_threads(before)


def test_check_inputs_refuses_step_counters_of_another_corpus():
    corpus, state, cfg = tiny_world()  # 16 utterances: 4 steps per epoch
    state["optimizer.epoch"][0] = 2
    state["optimizer.global_step"][0] = 8
    trainer.check_inputs(corpus, state, cfg)
    state["optimizer.global_step"][0] = 10  # 5 steps per epoch
    with pytest.raises(InvalidConfig, match=(
            r"optimizer.global_step 10 is not optimizer.epoch 2 times the 4 "
            r"steps per epoch of this corpus \(16 utterances, batch 4\)")):
        trainer.check_inputs(corpus, state, cfg)
    cfg.train.epochs = 0  # no step reads the counters
    trainer.check_inputs(corpus, state, cfg)


# ----------------------------------------------------------------------
# collapse diagnostics


def test_diagnostics_uniform_and_collapsed_distributions():
    rng = np.random.default_rng(31)
    z = rng.standard_normal((40, 5))
    uniform = np.full((40, 8), 1.0 / 8)
    diag = trainer.diagnostics(z, uniform)
    assert list(diag) == ["mean_abs_offdiag", "embedding_std",
                          "prototype_usage_entropy"]  # record order
    assert diag["prototype_usage_entropy"] == pytest.approx(math.log(8),
                                                            abs=1e-12)
    assert diag["embedding_std"] == pytest.approx(z.std(axis=0).mean())
    assert diag["mean_abs_offdiag"] >= 0.0

    one_hot = np.zeros((40, 8))
    one_hot[:, 0] = 1.0
    assert trainer.diagnostics(z, one_hot)["prototype_usage_entropy"] == 0.0


def test_diagnostics_single_distribution_entropy():
    z = np.random.default_rng(33).standard_normal((10, 3))
    p = np.array([0.7, 0.1, 0.1, 0.1])
    entropy = -float(p @ np.log(p))
    assert entropy == pytest.approx(0.940, abs=1e-3)
    assert trainer.diagnostics(z, p)["prototype_usage_entropy"] \
        == pytest.approx(entropy, abs=1e-12)


def test_diagnostics_flag_decorrelated_vs_duplicated_dimensions():
    rng = np.random.default_rng(32)
    base = rng.standard_normal((60, 1))
    duplicated = np.hstack([base, base, base])
    independent = rng.standard_normal((60, 3))
    assert trainer.diagnostics(duplicated, np.full((60, 4), 0.25))[
        "mean_abs_offdiag"] == pytest.approx(1.0)
    assert trainer.diagnostics(independent, np.full((60, 4), 0.25))[
        "mean_abs_offdiag"] < 0.3

"""Training loop: schedule, descent, determinism, resume, divergence."""

import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from sdpn import data, losses, model, trainer
from sdpn.config import (CropConfig, MaskConfig, ModelConfig, RunConfig,
                         TrainSection)
from sdpn.errors import DivergedLoss, InvalidConfig

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
    pair = model.TeacherStudentPair.create(
        np.random.default_rng(seed), feature_dim=FEATURE_DIM, **DIMS)
    return corpus, pair, cfg


def tiny_batch(corpus, crops, seed=3):
    rng = np.random.default_rng(seed)
    crop_sets = list(data.iter_crop_sets(corpus[:4], crops, rng))
    gv = np.stack([np.stack(cs.global_views) for cs in crop_sets])
    lv = np.stack([np.stack(cs.local_views) for cs in crop_sets])
    return gv, lv


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
])
def test_train_config_validation(bad):
    corpus, pair, cfg = tiny_world(**bad)
    if bad is WEIGHTS_AT_ZERO:
        trainer.train(corpus, pair, cfg)
        return
    before = {k: v.copy() for k, v in pair.named_arrays()}
    with pytest.raises(InvalidConfig):
        trainer.train(corpus, pair, cfg)
    for name, arr in pair.named_arrays():
        npt.assert_array_equal(arr, before[name])


# ----------------------------------------------------------------------
# the loop itself

RECORD_KEYS = {"epoch", "loss", "loss_ce", "loss_re", "loss_dr", "lr",
               "mean_abs_offdiag", "embedding_std",
               "prototype_usage_entropy"}


def test_loss_falls_and_records_are_sane():
    corpus, pair, cfg = tiny_world(epochs=6)
    pair, records, state = trainer.train(corpus, pair, cfg)
    assert len(records) == 6
    assert records[-1]["loss"] < records[0]["loss"]
    for r in records:
        assert set(r) == RECORD_KEYS
        assert 0.0 <= r["lr"] <= cfg.train.lr_peak
        assert r["mean_abs_offdiag"] >= 0.0
        assert 0.0 <= r["prototype_usage_entropy"] <= math.log(
            cfg.model.num_prototypes) + 1e-12
    npt.assert_allclose(np.linalg.norm(pair.prototypes, axis=1), 1.0,
                        atol=1e-12)
    assert state.epoch == 6
    assert state.global_step == 6 * (len(corpus) // cfg.train.batch_size)


def test_zero_lr_step_changes_nothing():
    corpus, pair, cfg = tiny_world()
    gv, lv = tiny_batch(corpus, cfg.crops)
    before = {k: v.copy() for k, v in pair.named_arrays()}
    state = trainer.init_state(pair)
    trainer.train_step(pair, gv, lv, cfg, state, lr=0.0)
    for name, arr in pair.named_arrays():
        if name == "prototypes":
            npt.assert_allclose(arr, before[name], rtol=0, atol=1e-14)
        else:
            npt.assert_array_equal(arr, before[name])


def test_zero_epochs_is_a_noop():
    corpus, pair, cfg = tiny_world(epochs=0, warmup_epochs=0)
    before = {k: v.copy() for k, v in pair.named_arrays()}
    pair, records, state = trainer.train(corpus, pair, cfg)
    assert records == []
    assert state.global_step == 0
    for name, arr in pair.named_arrays():
        npt.assert_array_equal(arr, before[name])


def test_corpus_smaller_than_batch_rejected():
    corpus, pair, cfg = tiny_world(batch_size=32)
    with pytest.raises(InvalidConfig):
        trainer.train(corpus, pair, cfg)


def test_two_runs_are_bit_identical(tmp_path):
    blobs = []
    for run in range(2):
        corpus, pair, cfg = tiny_world(epochs=3)
        pair, _, state = trainer.train(corpus, pair, cfg)
        path = tmp_path / f"run{run}.sdck"
        model.save_checkpoint(path, trainer.state_tensors(pair, state), "fp")
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_resume_replays_the_uninterrupted_run(tmp_path):
    # reference: a clean 5-epoch run
    corpus, pair_a, cfg = tiny_world(epochs=5)
    pair_a, records_a, state_a = trainer.train(corpus, pair_a, cfg)

    # doomed twin: poison a student weight right after epoch 2 begins, so
    # the next step goes non-finite and training aborts with the end-of-
    # epoch-1 snapshot as last_good
    corpus, pair_b, cfg = tiny_world(epochs=5)

    def poison(rec):
        if rec["epoch"] == 2 and rec["step"] == 0:
            dict(pair_b.student.named_arrays("s"))["s.encoder.w1"].flat[0] \
                = np.nan

    with pytest.raises(DivergedLoss) as exc_info:
        trainer.train(corpus, pair_b, cfg, on_step=poison)
    # the student forward goes NaN, and the cross-entropy is the first term
    assert str(exc_info.value).startswith("non-finite loss_ce nan ")
    good_pair, good_state = exc_info.value.last_good
    assert good_state.epoch == 2
    assert np.isfinite(good_pair.prototypes).all()

    # persist, reload, resume under the same config
    path = tmp_path / "lastgood.sdck"
    model.save_checkpoint(path, trainer.state_tensors(good_pair, good_state),
                          "fp")
    tensors, _ = model.load_checkpoint(path)
    pair_c = model.pair_from_tensors(tensors)
    state_c = trainer.state_from_tensors(tensors, pair_c)
    pair_c, records_c, state_c = trainer.train(corpus, pair_c, cfg,
                                               resume=state_c)

    assert [r["epoch"] for r in records_c] == [2, 3, 4]
    assert records_c == records_a[2:]
    final_a = trainer.state_tensors(pair_a, state_a)
    final_c = trainer.state_tensors(pair_c, state_c)
    assert final_a.keys() == final_c.keys()
    for name in final_a:
        npt.assert_array_equal(final_a[name], final_c[name], err_msg=name)


def test_on_step_terms_are_recomputable():
    corpus, pair, cfg = tiny_world(epochs=1, warmup_epochs=0)
    seen = []
    trainer.train(corpus, pair, cfg,
                  on_step=lambda rec: seen.append(rec))
    assert len(seen) == len(corpus) // cfg.train.batch_size
    total = len(seen) * cfg.train.epochs
    for rec in seen:
        aux, terms = rec["aux"], rec["terms"]
        re = losses.diversity_regularization(aux["student_global"])
        dr = losses.frobenius_regularization(
            aux["teacher_global"], aux["student_global"])
        assert terms["loss_re"] == pytest.approx(re.value, rel=1e-12)
        assert terms["loss_dr"] == pytest.approx(dr.value, rel=1e-12)
        assert terms["loss"] == pytest.approx(
            terms["loss_ce"] + cfg.train.mu * re.value
            + cfg.train.lam * dr.value, rel=1e-12)
        assert rec["lr"] == trainer.lr_at(rec["global_step"], total, cfg)


def test_center_is_ema_of_teacher_score_means():
    corpus, pair, cfg = tiny_world(epochs=2)
    means = []
    _, _, state = trainer.train(
        corpus, pair, cfg,
        on_step=lambda rec: means.append(
            rec["aux"]["teacher_scores"].mean(axis=0)))
    mc = cfg.model
    expect = np.zeros(mc.num_prototypes)
    for m in means:
        expect = mc.center_momentum * expect + (1 - mc.center_momentum) * m
    npt.assert_allclose(state.center, expect, atol=1e-15)


def test_log_file_mirrors_records(tmp_path):
    corpus, pair, cfg = tiny_world(epochs=3)
    log = tmp_path / "metrics.jsonl"
    _, records, _ = trainer.train(corpus, pair, cfg, log_path=log)
    lines = log.read_text().splitlines()
    assert [json.loads(line) for line in lines] == records


def test_state_tensor_roundtrip():
    corpus, pair, cfg = tiny_world(epochs=2)
    pair, _, state = trainer.train(corpus, pair, cfg)
    back = trainer.state_from_tensors(trainer.state_tensors(pair, state), pair)
    assert back.epoch == state.epoch
    assert back.global_step == state.global_step
    npt.assert_array_equal(back.center, state.center)
    for name, vel in state.velocities.items():
        npt.assert_array_equal(back.velocities[name], vel)


# ----------------------------------------------------------------------
# collapse diagnostics


def test_diagnostics_uniform_and_collapsed_distributions():
    rng = np.random.default_rng(31)
    z = rng.standard_normal((40, 5))
    uniform = np.full((40, 8), 1.0 / 8)
    diag = trainer.diagnostics(z, uniform)
    assert diag.prototype_usage_entropy == pytest.approx(math.log(8),
                                                         abs=1e-12)
    assert diag.embedding_std == pytest.approx(z.std(axis=0).mean())
    assert diag.mean_abs_offdiag >= 0.0

    one_hot = np.zeros((40, 8))
    one_hot[:, 0] = 1.0
    assert trainer.diagnostics(z, one_hot).prototype_usage_entropy == 0.0


def test_diagnostics_single_distribution_entropy():
    z = np.random.default_rng(33).standard_normal((10, 3))
    p = np.array([0.7, 0.1, 0.1, 0.1])
    entropy = -float(p @ np.log(p))
    assert entropy == pytest.approx(0.940, abs=1e-3)
    assert trainer.diagnostics(z, p).prototype_usage_entropy \
        == pytest.approx(entropy, abs=1e-12)


def test_diagnostics_flag_decorrelated_vs_duplicated_dimensions():
    rng = np.random.default_rng(32)
    base = rng.standard_normal((60, 1))
    duplicated = np.hstack([base, base, base])
    independent = rng.standard_normal((60, 3))
    assert trainer.diagnostics(duplicated, np.full((60, 4), 0.25)) \
        .mean_abs_offdiag == pytest.approx(1.0)
    assert trainer.diagnostics(independent, np.full((60, 4), 0.25)) \
        .mean_abs_offdiag < 0.3

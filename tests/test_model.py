"""Encoder/projection forward-backward, embedding, prototypes, EMA,
checkpoints."""

import re
import sys
import threading
import time

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from sdpn import losses, model, numerics, trainer
from sdpn.config import ModelConfig, RunConfig, validate
from sdpn.errors import DataError, InvalidConfig, MalformedFile


def tiny_params(seed=81, **kw):
    """Teacher, student and prototypes of a tiny model; the student (and so
    the teacher) of seed s is the same whatever ``num_prototypes`` is."""
    dims = dict(feature_dim=5, encoder_hidden=6, embed_dim=4, proj_hidden=7,
                proj_dim=3, num_prototypes=4)
    dims.update(kw)
    return model.init_params(np.random.default_rng(seed), **dims)


def student_names(params):
    return [name for name in params if name.startswith("student.")]


# ----------------------------------------------------------------------
# forward properties


def test_projection_rows_are_unit_norm():
    params = tiny_params(seed=80)
    rng = np.random.default_rng(82)
    _, proj, _ = model.network_forward(params, "student",
                                       rng.standard_normal((9, 11, 5)))
    npt.assert_allclose(np.linalg.norm(proj, axis=1), 1.0, atol=1e-9)


def test_zero_frames_zero_bias_embedding_is_tiny():
    params = tiny_params(seed=80)
    params["student.encoder.b1"][:] = 0.0
    params["student.encoder.b2"][:] = 0.0
    emb = model.forward_embed(params, "student", [np.zeros((13, 5))])[0]
    # mean-pool is exactly 0; the smoothed std-pool is sqrt(eps) = 1e-5
    assert np.abs(emb).max() < 1e-4


def test_pooling_invariant_to_frame_duplication():
    params = tiny_params(seed=80)
    rng = np.random.default_rng(83)
    frames = rng.standard_normal((10, 5))
    once, twice = model.forward_embed(
        params, "student", [frames, np.concatenate([frames, frames])])
    npt.assert_allclose(once, twice, atol=1e-12)


def test_forward_embed_shape_checks():
    params = tiny_params(seed=80)
    with pytest.raises(DataError, match=re.escape(
            "utterance 1 has frames of shape (4, 4, 5), not (T, 5)")):
        model.forward_embed(params, "student",
                            [np.zeros((4, 5)), np.zeros((4, 4, 5))])
    with pytest.raises(DataError, match=re.escape(
            "utterance 1 has 6 features per frame; the encoder takes 5")):
        model.forward_embed(params, "student",
                            [np.zeros((4, 5)), np.zeros((4, 6))])
    with pytest.raises(DataError, match=re.escape(
            "utterance 'b' in m.tsv has 6 features per frame; the encoder "
            "takes 5")):
        model.forward_embed(params, "student",
                            [np.zeros((4, 5)), np.zeros((4, 6))], ["a", "b"],
                            "m.tsv")
    assert model.forward_embed(params, "student", []).shape == (0, 4)


def test_forward_golden_value():
    # frozen output of a fixed-seed forward; guards against silent drift in
    # init or pooling conventions
    params = tiny_params(seed=123)
    rng = np.random.default_rng(456)
    frames = rng.standard_normal((8, 5))
    emb = model.forward_embed(params, "student", [frames])[0]
    _, proj, _ = model.network_forward(params, "student", frames[None])
    assert emb[0] == pytest.approx(GOLDEN_EMB0, abs=1e-12)
    assert proj[0, 0] == pytest.approx(GOLDEN_PROJ0, abs=1e-12)


# ----------------------------------------------------------------------
# embedding on two threads


def test_an_embedding_does_not_depend_on_its_block():
    # numpy hands a one-row product to BLAS gemv, whose sums round unlike
    # gemm's; alone, in a pair and as the lone last row of a corpus one row
    # longer than a block, an utterance gets the bytes it gets in a block
    params = model.init_params(np.random.default_rng(84), feature_dim=24,
                               encoder_hidden=48, embed_dim=48, proj_hidden=4,
                               proj_dim=4, num_prototypes=4)
    t = 20
    step = numerics.blocks(numerics.BLOCK_ELEMENTS, t * 48)[0].stop
    corpus = list(np.random.default_rng(85).standard_normal((step + 1, t, 24)))
    full = model.forward_embed(params, "student", corpus)
    for k in (0, step - 1, step):
        alone = model.forward_embed(params, "student", [corpus[k]])
        pair = model.forward_embed(params, "student",
                                   [corpus[k], corpus[k - 1]])
        assert alone[0].tobytes() == full[k].tobytes(), k
        assert pair[0].tobytes() == full[k].tobytes(), k


def embed_inputs(lengths=(7, 9, 7, 11, 9, 7, 13, 7)):
    """Tiny-model weights and one utterance of frames per length: the
    default gives four blocks (lengths 7, 9, 11, 13) at the default block
    size."""
    rng = np.random.default_rng(86)
    return tiny_params(seed=86), [rng.standard_normal((t, 5))
                                  for t in lengths]


def on_worker() -> bool:
    return threading.current_thread() is not threading.main_thread()


def test_forward_embed_under_frequent_thread_switches(monkeypatch):
    # 80 one-utterance blocks, the two threads switching every microsecond,
    # give the bytes of two whole blocks
    params, frames = embed_inputs(lengths=(7, 9) * 40)
    whole = model.forward_embed(params, "student", frames)
    monkeypatch.setattr(numerics, "BLOCK_ELEMENTS", 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        split = model.forward_embed(params, "student", frames)
    finally:
        sys.setswitchinterval(interval)
    assert split.tobytes() == whole.tobytes()


def test_forward_embed_leaves_no_thread_behind(monkeypatch):
    threads = set(threading.enumerate())
    params, frames = embed_inputs()
    model.forward_embed(params, "student", frames)
    assert set(threading.enumerate()) <= threads

    real, seen = model.encoder_forward, []

    def forward(*args):
        seen.append(on_worker())
        if on_worker():
            raise ValueError("a worker block failed")
        return real(*args)

    monkeypatch.setattr(model, "encoder_forward", forward)
    with pytest.raises(ValueError, match="a worker block failed"):
        model.forward_embed(params, "student", frames)
    assert True in seen and set(threading.enumerate()) <= threads


def test_forward_embed_runs_blas_on_one_thread_and_restores_its_count(
        monkeypatch):
    calls = numerics.openblas_threads()
    if calls is None:
        pytest.skip("numpy calls no OpenBLAS that ctypes can reach")
    set_threads, get_threads = calls
    params, frames = embed_inputs()
    real, seen = model.encoder_forward, []

    def counted(*args):
        seen.append(get_threads())
        if fail:
            raise ValueError("a block failed")
        return real(*args)

    monkeypatch.setattr(model, "encoder_forward", counted)
    before = get_threads()
    set_threads(2)
    try:
        fail = False
        model.forward_embed(params, "student", frames)
        assert seen == [1] * 4 and get_threads() == 2
        fail = True
        with pytest.raises(ValueError):
            model.forward_embed(params, "student", frames)
        assert get_threads() == 2
    finally:
        set_threads(before)


@pytest.mark.parametrize("failing", [(0, 1), (1, 2), (0, 3), (1, 3)])
def test_forward_embed_raises_the_first_failed_blocks_error(monkeypatch,
                                                            failing):
    # block k holds the one utterance of 3 + k frames; the earlier of the
    # two failing blocks is slowed, so the later one fails first
    params, frames = embed_inputs(lengths=(3, 4, 5, 6))
    real = model.encoder_forward

    def forward(params, prefix, x, out=None):
        k = x.shape[1] - 3
        if k == failing[0]:
            time.sleep(0.05)
        if k in failing:
            raise ValueError(f"block {k} failed")
        return real(params, prefix, x, out)

    monkeypatch.setattr(model, "encoder_forward", forward)
    with pytest.raises(ValueError, match=f"^block {failing[0]} failed$"):
        model.forward_embed(params, "student", frames)


# ----------------------------------------------------------------------
# prototype scoring


def test_prototype_distribution_closed_form():
    protos = np.array([[1.0, 0.0], [0.0, 1.0]])
    p = model.prototype_distribution(np.array([[1.0, 0.0]]), protos, 1.0)
    e = np.exp(1.0)
    npt.assert_allclose(p[0], [e / (e + 1.0), 1.0 / (e + 1.0)], atol=1e-12)


def test_prototype_distribution_identical_prototypes_uniform():
    protos = np.tile(np.array([[0.6, 0.8]]), (5, 1))
    p = model.prototype_distribution(np.array([[0.3, -0.4]]), protos, 0.1)
    npt.assert_allclose(p[0], 0.2, atol=1e-12)


def test_prototype_distribution_sharpens_at_low_temperature():
    rng = np.random.default_rng(84)
    protos = rng.standard_normal((6, 3))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    y = rng.standard_normal((1, 3))
    y /= np.linalg.norm(y)
    p = model.prototype_distribution(y, protos, 0.01)
    assert p.max() > 0.99


def test_normalize_prototypes_in_place():
    rng = np.random.default_rng(85)
    protos = rng.standard_normal((4, 3)) * 5.0
    out = model.normalize_prototypes(protos)
    assert out is protos
    npt.assert_allclose(np.linalg.norm(protos, axis=1), 1.0, atol=1e-12)


# ----------------------------------------------------------------------
# EMA teacher


def test_ema_zero_momentum_copies_student():
    params = tiny_params()
    params["student.encoder.w1"] += 1.0
    model.ema_update(params, 0.0)
    for name in student_names(params):
        npt.assert_array_equal(params["teacher" + name[7:]], params[name])


def test_ema_updates_compose_geometrically():
    params = tiny_params(seed=86)
    target = params["student.encoder.w1"].copy()
    start = target + 2.0
    params["teacher.encoder.w1"][:] = start
    m = 0.9
    model.ema_update(params, m)
    model.ema_update(params, m)
    expected = m * m * start + (1.0 - m * m) * target
    npt.assert_allclose(params["teacher.encoder.w1"], expected, atol=1e-12)


def test_ema_stays_convex_and_validates_momentum():
    params = tiny_params(seed=87)
    params["teacher.encoder.w1"] += 0.5
    protos = params["prototypes"].copy()
    teacher, student = params["teacher.encoder.w1"], \
        params["student.encoder.w1"]
    lo, hi = np.minimum(teacher, student), np.maximum(teacher, student)
    model.ema_update(params, 0.999)
    assert np.all(teacher >= lo - 1e-15)
    assert np.all(teacher <= hi + 1e-15)
    npt.assert_array_equal(params["prototypes"], protos)  # shared, not EMA
    # the momentum reaches ema_update only through a validated config
    for bad in (1.0, -0.1, 1.5):
        with pytest.raises(InvalidConfig, match="model.ema_momentum "):
            validate(RunConfig(model=ModelConfig(ema_momentum=bad)))


def test_ema_momentum_schedule_endpoints():
    assert model.ema_momentum_at(0, 100, 0.996) == pytest.approx(0.996)
    assert model.ema_momentum_at(100, 100, 0.996) == pytest.approx(1.0)
    mid = model.ema_momentum_at(50, 100, 0.996)
    assert 0.996 < mid < 1.0
    assert mid == pytest.approx(1.0 - (1.0 - 0.996) / 2.0)


# ----------------------------------------------------------------------
# multi-view forward (trainer.teacher_targets, trainer.student_objective)


def multi_view(params, gv, lv, student_temp=0.1, teacher_temp=0.04):
    """The trainer's two step halves at a zero teacher center: (targets,
    terms, grads, student_global)."""
    cfg = RunConfig(model=ModelConfig(student_temp=student_temp,
                                      teacher_temp=teacher_temp))
    targets = trainer.teacher_targets(
        params, gv, np.zeros(params["prototypes"].shape[0]), cfg)
    return (targets, *trainer.student_objective(params, gv, lv, targets, cfg))


def test_multi_view_shapes_and_distributions():
    params = tiny_params(seed=88)
    rng = np.random.default_rng(89)
    gv = rng.standard_normal((3, 1, 12, 5))
    lv = rng.standard_normal((3, 4, 6, 5))
    targets, terms, grads, student_global = multi_view(params, gv, lv)
    p_teacher = targets.distributions
    assert p_teacher.shape == (3, 1, 4)
    npt.assert_allclose(p_teacher.sum(axis=-1), 1.0, atol=1e-9)
    assert targets.projections.shape == (3, 3)  # (B*G, proj_dim)
    assert targets.scores.shape == (3, 4)  # (B*G, num_prototypes)
    assert student_global.shape == (3, 3)
    # the distillation term is taken against the student's local-view
    # prototype distributions
    _, s_proj_l, _ = model.network_forward(params, "student",
                                           lv.reshape(12, 6, 5))
    p_student = model.prototype_distribution(
        s_proj_l, params["prototypes"], 0.1).reshape(3, 4, 4)
    npt.assert_allclose(p_student.sum(axis=-1), 1.0, atol=1e-9)
    ce = sum(losses.cross_entropy_loss(p_teacher[i], p_student[i]).value
             for i in range(3)) / 3
    assert terms["loss_ce"] == pytest.approx(ce, rel=1e-12)
    # encoder, projection, prototypes: the order DivergedLoss checks them in
    assert list(grads) == student_names(params) + ["prototypes"]
    for name, grad in grads.items():
        assert grad.shape == params[name].shape, name


def test_multi_view_teacher_outputs_are_read_only():
    params = tiny_params(seed=90)
    rng = np.random.default_rng(91)
    targets, _, _, _ = multi_view(params, rng.standard_normal((2, 1, 8, 5)),
                                  rng.standard_normal((2, 2, 5, 5)))
    with pytest.raises(ValueError):
        targets.distributions[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        targets.projections[0, 0] = 1.0
    with pytest.raises(ValueError):
        targets.scores[0, 0] = 1.0


def test_identical_branches_equal_temps_ce_is_teacher_entropy():
    params = tiny_params(seed=93)
    rng = np.random.default_rng(94)
    # two utterances: the diversity term needs at least two global rows
    view = rng.standard_normal((2, 1, 9, 5))
    targets, terms, _, _ = multi_view(params, view, view, student_temp=0.1,
                                      teacher_temp=0.1)
    p = targets.distributions[:, 0]
    entropy = -float((p * np.log(p)).sum(axis=1).mean())
    assert terms["loss_ce"] == pytest.approx(entropy, abs=1e-9)


# ----------------------------------------------------------------------
# backward vs finite differences


def test_network_backward_matches_fd():
    params = tiny_params(seed=95)
    rng = np.random.default_rng(96)
    frames = rng.standard_normal((4, 7, 5))
    cot = rng.standard_normal((4, 3))

    _, _, caches = model.network_forward(params, "student", frames)
    grads = model.network_backward(params, "student", caches, cot)
    assert list(grads) == student_names(params)

    for name in student_names(params):
        param = params[name]

        def scalar(p, _param=param):
            saved = _param.copy()
            _param[...] = p
            try:
                _, proj, _ = model.network_forward(params, "student", frames)
                return float((proj * cot).sum())
            finally:
                _param[...] = saved

        fd = numerics.finite_diff_gradient(scalar, param.copy(), 1e-6)
        npt.assert_allclose(grads[name], fd, rtol=0, atol=2e-6,
                            err_msg=name)


@pytest.mark.parametrize("shape", [(128, 60, 24), (32, 120, 24)])
def test_encoder_matches_einsum_reference(shape):
    # the training shapes: local views (B*L, Tl, F) and global (B*G, Tg, F)
    rng = np.random.default_rng(97)
    params = model.init_params(rng, feature_dim=24, encoder_hidden=48,
                               embed_dim=48, proj_hidden=4, proj_dim=4,
                               num_prototypes=4)
    params["student.encoder.b1"] += 0.3 * rng.standard_normal(48)
    frames = rng.standard_normal(shape)
    g_emb = rng.standard_normal((shape[0], 48))
    ref_emb, ref_grads = oracles.encoder_reference(params, "student", frames,
                                                   g_emb)
    emb, cache = model.encoder_forward(params, "student", frames)
    grads = model.encoder_backward(params, "student", cache, g_emb)
    npt.assert_allclose(emb, ref_emb, rtol=1e-12, atol=0)
    assert grads.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        npt.assert_allclose(grads[name], ref, rtol=1e-12,
                            atol=1e-12 * np.abs(ref).max(), err_msg=name)


def test_encoder_forward_into_buffers_matches_fresh_arrays():
    # the buffers' old contents, a consumed cache's included, do not reach
    # the result
    rng = np.random.default_rng(98)
    params = tiny_params(seed=98)
    params["student.encoder.b1"] += 0.3 * rng.standard_normal(6)
    first, second = rng.standard_normal((2, 9, 11, 5))
    g_emb = rng.standard_normal((9, 4))
    buffers = (np.full((9, 11, 6), np.nan), np.full((9, 11, 6), 7.0))
    for frames in (first, second):
        emb, cache = model.encoder_forward(params, "student", frames)
        emb_b, cache_b = model.encoder_forward(params, "student", frames,
                                               buffers)
        assert cache_b[1] is buffers[0] and cache_b[2] is buffers[1]
        assert emb_b.tobytes() == emb.tobytes()
        for fresh, buffered in zip(cache, cache_b):
            assert buffered.tobytes() == fresh.tobytes()
        grads = model.encoder_backward(params, "student", cache, g_emb)
        grads_b = model.encoder_backward(params, "student", cache_b, g_emb)
        for name, grad in grads.items():
            assert grads_b[name].tobytes() == grad.tobytes(), name


# ----------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip(tmp_path):
    params = tiny_params(seed=97)
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(path, params, "fp123")
    tensors, fp = model.load_checkpoint(path)
    assert fp == "fp123"
    assert sorted(tensors) == sorted(params)
    for name, arr in params.items():
        npt.assert_array_equal(tensors[name], arr, err_msg=name)


def test_checkpoint_truncation_and_bad_magic(tmp_path):
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(path, tiny_params(seed=98), "fp")
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(MalformedFile):
        model.load_checkpoint(path)
    path.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(MalformedFile):
        model.load_checkpoint(path)
    path.write_bytes(raw + b"\x00")
    with pytest.raises(MalformedFile):
        model.load_checkpoint(path)


def test_checkpoint_bytes_are_deterministic(tmp_path):
    params = tiny_params(seed=99)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    model.save_checkpoint(p1, params, "fp")
    model.save_checkpoint(p2, params, "fp")
    assert p1.read_bytes() == p2.read_bytes()


# golden values for test_forward_golden_value (fixed seeds 123/456),
# frozen from the first verified run of this architecture
GOLDEN_EMB0 = 0.2614941169654679
GOLDEN_PROJ0 = 0.5961134698050388

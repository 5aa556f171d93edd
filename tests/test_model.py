"""Encoder/projection forward-backward, prototypes, EMA, checkpoints."""

import numpy as np
import numpy.testing as npt
import pytest

from sdpn import losses, model, numerics, trainer
from sdpn.config import ModelConfig
from sdpn.errors import InvalidConfig, MalformedFile, ShapeMismatch
from sdpn.model import Network, TeacherStudentPair


def tiny_network(seed=80, feature_dim=5, encoder_hidden=6, embed_dim=4,
                 proj_hidden=7, proj_dim=3):
    rng = np.random.default_rng(seed)
    return Network.create(rng, feature_dim, encoder_hidden, embed_dim,
                          proj_hidden, proj_dim)


def tiny_pair(seed=81, **kw):
    defaults = dict(feature_dim=5, encoder_hidden=6, embed_dim=4,
                    proj_hidden=7, proj_dim=3, num_prototypes=4)
    defaults.update(kw)
    return TeacherStudentPair.create(np.random.default_rng(seed), **defaults)


# ----------------------------------------------------------------------
# forward properties


def test_projection_rows_are_unit_norm():
    net = tiny_network()
    rng = np.random.default_rng(82)
    _, proj, _ = model.network_forward(net, rng.standard_normal((9, 11, 5)))
    npt.assert_allclose(np.linalg.norm(proj, axis=1), 1.0, atol=1e-9)


def test_zero_frames_zero_bias_embedding_is_tiny():
    net = tiny_network()
    net.encoder.b1[:] = 0.0
    net.encoder.b2[:] = 0.0
    emb, _ = model.forward_embed(net, np.zeros((13, 5)))
    # mean-pool is exactly 0; the smoothed std-pool is sqrt(eps) = 1e-5
    assert np.abs(emb).max() < 1e-4


def test_pooling_invariant_to_frame_duplication():
    net = tiny_network()
    rng = np.random.default_rng(83)
    frames = rng.standard_normal((10, 5))
    once, _ = model.forward_embed(net, frames)
    twice, _ = model.forward_embed(net, np.concatenate([frames, frames]))
    npt.assert_allclose(once, twice, atol=1e-12)


def test_forward_embed_shape_checks():
    net = tiny_network()
    with pytest.raises(ShapeMismatch):
        model.forward_embed(net, np.zeros((4, 4, 5)))
    with pytest.raises(ShapeMismatch):
        model.network_forward(net, np.zeros((2, 6, 7)))  # wrong feature dim


def test_forward_golden_value():
    # frozen output of a fixed-seed forward; guards against silent drift in
    # init or pooling conventions
    net = tiny_network(seed=123)
    rng = np.random.default_rng(456)
    emb, proj = model.forward_embed(net, rng.standard_normal((8, 5)))
    assert emb[0] == pytest.approx(GOLDEN_EMB0, abs=1e-12)
    assert proj[0] == pytest.approx(GOLDEN_PROJ0, abs=1e-12)


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


def test_prototype_centering_shifts_scores():
    protos = np.eye(2)
    y = np.array([[1.0, 0.0]])
    centered = model.prototype_distribution(y, protos, 1.0,
                                            center=np.array([1.0, 0.0]))
    npt.assert_allclose(centered[0], 0.5, atol=1e-12)


def test_normalize_prototypes_in_place():
    rng = np.random.default_rng(85)
    protos = rng.standard_normal((4, 3)) * 5.0
    out = model.normalize_prototypes(protos)
    assert out is protos
    npt.assert_allclose(np.linalg.norm(protos, axis=1), 1.0, atol=1e-12)


# ----------------------------------------------------------------------
# EMA teacher


def test_ema_zero_momentum_copies_student():
    pair = tiny_pair()
    pair.student.encoder.w1 += 1.0
    model.ema_update(pair, 0.0)
    npt.assert_array_equal(pair.teacher.encoder.w1, pair.student.encoder.w1)


def test_ema_updates_compose_geometrically():
    pair = tiny_pair(seed=86)
    target = pair.student.encoder.w1.copy()
    start = target + 2.0
    pair.teacher.encoder.w1[:] = start
    m = 0.9
    model.ema_update(pair, m)
    model.ema_update(pair, m)
    expected = m * m * start + (1.0 - m * m) * target
    npt.assert_allclose(pair.teacher.encoder.w1, expected, atol=1e-12)


def test_ema_stays_convex_and_validates_momentum():
    pair = tiny_pair(seed=87)
    pair.teacher.encoder.w1 += 0.5
    lo = np.minimum(pair.teacher.encoder.w1, pair.student.encoder.w1)
    hi = np.maximum(pair.teacher.encoder.w1, pair.student.encoder.w1)
    model.ema_update(pair, 0.999)
    assert np.all(pair.teacher.encoder.w1 >= lo - 1e-15)
    assert np.all(pair.teacher.encoder.w1 <= hi + 1e-15)
    for bad in (1.0, -0.1, 1.5):
        with pytest.raises(InvalidConfig):
            model.ema_update(pair, bad)


def test_ema_momentum_schedule_endpoints():
    assert model.ema_momentum_at(0, 100, 0.996) == pytest.approx(0.996)
    assert model.ema_momentum_at(100, 100, 0.996) == pytest.approx(1.0)
    mid = model.ema_momentum_at(50, 100, 0.996)
    assert 0.996 < mid < 1.0
    assert mid == pytest.approx(1.0 - (1.0 - 0.996) / 2.0)


# ----------------------------------------------------------------------
# multi-view forward (trainer.batch_loss_and_grads)


def multi_view(pair, gv, lv, student_temp=0.1, teacher_temp=0.04):
    """The trainer's multi-view forward at a zero teacher center."""
    model_cfg = ModelConfig(student_temp=student_temp,
                            teacher_temp=teacher_temp)
    return trainer.batch_loss_and_grads(
        pair, gv, lv, trainer.TrainConfig(), model_cfg,
        np.zeros(pair.prototypes.shape[0]))


def test_multi_view_shapes_and_distributions():
    pair = tiny_pair(seed=88)
    rng = np.random.default_rng(89)
    gv = rng.standard_normal((3, 1, 12, 5))
    lv = rng.standard_normal((3, 4, 6, 5))
    terms, grads, aux = multi_view(pair, gv, lv)
    p_teacher = aux["teacher_distributions"]
    assert p_teacher.shape == (3, 1, 4)
    npt.assert_allclose(p_teacher.sum(axis=-1), 1.0, atol=1e-9)
    assert aux["teacher_global"].shape == (3, 3)  # (B*G, proj_dim)
    assert aux["student_global"].shape == (3, 3)
    # the distillation term is taken against the student's local-view
    # prototype distributions
    _, s_proj_l, _ = model.network_forward(pair.student, lv.reshape(12, 6, 5))
    p_student = model.prototype_distribution(
        s_proj_l, pair.prototypes, 0.1).reshape(3, 4, 4)
    npt.assert_allclose(p_student.sum(axis=-1), 1.0, atol=1e-9)
    ce = sum(losses.cross_entropy_loss(p_teacher[i], p_student[i]).value
             for i in range(3)) / 3
    assert terms["loss_ce"] == pytest.approx(ce, rel=1e-12)
    params = dict(pair.student.named_arrays("student"),
                  prototypes=pair.prototypes)
    assert {k: v.shape for k, v in grads.items()} \
        == {k: v.shape for k, v in params.items()}


def test_multi_view_teacher_outputs_are_read_only():
    pair = tiny_pair(seed=90)
    rng = np.random.default_rng(91)
    _, _, aux = multi_view(pair, rng.standard_normal((2, 1, 8, 5)),
                           rng.standard_normal((2, 2, 5, 5)))
    with pytest.raises(ValueError):
        aux["teacher_distributions"][0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        aux["teacher_global"][0, 0] = 1.0


def test_multi_view_rejects_flat_views():
    pair = tiny_pair(seed=92)
    with pytest.raises(ShapeMismatch):
        multi_view(pair, np.zeros((2, 8, 5)), np.zeros((2, 2, 5, 5)))


def test_identical_branches_equal_temps_ce_is_teacher_entropy():
    pair = tiny_pair(seed=93)
    rng = np.random.default_rng(94)
    # two utterances: the diversity term needs at least two global rows
    view = rng.standard_normal((2, 1, 9, 5))
    terms, _, aux = multi_view(pair, view, view, student_temp=0.1,
                               teacher_temp=0.1)
    p = aux["teacher_distributions"][:, 0]
    entropy = -float((p * np.log(p)).sum(axis=1).mean())
    assert terms["loss_ce"] == pytest.approx(entropy, abs=1e-9)


# ----------------------------------------------------------------------
# backward vs finite differences


def test_network_backward_matches_fd():
    net = tiny_network(seed=95)
    rng = np.random.default_rng(96)
    frames = rng.standard_normal((4, 7, 5))
    cot = rng.standard_normal((4, 3))

    _, _, caches = model.network_forward(net, frames)
    grads = model.network_backward(net, caches, cot)

    for name, param in list(net.named_arrays("net")):
        short = name.split(".", 1)[1]

        def scalar(p, _param=param):
            saved = _param.copy()
            _param[...] = p
            try:
                _, proj, _ = model.network_forward(net, frames)
                return float((proj * cot).sum())
            finally:
                _param[...] = saved

        fd = numerics.finite_diff_gradient(scalar, param.copy(), 1e-6)
        npt.assert_allclose(grads[short], fd, rtol=0, atol=2e-6,
                            err_msg=short)


# ----------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip(tmp_path):
    pair = tiny_pair(seed=97)
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(path, model.pair_tensors(pair), "fp123")
    tensors, fp = model.load_checkpoint(path)
    assert fp == "fp123"
    rebuilt = model.pair_from_tensors(tensors)
    for (name, a), (_, b) in zip(pair.named_arrays(),
                                 rebuilt.named_arrays()):
        npt.assert_array_equal(a, b, err_msg=name)


def test_checkpoint_truncation_and_bad_magic(tmp_path):
    pair = tiny_pair(seed=98)
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(path, model.pair_tensors(pair), "fp")
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
    pair = tiny_pair(seed=99)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    model.save_checkpoint(p1, model.pair_tensors(pair), "fp")
    model.save_checkpoint(p2, model.pair_tensors(pair), "fp")
    assert p1.read_bytes() == p2.read_bytes()


def test_pair_from_tensors_missing_key(tmp_path):
    pair = tiny_pair(seed=100)
    tensors = model.pair_tensors(pair)
    tensors.pop("prototypes")
    with pytest.raises(MalformedFile):
        model.pair_from_tensors(tensors)


# golden values for test_forward_golden_value (fixed seeds 123/456),
# frozen from the first verified run of this architecture
GOLDEN_EMB0 = 0.2614941169654679
GOLDEN_PROJ0 = 0.5961134698050388

"""Toy-scale teacher/student networks with a shared prototype bank.

Frame encoder: per-frame tanh layer -> mean+std pooling over time -> linear
embedding. Projection head: two tanh layers plus a linear output, L2
normalized per row. Prototype scores are dot products against unit-norm
prototype rows; the teacher path subtracts a running center before its
softmax. Forward passes cache what the hand-written backward passes need;
there is no autodiff anywhere.

Checkpoints are a single self-describing binary container (see
docs/formats.md): magic ``SDCK``, version, a config fingerprint string, then
named float64 little-endian tensors sorted by name.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, fields

import numpy as np

from . import numerics
from .data import BinaryReader
from .errors import InvalidConfig, MalformedFile, ShapeMismatch, ZeroVector

# Keeps the std branch of the pooling differentiable at zero variance.
EPS_POOL_VAR = 1e-10

CHECKPOINT_MAGIC = b"SDCK"
CHECKPOINT_VERSION = 1


def _init_linear(rng, fan_in: int, fan_out: int):
    w = rng.standard_normal((fan_in, fan_out)) / math.sqrt(fan_in)
    return w, np.zeros(fan_out)


@dataclass
class EncoderParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    @classmethod
    def create(cls, rng, feature_dim: int, hidden_dim: int, embed_dim: int):
        w1, b1 = _init_linear(rng, feature_dim, hidden_dim)
        w2, b2 = _init_linear(rng, 2 * hidden_dim, embed_dim)
        return cls(w1, b1, w2, b2)


@dataclass
class ProjectionParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    @classmethod
    def create(cls, rng, embed_dim: int, hidden_dim: int, out_dim: int):
        w1, b1 = _init_linear(rng, embed_dim, hidden_dim)
        w2, b2 = _init_linear(rng, hidden_dim, hidden_dim)
        w3, b3 = _init_linear(rng, hidden_dim, out_dim)
        return cls(w1, b1, w2, b2, w3, b3)


def _named_arrays(params, prefix: str):
    for f in fields(params):
        yield f"{prefix}.{f.name}", getattr(params, f.name)


def _copy_params(params):
    return type(params)(**{f.name: getattr(params, f.name).copy()
                           for f in fields(params)})


@dataclass
class Network:
    encoder: EncoderParams
    projection: ProjectionParams

    @classmethod
    def create(cls, rng, feature_dim, encoder_hidden, embed_dim,
               proj_hidden, proj_dim):
        return cls(
            EncoderParams.create(rng, feature_dim, encoder_hidden, embed_dim),
            ProjectionParams.create(rng, embed_dim, proj_hidden, proj_dim),
        )

    def named_arrays(self, prefix: str):
        yield from _named_arrays(self.encoder, f"{prefix}.encoder")
        yield from _named_arrays(self.projection, f"{prefix}.projection")

    def copy(self):
        return Network(_copy_params(self.encoder), _copy_params(self.projection))


@dataclass
class TeacherStudentPair:
    student: Network
    teacher: Network
    prototypes: np.ndarray  # (K, proj_dim), rows unit-norm, shared by both
    ema_momentum: float = 0.996

    @classmethod
    def create(cls, rng, *, feature_dim, encoder_hidden, embed_dim,
               proj_hidden, proj_dim, num_prototypes, ema_momentum=0.996):
        student = Network.create(rng, feature_dim, encoder_hidden, embed_dim,
                                 proj_hidden, proj_dim)
        protos = rng.standard_normal((num_prototypes, proj_dim))
        protos /= np.linalg.norm(protos, axis=1, keepdims=True)
        return cls(student, student.copy(), protos, ema_momentum)

    def named_arrays(self):
        yield from self.student.named_arrays("student")
        yield from self.teacher.named_arrays("teacher")
        yield "prototypes", self.prototypes

    def copy(self):
        return TeacherStudentPair(self.student.copy(), self.teacher.copy(),
                                  self.prototypes.copy(), self.ema_momentum)


# ----------------------------------------------------------------------
# forward / backward


def encoder_forward(p: EncoderParams, frames: np.ndarray):
    """frames (B, T, F) -> embeddings (B, E) plus the backward cache."""
    x = np.asarray(frames, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeMismatch(f"expected (B, T, F) frames, got shape {x.shape}")
    if x.shape[-1] != p.w1.shape[0]:
        raise ShapeMismatch(
            f"feature dim {x.shape[-1]} != encoder input dim {p.w1.shape[0]}")
    h1 = np.tanh(x @ p.w1 + p.b1)
    mu = h1.mean(axis=1)
    var = h1.var(axis=1)
    sd = np.sqrt(var + EPS_POOL_VAR)
    pooled = np.concatenate([mu, sd], axis=1)
    emb = pooled @ p.w2 + p.b2
    return emb, (x, h1, mu, sd, pooled)


def encoder_backward(p: EncoderParams, cache, g_emb: np.ndarray) -> dict:
    x, h1, mu, sd, pooled = cache
    t = h1.shape[1]
    hidden = mu.shape[1]
    g_pooled = g_emb @ p.w2.T
    g_w2 = pooled.T @ g_emb
    g_b2 = g_emb.sum(axis=0)
    g_mu = g_pooled[:, :hidden]
    g_sd = g_pooled[:, hidden:]
    centered = h1 - mu[:, None, :]
    g_h1 = g_mu[:, None, :] / t + g_sd[:, None, :] * centered / (t * sd[:, None, :])
    g_a1 = g_h1 * (1.0 - h1 * h1)
    g_w1 = np.einsum("btf,bth->fh", x, g_a1)
    g_b1 = g_a1.sum(axis=(0, 1))
    return {"w1": g_w1, "b1": g_b1, "w2": g_w2, "b2": g_b2}


def projection_forward(p: ProjectionParams, emb: np.ndarray):
    """embeddings (B, E) -> unit-norm projections (B, P) plus cache."""
    e = np.asarray(emb, dtype=np.float64)
    z1 = np.tanh(e @ p.w1 + p.b1)
    z2 = np.tanh(z1 @ p.w2 + p.b2)
    z3 = z2 @ p.w3 + p.b3
    r = np.linalg.norm(z3, axis=1, keepdims=True)
    if (r <= numerics.EPS_COLUMN).any():
        raise ZeroVector("projection head produced a zero vector")
    y = z3 / r
    return y, (e, z1, z2, y, r)


def projection_backward(p: ProjectionParams, cache, g_y: np.ndarray):
    e, z1, z2, y, r = cache
    g_z3 = (g_y - y * np.einsum("bp,bp->b", y, g_y)[:, None]) / r
    g_w3 = z2.T @ g_z3
    g_b3 = g_z3.sum(axis=0)
    g_a2 = (g_z3 @ p.w3.T) * (1.0 - z2 * z2)
    g_w2 = z1.T @ g_a2
    g_b2 = g_a2.sum(axis=0)
    g_a1 = (g_a2 @ p.w2.T) * (1.0 - z1 * z1)
    g_w1 = e.T @ g_a1
    g_b1 = g_a1.sum(axis=0)
    g_e = g_a1 @ p.w1.T
    grads = {"w1": g_w1, "b1": g_b1, "w2": g_w2, "b2": g_b2,
             "w3": g_w3, "b3": g_b3}
    return grads, g_e


def network_forward(net: Network, frames: np.ndarray):
    emb, enc_cache = encoder_forward(net.encoder, frames)
    proj, proj_cache = projection_forward(net.projection, emb)
    return emb, proj, (enc_cache, proj_cache)


def network_backward(net: Network, caches, g_proj: np.ndarray) -> dict:
    """Gradients for every parameter, keyed encoder.* / projection.*."""
    enc_cache, proj_cache = caches
    proj_grads, g_emb = projection_backward(net.projection, proj_cache, g_proj)
    enc_grads = encoder_backward(net.encoder, enc_cache, g_emb)
    out = {f"projection.{k}": v for k, v in proj_grads.items()}
    out.update({f"encoder.{k}": v for k, v in enc_grads.items()})
    return out


def forward_embed(net: Network, frames: np.ndarray):
    """Single utterance (T, F) -> (backbone embedding, unit projection)."""
    x = np.asarray(frames, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeMismatch(f"expected (T, F) frames, got shape {x.shape}")
    emb, proj, _ = network_forward(net, x[None])
    return emb[0], proj[0]


def prototype_scores(projected: np.ndarray, prototypes: np.ndarray) -> np.ndarray:
    y = np.asarray(projected, dtype=np.float64)
    if y.shape[-1] != prototypes.shape[1]:
        raise ShapeMismatch(
            f"projection dim {y.shape[-1]} != prototype dim {prototypes.shape[1]}")
    return y @ prototypes.T


def prototype_distribution(projected, prototypes, temperature: float,
                           center=None) -> np.ndarray:
    """softmax((projected . prototypes - center) / temperature)."""
    scores = prototype_scores(projected, prototypes)
    if center is not None:
        scores = scores - np.asarray(center, dtype=np.float64)
    return numerics.softmax(scores, temperature)


def normalize_prototypes(prototypes: np.ndarray):
    norms = np.linalg.norm(prototypes, axis=1, keepdims=True)
    if (norms <= numerics.EPS_COLUMN).any():
        raise ZeroVector("a prototype collapsed to zero norm")
    prototypes /= norms
    return prototypes


def ema_update(pair: TeacherStudentPair, momentum: float) -> TeacherStudentPair:
    """teacher <- momentum * teacher + (1 - momentum) * student, in place.

    The only sanctioned way to move teacher parameters; the optimizer never
    touches them. Prototypes are shared, not averaged.
    """
    if not 0.0 <= momentum < 1.0:
        raise InvalidConfig(f"ema momentum must be in [0, 1), got {momentum}")
    for (_, t_arr), (_, s_arr) in zip(pair.teacher.named_arrays("t"),
                                      pair.student.named_arrays("s")):
        t_arr *= momentum
        t_arr += (1.0 - momentum) * s_arr
    return pair


def ema_momentum_at(step: int, total_steps: int, base: float) -> float:
    """Cosine ramp of the teacher momentum from ``base`` at step 0 toward 1."""
    if total_steps <= 0:
        return base
    progress = min(max(step / total_steps, 0.0), 1.0)
    return 1.0 - (1.0 - base) * (math.cos(math.pi * progress) + 1.0) / 2.0


# ----------------------------------------------------------------------
# checkpoint container


def save_checkpoint(path, tensors: dict[str, np.ndarray], fingerprint: str):
    """Atomic write of named float64 tensors plus a config fingerprint."""
    payload = bytearray()
    payload += CHECKPOINT_MAGIC
    payload += struct.pack("<H", CHECKPOINT_VERSION)
    fp_raw = fingerprint.encode("utf-8")
    payload += struct.pack("<H", len(fp_raw))
    payload += fp_raw
    payload += struct.pack("<I", len(tensors))
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")
        raw = name.encode("utf-8")
        payload += struct.pack("<H", len(raw))
        payload += raw
        payload += struct.pack("<B", arr.ndim)
        for dim in arr.shape:
            payload += struct.pack("<I", dim)
        payload += arr.tobytes()
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def load_checkpoint(path):
    r = BinaryReader(path)
    r.expect_magic(CHECKPOINT_MAGIC, "a checkpoint")
    (version,) = r.unpack("<H", "version")
    if version != CHECKPOINT_VERSION:
        raise MalformedFile(path, 4, f"unsupported checkpoint version {version}")
    (fp_len,) = r.unpack("<H", "fingerprint length")
    fingerprint = r.take(fp_len, "fingerprint").decode("utf-8")
    (count,) = r.unpack("<I", "tensor count")
    tensors = {}
    for _ in range(count):
        (nlen,) = r.unpack("<H", "name length")
        name = r.take(nlen, "name").decode("utf-8")
        (ndim,) = r.unpack("<B", "rank")
        shape = tuple(r.unpack("<I", "dim")[0] for _ in range(ndim))
        size = int(np.prod(shape)) if shape else 1
        tensors[name] = r.float64s(size, f"tensor '{name}'").reshape(shape)
    r.expect_end("last tensor")
    return tensors, fingerprint


def pair_tensors(pair: TeacherStudentPair) -> dict[str, np.ndarray]:
    return {name: arr for name, arr in pair.named_arrays()}


def _params_from(tensors, prefix, cls):
    kwargs = {}
    for f in fields(cls):
        key = f"{prefix}.{f.name}"
        if key not in tensors:
            raise MalformedFile("<checkpoint>", 0, f"missing tensor '{key}'")
        kwargs[f.name] = tensors[key].copy()
    return cls(**kwargs)


def pair_from_tensors(tensors: dict[str, np.ndarray],
                      ema_momentum: float = 0.996) -> TeacherStudentPair:
    def network(prefix):
        return Network(
            _params_from(tensors, f"{prefix}.encoder", EncoderParams),
            _params_from(tensors, f"{prefix}.projection", ProjectionParams),
        )

    if "prototypes" not in tensors:
        raise MalformedFile("<checkpoint>", 0, "missing tensor 'prototypes'")
    return TeacherStudentPair(network("student"), network("teacher"),
                              tensors["prototypes"].copy(), ema_momentum)

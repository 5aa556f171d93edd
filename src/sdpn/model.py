"""Toy-scale teacher/student networks with a shared prototype bank.

All weights live in one dict of float64 arrays keyed by checkpoint tensor
name: ``student.encoder.w1`` ... ``student.projection.b3``, the same under
``teacher.``, and ``prototypes``. The trainer adds its ``optimizer.*``
tensors to the same dict, and a checkpoint is that dict on disk.

Frame encoder: per-frame tanh layer -> mean+std pooling over time -> linear
embedding. Projection head: two tanh layers plus a linear output, L2
normalized per row. Prototype scores are dot products against unit-norm
prototype rows; the teacher path subtracts a running center before its
softmax. Forward passes cache what the hand-written backward passes need;
there is no autodiff anywhere. The encoder forward can write its (B, T, H)
activations into buffers its caller owns, and the encoder backward consumes
its cache: it builds the frame-level gradient in place inside those
buffers. So a training step that reuses its buffers allocates no array of
that size, and each forward cache serves exactly one backward.

Checkpoints are a single self-describing binary container (see
docs/formats.md): magic ``SDCK``, version, a config fingerprint string, then
named float64 little-endian tensors sorted by name.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from . import numerics
from .data import BinaryReader, atomic_write
from .errors import InvalidConfig, MalformedFile, ShapeMismatch, ZeroVector

# Keeps the std branch of the pooling differentiable at zero variance.
EPS_POOL_VAR = 1e-10

CHECKPOINT_MAGIC = b"SDCK"
CHECKPOINT_VERSION = 1


def init_params(rng, *, feature_dim, encoder_hidden, embed_dim, proj_hidden,
                proj_dim, num_prototypes) -> dict[str, np.ndarray]:
    """Fresh weights keyed by checkpoint tensor name. ``rng`` draws the
    student's weight matrices in layer order (encoder w1, w2, projection
    w1-w3), scaled by 1/sqrt(fan_in), then the unit-norm prototype rows;
    biases start at zero and the teacher starts as a copy of the student."""
    layers = {"encoder": [(feature_dim, encoder_hidden),
                          (2 * encoder_hidden, embed_dim)],
              "projection": [(embed_dim, proj_hidden),
                             (proj_hidden, proj_hidden),
                             (proj_hidden, proj_dim)]}
    params = {}
    for part, shapes in layers.items():
        for i, (fan_in, fan_out) in enumerate(shapes, 1):
            params[f"student.{part}.w{i}"] = \
                rng.standard_normal((fan_in, fan_out)) / math.sqrt(fan_in)
            params[f"student.{part}.b{i}"] = np.zeros(fan_out)
    params.update({"teacher" + name.removeprefix("student"): arr.copy()
                   for name, arr in params.items()})
    protos = rng.standard_normal((num_prototypes, proj_dim))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    params["prototypes"] = protos
    return params


# ----------------------------------------------------------------------
# forward / backward
#
# Each pass takes the parameter dict and a branch prefix ("student" or
# "teacher") and reads ``<prefix>.encoder.*`` / ``<prefix>.projection.*``;
# gradients come back under the same full names.


def encoder_forward(params, prefix: str, frames: np.ndarray, out=None):
    """frames (B, T, F) -> embeddings (B, E) plus the backward cache.

    ``out``, if given, is a pair of (B, T, H) float64 buffers that receive
    the frame activations and their centered copy, which the cache then
    holds; without it both are fresh arrays. The result does not depend on
    what the buffers held before, so a consumed cache's pair can be reused.
    """
    w1, b1, w2, b2 = (params[f"{prefix}.encoder.{k}"]
                      for k in ("w1", "b1", "w2", "b2"))
    x = np.asarray(frames, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeMismatch(f"expected (B, T, F) frames, got shape {x.shape}")
    if x.shape[-1] != w1.shape[0]:
        raise ShapeMismatch(
            f"feature dim {x.shape[-1]} != encoder input dim {w1.shape[0]}")
    t = x.shape[1]
    h1, centered = out if out is not None else (None, None)
    h1 = np.matmul(x, w1, out=h1)
    h1 += b1
    np.tanh(h1, out=h1)
    mu = h1.mean(axis=1)
    centered = np.subtract(h1, mu[:, None, :], out=centered)
    var = np.einsum("bth,bth->bh", centered, centered) / t
    sd = np.sqrt(var + EPS_POOL_VAR)
    pooled = np.concatenate([mu, sd], axis=1)
    emb = pooled @ w2 + b2
    return emb, (x, h1, centered, sd, pooled)


def encoder_backward(params, prefix: str, cache, g_emb: np.ndarray) -> dict:
    """Gradients of the encoder parameters given d loss / d embeddings.

    Consumes ``cache``: the frame-level gradient is built in place inside
    the forward's ``h1`` and ``centered`` buffers, so each forward cache
    serves exactly one backward.
    """
    x, h1, centered, sd, pooled = cache
    t, hidden = h1.shape[1:]
    g_pooled = g_emb @ params[f"{prefix}.encoder.w2"].T
    g_w2 = pooled.T @ g_emb
    g_b2 = g_emb.sum(axis=0)
    g_mu = g_pooled[:, :hidden]
    g_sd = g_pooled[:, hidden:]
    # g_a1 = (g_mu / t + g_sd * centered / (t * sd)) * (1 - h1 * h1)
    g_a1 = centered
    g_a1 *= (g_sd / (t * sd))[:, None, :]
    g_a1 += (g_mu / t)[:, None, :]
    np.multiply(h1, h1, out=h1)
    np.subtract(1.0, h1, out=h1)
    g_a1 *= h1
    g_w1 = x.reshape(-1, x.shape[2]).T @ g_a1.reshape(-1, hidden)
    g_b1 = g_a1.sum(axis=(0, 1))
    return {f"{prefix}.encoder.{k}": v for k, v in
            (("w1", g_w1), ("b1", g_b1), ("w2", g_w2), ("b2", g_b2))}


def projection_forward(params, prefix: str, emb: np.ndarray):
    """embeddings (B, E) -> unit-norm projections (B, P) plus cache."""
    w1, b1, w2, b2, w3, b3 = (params[f"{prefix}.projection.{k}"] for k in
                              ("w1", "b1", "w2", "b2", "w3", "b3"))
    e = np.asarray(emb, dtype=np.float64)
    z1 = np.tanh(e @ w1 + b1)
    z2 = np.tanh(z1 @ w2 + b2)
    z3 = z2 @ w3 + b3
    r = np.linalg.norm(z3, axis=1, keepdims=True)
    if (r <= numerics.EPS_COLUMN).any():
        raise ZeroVector("projection head produced a zero vector")
    y = z3 / r
    return y, (e, z1, z2, y, r)


def projection_backward(params, prefix: str, cache, g_y: np.ndarray):
    """(gradients of the projection parameters, d loss / d embeddings)."""
    w1, w2, w3 = (params[f"{prefix}.projection.{k}"]
                  for k in ("w1", "w2", "w3"))
    e, z1, z2, y, r = cache
    g_z3 = (g_y - y * np.einsum("bp,bp->b", y, g_y)[:, None]) / r
    g_w3 = z2.T @ g_z3
    g_b3 = g_z3.sum(axis=0)
    g_a2 = (g_z3 @ w3.T) * (1.0 - z2 * z2)
    g_w2 = z1.T @ g_a2
    g_b2 = g_a2.sum(axis=0)
    g_a1 = (g_a2 @ w2.T) * (1.0 - z1 * z1)
    g_w1 = e.T @ g_a1
    g_b1 = g_a1.sum(axis=0)
    g_e = g_a1 @ w1.T
    grads = {f"{prefix}.projection.{k}": v for k, v in
             (("w1", g_w1), ("b1", g_b1), ("w2", g_w2), ("b2", g_b2),
              ("w3", g_w3), ("b3", g_b3))}
    return grads, g_e


def network_forward(params, prefix: str, frames: np.ndarray, out=None):
    """Encoder then projection head; ``out`` as in ``encoder_forward``."""
    emb, enc_cache = encoder_forward(params, prefix, frames, out)
    proj, proj_cache = projection_forward(params, prefix, emb)
    return emb, proj, (enc_cache, proj_cache)


def network_backward(params, prefix: str, caches, g_proj: np.ndarray) -> dict:
    """Gradients of every ``<prefix>.*`` parameter, encoder first.
    Consumes ``caches`` (see ``encoder_backward``)."""
    enc_cache, proj_cache = caches
    proj_grads, g_emb = projection_backward(params, prefix, proj_cache,
                                            g_proj)
    grads = encoder_backward(params, prefix, enc_cache, g_emb)
    grads.update(proj_grads)
    return grads


def forward_embed(params, prefix: str, frames_list) -> np.ndarray:
    """Backbone embeddings (N, E) of N utterances of (T, F) frames each, in
    input order; reads only the ``<prefix>.encoder.*`` tensors. Utterances
    of one length go through ``encoder_forward`` together, in blocks of
    about ``numerics.BLOCK_ELEMENTS`` frame activations."""
    utts = [np.asarray(f, dtype=np.float64) for f in frames_list]
    feature_dim, hidden = params[f"{prefix}.encoder.w1"].shape
    by_length: dict[int, list[int]] = {}
    for i, x in enumerate(utts):
        if x.ndim != 2 or x.shape[1] != feature_dim:
            raise ShapeMismatch(f"utterance {i}: expected (T, {feature_dim}) "
                                f"frames, got shape {x.shape}")
        by_length.setdefault(x.shape[0], []).append(i)
    out = np.empty((len(utts), params[f"{prefix}.encoder.w2"].shape[1]))
    for t, rows in by_length.items():
        for b in numerics.blocks(len(rows), t * hidden):
            block = rows[b]
            out[block], _ = encoder_forward(
                params, prefix, np.stack([utts[i] for i in block]))
    return out


def prototype_scores(projected: np.ndarray, prototypes: np.ndarray) -> np.ndarray:
    y = np.asarray(projected, dtype=np.float64)
    if y.shape[-1] != prototypes.shape[1]:
        raise ShapeMismatch(
            f"projection dim {y.shape[-1]} != prototype dim {prototypes.shape[1]}")
    return y @ prototypes.T


def prototype_distribution(projected, prototypes,
                           temperature: float) -> np.ndarray:
    """softmax((projected . prototypes) / temperature)."""
    return numerics.softmax(prototype_scores(projected, prototypes),
                            temperature)


def normalize_prototypes(prototypes: np.ndarray):
    norms = np.linalg.norm(prototypes, axis=1, keepdims=True)
    if (norms <= numerics.EPS_COLUMN).any():
        raise ZeroVector("a prototype collapsed to zero norm")
    prototypes /= norms
    return prototypes


def ema_update(params, momentum: float):
    """teacher <- momentum * teacher + (1 - momentum) * student, in place,
    for every ``teacher.*`` tensor of ``params``.

    The only sanctioned way to move teacher parameters; the optimizer never
    touches them. Prototypes are shared, not averaged.
    """
    if not 0.0 <= momentum < 1.0:
        raise InvalidConfig(f"ema momentum must be in [0, 1), got {momentum}")
    for name, t_arr in params.items():
        if name.startswith("teacher."):
            t_arr *= momentum
            t_arr += (1.0 - momentum) * params["student" + name[7:]]
    return params


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
    atomic_write(path, payload)


def load_checkpoint(path):
    """(tensors by name, fingerprint) of the checkpoint at ``path``."""
    r = BinaryReader(path)
    r.expect_magic(CHECKPOINT_MAGIC, "a checkpoint")
    (version,) = r.unpack("<H", "version")
    if version != CHECKPOINT_VERSION:
        raise MalformedFile(path, 4, f"unsupported checkpoint version {version}")
    (fp_len,) = r.unpack("<H", "fingerprint length")
    fingerprint = r.text(fp_len, "fingerprint")
    (count,) = r.unpack("<I", "tensor count")
    tensors = {}
    name = None
    for _ in range(count):
        record = r.off
        (nlen,) = r.unpack("<H", "name length")
        previous, name = name, r.text(nlen, "name")
        if previous is not None and name <= previous:
            raise MalformedFile(path, record, f"tensor '{name}' is repeated "
                                "or out of name order")
        (ndim,) = r.unpack("<B", "rank")
        shape = tuple(r.unpack("<I", "dim")[0] for _ in range(ndim))
        if ndim == 0 or 0 in shape:
            raise MalformedFile(path, record,
                                f"tensor '{name}' has empty shape {shape}")
        tensors[name] = r.float64s(shape, f"tensor '{name}'")
    r.expect_end("last tensor")
    return tensors, fingerprint

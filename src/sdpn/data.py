"""Synthetic corpus generation, the multi-crop batch sampler with its
masking augmentation, and the on-disk feature format.

Feature files (see docs/formats.md): magic ``SDFK``, version u16, T u32,
F u32, then T*F little-endian float64 row-major, then a length-prefixed
UTF-8 utterance id. The corpus manifest is
``utterance_id<TAB>path[<TAB>speaker_id]`` with paths relative to the
manifest's directory; it is the only place a speaker id is stored.

Speaker labels exist only for evaluation plumbing: ``load_corpus`` hands
``train`` and ``embed`` utterances without them, and the trainer gets its
views from ``iter_crop_sets`` as two float64 arrays of frames.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (DataError, InvalidConfig, MalformedFile,
                     UtteranceTooShort)

FEATURE_MAGIC = b"SDFK"
FEATURE_VERSION = 2


@dataclass
class Utterance:
    utterance_id: str
    speaker_id: str | None
    frames: np.ndarray  # (T, F) float64


def generate_synthetic_corpus(num_speakers: int, utts_per_speaker: int,
                              frames_per_utt: int, feature_dim: int,
                              intra_speaker_spread: float,
                              seed: int) -> list[Utterance]:
    """Speakers are separable by construction: each gets a random mean
    vector plus a slow sinusoidal pattern; frames add spread-scaled noise.
    Utterance ids are opaque sequential strings so no label leaks through
    them into the training path.
    """
    if num_speakers < 2 or utts_per_speaker < 1:
        raise InvalidConfig(
            f"need >= 2 speakers and >= 1 utt each, got {num_speakers}/{utts_per_speaker}")
    if frames_per_utt < 1 or feature_dim < 1:
        raise InvalidConfig(
            f"frames_per_utt and feature_dim must be >= 1, got "
            f"{frames_per_utt}/{feature_dim}")
    if not intra_speaker_spread > 0:
        raise InvalidConfig(
            f"intra_speaker_spread must be > 0, got {intra_speaker_spread}")

    rng = np.random.default_rng(seed)
    t = np.arange(frames_per_utt)
    corpus = []
    counter = 0
    for s in range(num_speakers):
        mean = rng.standard_normal(feature_dim)
        pattern = rng.standard_normal(feature_dim) * 0.5
        cycles = rng.uniform(0.5, 2.0)
        for _ in range(utts_per_speaker):
            phase = rng.uniform(0.0, 2.0 * np.pi)
            wave = np.sin(2.0 * np.pi * cycles * t / frames_per_utt + phase)
            noise = rng.standard_normal((frames_per_utt, feature_dim))
            frames = mean + wave[:, None] * pattern + intra_speaker_spread * noise
            corpus.append(Utterance(f"utt{counter:05d}", f"spk{s:03d}", frames))
            counter += 1
    return corpus


def mask_in_place(views: np.ndarray, num_time_masks: int,
                  num_freq_masks: int, max_width: int, rng) -> np.ndarray:
    """Set ``num_time_masks`` runs of frames and ``num_freq_masks`` runs of
    features of every view of the (N, T, F) float64 array ``views`` to that
    view's mean, in place, and return ``views``. Runs may overlap; widths
    are uniform in 1..max_width. ``rng`` draws the (N, num_time_masks) time
    widths, then their starts, then the same for the feature runs."""
    if num_time_masks < 0 or num_freq_masks < 0:
        raise InvalidConfig("mask counts must be >= 0")
    if num_time_masks == 0 and num_freq_masks == 0:
        return views
    n, t, f = views.shape
    if not 1 <= max_width < min(t, f):
        raise InvalidConfig(f"max_width must be in [1, min(T, F)), got "
                            f"{max_width} for {views.shape[1:]}")
    fill = views.mean(axis=(1, 2))
    in_time, in_freq = (_mask_runs(rng, n, count, size, max_width)
                        for count, size in ((num_time_masks, t),
                                            (num_freq_masks, f)))
    np.copyto(views, fill[:, None, None],
              where=in_time[:, :, None] | in_freq[:, None, :])
    return views


def _mask_runs(rng, n: int, count: int, size: int, max_width: int):
    """(n, size) bool: which of ``size`` positions ``count`` random runs
    per row cover. ``rng`` draws all widths, then all starts."""
    width = rng.integers(1, max_width + 1, size=(n, count))
    start = rng.integers(0, size - width + 1)[..., None]
    pos = np.arange(size)
    return ((pos >= start) & (pos < start + width[..., None])).any(axis=1)


def iter_crop_sets(utterances, crops, rng, mask, out=None):
    """Crop the CropConfig ``crops`` views of every utterance into a
    (B, G, Tg, F) and a (B, L, Tl, F) float64 array: ``out`` if given, else
    a fresh pair. Returns the pair. Each view is a uniform random contiguous
    slice; if the MaskConfig ``mask`` is enabled, each kind of view is then
    masked as a whole (see ``mask_in_place``). ``rng`` draws the (B, G+L)
    starts in one call (per utterance, its G global starts, then its L
    local ones), then the global views' mask draws, then the local ones'.
    Only frames reach the arrays, no id or label.
    """
    g, l = crops.num_global, crops.num_local
    len_g, len_l = crops.len_global, crops.len_local
    if not 0 < len_l < len_g:
        raise InvalidConfig(
            f"need 0 < len_local < len_global, got {len_l}/{len_g}")
    if g < 1 or l < 1:
        raise InvalidConfig("need at least one global and one local view")
    lengths = np.array([utt.frames.shape[0] for utt in utterances])
    short = np.flatnonzero(lengths < len_g)
    if short.size:
        utt = utterances[short[0]]
        raise UtteranceTooShort(f"utterance '{utt.utterance_id}' has "
                                f"{utt.frames.shape[0]} frames < {len_g}")
    frames = np.concatenate([utt.frames for utt in utterances])
    if out is None:
        b, f = len(utterances), frames.shape[1]
        out = (np.empty((b, g, len_g, f)), np.empty((b, l, len_l, f)))
    view_len = np.repeat([len_g, len_l], [g, l])
    starts = rng.integers(0, lengths[:, None] - view_len + 1)
    starts += (np.cumsum(lengths) - lengths)[:, None]  # rows of ``frames``
    for views, first in zip(out, (starts[:, :g], starts[:, g:])):
        length = views.shape[2]
        # mode="clip" writes ``out`` directly; "raise" would buffer it
        np.take(frames, first[..., None] + np.arange(length), axis=0,
                out=views, mode="clip")
        if mask.enabled:
            mask_in_place(views.reshape(-1, *views.shape[2:]),
                          mask.num_time_masks, mask.num_freq_masks,
                          mask.max_width, rng)
    return out


# ----------------------------------------------------------------------
# feature files and manifests


def read_bytes(path) -> bytes:
    """The bytes of the file at ``path``; a file that cannot be read (it is
    missing, a directory, or not permitted) is a DataError naming it."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None


def read_lines(path) -> list[str]:
    """The lines of the UTF-8 text file at ``path`` without their line
    ends, numbered as text-mode iteration numbers them (CRLF and a lone CR
    end a line too). A byte that is not UTF-8 is a MalformedFile naming
    its line."""
    blob = read_bytes(path)
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len(_split_lines(blob[:exc.start].decode("utf-8")))
        raise MalformedFile(path, lineno,
                            f"byte {exc.start} is not valid UTF-8") from None
    return _split_lines(text)


def _split_lines(text: str) -> list[str]:
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


class BinaryReader:
    """Cursor over the bytes of one binary file (feature file, checkpoint or
    embedding store). Every short read, bad magic and leftover byte raises
    MalformedFile naming the offset and the field being read."""

    def __init__(self, path):
        self.path = path
        self.blob = read_bytes(path)
        self.off = 0

    def take(self, n: int, what: str) -> bytes:
        if self.off + n > len(self.blob):
            raise MalformedFile(self.path, self.off,
                                f"truncated while reading {what}")
        chunk = self.blob[self.off:self.off + n]
        self.off += n
        return chunk

    def text(self, n: int, what: str) -> str:
        raw = self.take(n, what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise MalformedFile(self.path, self.off - n,
                                f"{what} is not valid UTF-8") from None

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def float64s(self, shape: tuple[int, ...], what: str) -> np.ndarray:
        """Little-endian float64 values filling ``shape`` as a fresh float64
        array; a value that is not finite is a MalformedFile at its offset."""
        start = self.off
        raw = np.frombuffer(self.take(8 * math.prod(shape), what), "<f8")
        bad = np.flatnonzero(~np.isfinite(raw))[:1]
        if bad.size:
            index = tuple(map(int, np.unravel_index(bad[0], shape)))
            raise MalformedFile(self.path, start + 8 * int(bad[0]),
                                f"non-finite value {raw[bad[0]]} at {index} "
                                f"of {what}")
        return raw.astype(np.float64).reshape(shape)

    def expect_magic(self, magic: bytes, kind: str):
        if self.take(len(magic), "magic") != magic:
            raise MalformedFile(self.path, 0, f"bad magic, not {kind}")

    def expect_end(self, what: str):
        if self.off != len(self.blob):
            raise MalformedFile(self.path, self.off,
                                f"trailing bytes after {what}")


def atomic_write(path, payload: bytes):
    """Write to a ``.tmp`` sibling, fsync it and rename it over ``path``, so
    a crash never leaves a half-written file behind. If the write, fsync or
    rename fails, the ``.tmp`` sibling is removed; an OSError becomes a
    DataError naming ``path``, anything else is re-raised."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException as exc:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        if isinstance(exc, OSError):
            raise DataError(
                f"cannot write {path}: {exc.strerror or exc}") from None
        raise


def make_dir(path) -> Path:
    """Create directory ``path`` and its parents if missing; an OSError (a
    file already at ``path`` or on its way) becomes a DataError naming it."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(
            f"cannot create directory {path}: {exc.strerror or exc}") from None
    return Path(path)


def write_feature_file(utt: Utterance, path):
    frames = np.ascontiguousarray(utt.frames, dtype="<f8")
    if frames.ndim != 2:
        raise InvalidConfig(f"frames must be 2-d, got shape {frames.shape}")
    t, f = frames.shape
    uid = utt.utterance_id.encode("utf-8")
    try:
        with open(path, "wb") as fh:
            fh.write(FEATURE_MAGIC)
            fh.write(struct.pack("<HII", FEATURE_VERSION, t, f))
            fh.write(frames.tobytes())
            fh.write(struct.pack("<H", len(uid)))
            fh.write(uid)
    except OSError as exc:
        raise DataError(
            f"cannot write {path}: {exc.strerror or exc}") from None


def read_feature_file(path) -> Utterance:
    r = BinaryReader(path)
    r.expect_magic(FEATURE_MAGIC, "a feature file")
    version, t, f = r.unpack("<HII", "header")
    if version != FEATURE_VERSION:
        raise MalformedFile(path, 4, f"unsupported feature version {version}")
    if t == 0 or f == 0:
        raise MalformedFile(path, 6, f"empty {t}x{f} frame matrix")
    frames = r.float64s((t, f), "frames")
    (ulen,) = r.unpack("<H", "utterance id length")
    uid = r.text(ulen, "utterance id")
    r.expect_end("utterance id")
    return Utterance(uid, None, frames)


def save_corpus(corpus, out_dir) -> Path:
    """Write one feature file per utterance, then ``manifest.tsv`` through
    ``atomic_write``; returns the manifest path. A file that cannot be
    written is a DataError naming it."""
    out = make_dir(out_dir)
    lines = []
    for utt in corpus:
        rel = f"{utt.utterance_id}.sdfk"
        write_feature_file(utt, out / rel)
        if utt.speaker_id is None:
            lines.append(f"{utt.utterance_id}\t{rel}")
        else:
            lines.append(f"{utt.utterance_id}\t{rel}\t{utt.speaker_id}")
    manifest = out / "manifest.tsv"
    atomic_write(manifest, ("\n".join(lines) + "\n").encode("utf-8"))
    return manifest


@dataclass(frozen=True)
class ManifestEntry:
    utterance_id: str
    path: Path
    speaker_id: str | None


def read_manifest(path) -> list[ManifestEntry]:
    base = Path(path).parent
    entries = {}
    for lineno, line in enumerate(read_lines(path), 1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) not in (2, 3):
            raise MalformedFile(path, lineno,
                                "expected utterance_id<TAB>path[<TAB>speaker_id]")
        if parts[0] in entries:
            raise MalformedFile(path, lineno,
                                f"repeated utterance id '{parts[0]}'")
        speaker = parts[2] if len(parts) == 3 else None
        entries[parts[0]] = ManifestEntry(parts[0], base / parts[1], speaker)
    return list(entries.values())


def load_corpus(manifest_path) -> list[Utterance]:
    """The manifest's utterances in order, each without a speaker id."""
    corpus = []
    for entry in read_manifest(manifest_path):
        utt = read_feature_file(entry.path)
        if utt.utterance_id != entry.utterance_id:
            raise MalformedFile(
                entry.path, 0,
                f"utterance id '{utt.utterance_id}' does not match manifest "
                f"entry '{entry.utterance_id}'")
        corpus.append(utt)
    return corpus

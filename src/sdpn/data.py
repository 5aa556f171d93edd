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

import contextlib
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, MalformedFile

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
    are uniform in 1..max_width < min(T, F). ``rng`` draws the (N,
    num_time_masks) time widths, then their starts, then the same for the
    feature runs; with no runs it draws nothing."""
    if num_time_masks == 0 and num_freq_masks == 0:
        return views
    n, t, f = views.shape
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
    Only frames reach the arrays, no id or label. Every utterance holds at
    least ``crops.len_global`` frames (see ``trainer.check_inputs``).
    """
    g, l = crops.num_global, crops.num_local
    len_g, len_l = crops.len_global, crops.len_local
    lengths = np.array([utt.frames.shape[0] for utt in utterances])
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


class os_errors(contextlib.AbstractContextManager):
    """Context manager that turns an OSError raised in its block (a missing
    file, no permission) into a DataError ``cannot <action> <path>: ...``."""

    def __init__(self, action: str, path):
        self.action, self.path = action, path

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, OSError):
            raise DataError(f"cannot {self.action} {self.path}: "
                            f"{exc.strerror or exc}") from None


def read_bytes(path) -> bytes:
    """The bytes of the file at ``path``; see ``os_errors``."""
    with os_errors("read", path), open(path, "rb") as fh:
        return fh.read()


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
    """Cursor over a binary file past its ``magic`` and u16 ``version``,
    which it checks. Every short read, bad magic or version and leftover
    byte is a MalformedFile naming the offset and the field being read."""

    def __init__(self, path, magic: bytes, version: int, kind: str):
        self.path, self.blob, self.off = path, read_bytes(path), 0
        if self.take(len(magic), "magic") != magic:
            raise MalformedFile(path, 0, f"bad magic, not an sdpn {kind} file")
        (found,) = self.unpack("<H", "version")
        if found != version:
            raise MalformedFile(path, 4, f"unsupported {kind} version {found}")

    def take(self, n: int, what: str) -> bytes:
        start = self.off
        if start + n > len(self.blob):
            raise MalformedFile(self.path, start,
                                f"truncated while reading {what}")
        self.off = start + n
        return self.blob[start:start + n]

    def unpack(self, fmt: str, what: str) -> tuple:
        """``fmt``'s fields, read in place at the cursor."""
        start = self.off
        end = start + struct.calcsize(fmt)
        if end > len(self.blob):
            raise MalformedFile(self.path, start,
                                f"truncated while reading {what}")
        self.off = end
        return struct.unpack_from(fmt, self.blob, start)

    def name(self, what: str) -> str:
        """A name field (see ``pack_name``): u16 byte length, then UTF-8."""
        (n,) = self.unpack("<H", what)
        raw = self.take(n, what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise MalformedFile(self.path, self.off - n,
                                f"{what} is not valid UTF-8") from None

    def float64s(self, shape: tuple[int, ...], what: str) -> np.ndarray:
        """Little-endian float64 values filling ``shape`` as a fresh float64
        array, read from the file's bytes without an intermediate copy; a
        value that is not finite is a MalformedFile at its offset."""
        start, count = self.off, math.prod(shape)
        if start + 8 * count > len(self.blob):
            raise MalformedFile(self.path, start,
                                f"truncated while reading {what}")
        raw = np.frombuffer(self.blob, "<f8", count, start)
        if not np.isfinite(raw).all():
            bad = int(np.flatnonzero(~np.isfinite(raw))[0])
            index = tuple(map(int, np.unravel_index(bad, shape)))
            raise MalformedFile(self.path, start + 8 * bad,
                                f"non-finite value {raw[bad]} at {index} "
                                f"of {what}")
        self.off = start + 8 * count
        return raw.astype(np.float64).reshape(shape)

    def expect_end(self, what: str):
        if self.off != len(self.blob):
            raise MalformedFile(self.path, self.off,
                                f"trailing bytes after {what}")


def pack_name(text: str, path) -> bytes:
    """A name field: the u16 length of ``text`` in UTF-8, then its bytes;
    a DataError naming ``path`` if ``text`` has no UTF-8 form (a lone
    surrogate, as an undecodable byte of a command-line argument becomes)
    or is too long."""
    try:
        raw = text.encode("utf-8")
    except UnicodeEncodeError:
        raise DataError(f"cannot write {path}: name {text[:12]!r} is not "
                        "valid UTF-8") from None
    if len(raw) > 0xFFFF:
        raise DataError(f"cannot write {path}: name {text[:12]!r}... is over "
                        "the 65535 bytes of UTF-8 a name field holds")
    return struct.pack("<H", len(raw)) + raw


def pack_float64s(values, path, what: str) -> memoryview:
    """Little-endian float64 bytes of ``values``, row-major, as a byte view;
    a non-finite value, which every reader refuses, is a DataError."""
    arr = np.ascontiguousarray(values, dtype="<f8")
    if not np.isfinite(arr).all():
        bad = tuple(np.argwhere(~np.isfinite(arr))[0].tolist())
        raise DataError(f"cannot write {path}: {what} has a non-finite value "
                        f"at {bad}")
    return memoryview(arr.reshape(-1).view(np.uint8))


def atomic_write(path, payload: bytes):
    """Write to a ``.tmp`` sibling, fsync it and rename it over ``path``, so
    a crash never leaves a half-written file behind. If the write, fsync or
    rename fails, the ``.tmp`` sibling is removed; an OSError becomes a
    DataError naming ``path`` (see ``os_errors``)."""
    tmp = f"{path}.tmp"
    with os_errors("write", path):
        try:
            with open(tmp, "wb") as fh:
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise


def make_dir(path) -> Path:
    """Create directory ``path`` and its parents if missing; an OSError (a
    file already at ``path`` or on its way) becomes a DataError naming it."""
    with os_errors("create directory", path):
        Path(path).mkdir(parents=True, exist_ok=True)
    return Path(path)


def write_feature_file(utt: Utterance, path):
    """Frames the reader refuses are a DataError; nothing is written."""
    owner = f"utterance '{utt.utterance_id}'"
    frames = np.asarray(utt.frames)
    if frames.ndim != 2 or 0 in frames.shape:
        raise DataError(f"cannot write {path}: {owner} has frames of shape "
                        f"{frames.shape}, not a non-empty matrix")
    payload = bytearray(FEATURE_MAGIC)
    payload += struct.pack("<HII", FEATURE_VERSION, *frames.shape)
    payload += pack_float64s(frames, path, owner)
    payload += pack_name(utt.utterance_id, path)
    with os_errors("write", path), open(path, "wb") as fh:
        fh.write(payload)


def read_feature_file(path) -> Utterance:
    r = BinaryReader(path, FEATURE_MAGIC, FEATURE_VERSION, "feature")
    t, f = r.unpack("<II", "frame shape")
    if t == 0 or f == 0:
        raise MalformedFile(path, 6, f"empty {t}x{f} frame matrix")
    frames = r.float64s((t, f), "frames")
    uid = r.name("utterance id")
    r.expect_end("utterance id")
    return Utterance(uid, None, frames)


def save_corpus(corpus, out_dir) -> Path:
    """Write one feature file per utterance, then ``manifest.tsv`` through
    ``atomic_write``; returns the manifest path. An id the manifest cannot
    hold (see docs/formats.md) is a DataError before ``out_dir`` is made,
    and a file that cannot be written is one naming it."""
    manifest = Path(out_dir) / "manifest.tsv"
    for utt in corpus:
        for key, forbidden in ((utt.utterance_id, "\t\r\n/"),
                               (utt.speaker_id or "", "\t\r\n")):
            pack_name(key, manifest)
            bad = [c for c in forbidden if c in key]
            if bad:
                raise DataError(f"cannot write {manifest}: id {key!r} holds "
                                f"{bad[0]!r}")
    out = make_dir(out_dir)
    lines = []
    for utt in corpus:
        rel = f"{utt.utterance_id}.sdfk"
        write_feature_file(utt, out / rel)
        if utt.speaker_id is None:
            lines.append(f"{utt.utterance_id}\t{rel}")
        else:
            lines.append(f"{utt.utterance_id}\t{rel}\t{utt.speaker_id}")
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

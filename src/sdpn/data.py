"""Synthetic corpus generation, multi-crop sampling, masking augmentation,
and the on-disk feature format.

Feature files (see docs/formats.md): magic ``SDFK``, version u16, T u32,
F u32, then T*F little-endian float64 row-major, then a length-prefixed
UTF-8 utterance id and an optional length-prefixed speaker id. The corpus
manifest is ``utterance_id<TAB>path[<TAB>speaker_id]`` with paths relative
to the manifest's directory.

Speaker labels exist only for evaluation plumbing: everything handed to the
trainer (crop sets) carries the opaque utterance id alone.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidConfig, MalformedFile, UtteranceTooShort

FEATURE_MAGIC = b"SDFK"
FEATURE_VERSION = 1


@dataclass
class Utterance:
    utterance_id: str
    speaker_id: str | None
    frames: np.ndarray  # (T, F) float64


@dataclass
class CropSet:
    """Training views for one utterance; deliberately label-free."""

    global_views: list
    local_views: list
    source: str


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


def sample_crops(utt: Utterance, num_global: int, num_local: int,
                 len_global: int, len_local: int, rng) -> CropSet:
    """Uniform random contiguous crops; global crops must be the longer kind."""
    if not 0 < len_local < len_global:
        raise InvalidConfig(
            f"need 0 < len_local < len_global, got {len_local}/{len_global}")
    if num_global < 1 or num_local < 1:
        raise InvalidConfig("need at least one global and one local view")
    t = utt.frames.shape[0]
    if t < len_global:
        raise UtteranceTooShort(
            f"utterance '{utt.utterance_id}' has {t} frames < {len_global}")

    def crop(length):
        start = int(rng.integers(0, t - length + 1))
        return utt.frames[start:start + length].copy()

    return CropSet([crop(len_global) for _ in range(num_global)],
                   [crop(len_local) for _ in range(num_local)],
                   utt.utterance_id)


def spec_mask(frames, num_time_masks: int, num_freq_masks: int,
              max_width: int, rng) -> np.ndarray:
    """Set randomly placed contiguous frame rows / feature columns to the
    matrix mean. Exactly ``num_time_masks + num_freq_masks`` regions are
    drawn (they may overlap); widths are uniform in 1..max_width. Zero masks
    requested returns the input unchanged (as a copy).
    """
    x = np.asarray(frames, dtype=np.float64)
    if x.ndim != 2:
        raise InvalidConfig(f"expected a (T, F) matrix, got shape {x.shape}")
    if num_time_masks < 0 or num_freq_masks < 0:
        raise InvalidConfig("mask counts must be >= 0")
    out = x.copy()
    if num_time_masks == 0 and num_freq_masks == 0:
        return out
    t, f = x.shape
    if not 1 <= max_width < min(t, f):
        raise InvalidConfig(
            f"max_width must be in [1, min(T, F)), got {max_width} for {x.shape}")
    fill = x.mean()
    for _ in range(num_time_masks):
        width = int(rng.integers(1, max_width + 1))
        start = int(rng.integers(0, t - width + 1))
        out[start:start + width, :] = fill
    for _ in range(num_freq_masks):
        width = int(rng.integers(1, max_width + 1))
        start = int(rng.integers(0, f - width + 1))
        out[:, start:start + width] = fill
    return out


def iter_crop_sets(utterances, crops, rng, mask=None):
    """Trainer-facing view sampler. ``crops`` is a CropConfig, ``mask`` an
    optional MaskConfig; yielded CropSets never see speaker labels."""
    for utt in utterances:
        cs = sample_crops(utt, crops.num_global, crops.num_local,
                          crops.len_global, crops.len_local, rng)
        if mask is not None and mask.enabled:
            cs = CropSet(
                [spec_mask(v, mask.num_time_masks, mask.num_freq_masks,
                           mask.max_width, rng) for v in cs.global_views],
                [spec_mask(v, mask.num_time_masks, mask.num_freq_masks,
                           mask.max_width, rng) for v in cs.local_views],
                cs.source,
            )
        yield cs


# ----------------------------------------------------------------------
# feature files and manifests


class BinaryReader:
    """Cursor over the bytes of one binary file (feature file, checkpoint or
    embedding store). Every short read, bad magic and leftover byte raises
    MalformedFile naming the offset and the field being read."""

    def __init__(self, path):
        self.path = path
        self.blob = Path(path).read_bytes()
        self.off = 0

    def take(self, n: int, what: str) -> bytes:
        if self.off + n > len(self.blob):
            raise MalformedFile(self.path, self.off,
                                f"truncated while reading {what}")
        chunk = self.blob[self.off:self.off + n]
        self.off += n
        return chunk

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def float64s(self, count: int, what: str) -> np.ndarray:
        """``count`` little-endian float64 values as a fresh float64 array."""
        raw = np.frombuffer(self.take(8 * count, what), dtype="<f8")
        return raw.astype(np.float64)

    def expect_magic(self, magic: bytes, kind: str):
        if self.take(len(magic), "magic") != magic:
            raise MalformedFile(self.path, 0, f"bad magic, not {kind}")

    def at_end(self) -> bool:
        return self.off == len(self.blob)

    def expect_end(self, what: str):
        if not self.at_end():
            raise MalformedFile(self.path, self.off,
                                f"trailing bytes after {what}")


def write_feature_file(utt: Utterance, path):
    frames = np.ascontiguousarray(utt.frames, dtype="<f8")
    if frames.ndim != 2:
        raise InvalidConfig(f"frames must be 2-d, got shape {frames.shape}")
    t, f = frames.shape
    uid = utt.utterance_id.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<HII", FEATURE_VERSION, t, f))
        fh.write(frames.tobytes())
        fh.write(struct.pack("<H", len(uid)))
        fh.write(uid)
        if utt.speaker_id is not None:
            sid = utt.speaker_id.encode("utf-8")
            fh.write(struct.pack("<H", len(sid)))
            fh.write(sid)


def read_feature_file(path, include_speaker: bool = True) -> Utterance:
    r = BinaryReader(path)
    r.expect_magic(FEATURE_MAGIC, "a feature file")
    version, t, f = r.unpack("<HII", "header")
    if version != FEATURE_VERSION:
        raise MalformedFile(path, 4, f"unsupported feature version {version}")
    frames = r.float64s(t * f, "frames").reshape(t, f)
    (ulen,) = r.unpack("<H", "utterance id length")
    uid = r.take(ulen, "utterance id").decode("utf-8")
    speaker = None
    if not r.at_end():
        (slen,) = r.unpack("<H", "speaker id length")
        speaker = r.take(slen, "speaker id").decode("utf-8")
    r.expect_end("trailers")
    return Utterance(uid, speaker if include_speaker else None, frames)


def save_corpus(corpus, out_dir, manifest_name: str = "manifest.tsv") -> Path:
    """Write one feature file per utterance plus the manifest; returns the
    manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    for utt in corpus:
        rel = f"{utt.utterance_id}.sdfk"
        write_feature_file(utt, out / rel)
        if utt.speaker_id is None:
            lines.append(f"{utt.utterance_id}\t{rel}")
        else:
            lines.append(f"{utt.utterance_id}\t{rel}\t{utt.speaker_id}")
    manifest = out / manifest_name
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


@dataclass(frozen=True)
class ManifestEntry:
    utterance_id: str
    path: Path
    speaker_id: str | None


def read_manifest(path) -> list[ManifestEntry]:
    base = Path(path).parent
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) not in (2, 3):
                raise MalformedFile(path, lineno,
                                    "expected utterance_id<TAB>path[<TAB>speaker_id]")
            speaker = parts[2] if len(parts) == 3 else None
            entries.append(ManifestEntry(parts[0], base / parts[1], speaker))
    return entries


def load_corpus(manifest_path, include_speaker: bool = True) -> list[Utterance]:
    corpus = []
    for entry in read_manifest(manifest_path):
        utt = read_feature_file(entry.path, include_speaker=include_speaker)
        if utt.utterance_id != entry.utterance_id:
            raise MalformedFile(
                entry.path, 0,
                f"utterance id '{utt.utterance_id}' does not match manifest "
                f"entry '{entry.utterance_id}'")
        if include_speaker and utt.speaker_id is None:
            utt.speaker_id = entry.speaker_id
        corpus.append(utt)
    return corpus


def build_trial_list(corpus) -> list:
    """All unordered utterance pairs labeled by speaker match. Requires
    speaker labels; returns scoring.Trial records in deterministic order."""
    from .scoring import Trial

    labeled = [(u.utterance_id, u.speaker_id) for u in corpus]
    if any(s is None for _, s in labeled):
        raise InvalidConfig("trial generation needs speaker labels on every "
                            "utterance")
    trials = []
    for i in range(len(labeled)):
        for j in range(i + 1, len(labeled)):
            same = labeled[i][1] == labeled[j][1]
            trials.append(Trial("1" if same else "0",
                                labeled[i][0], labeled[j][0]))
    return trials

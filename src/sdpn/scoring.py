"""Cosine trial scoring with Z/T/S/AS cohort normalization.

Also builds the all-pairs trial list and owns the on-disk formats for trial
lists (``label enroll test``, space-separated, label 1/0/-), tab-separated
score files with six-decimal values, and the binary embedding store.
"""

from __future__ import annotations

import functools
import math
import struct
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .data import BinaryReader, atomic_write, read_lines
from .errors import (
    DataError,
    DegenerateCohort,
    InvalidConfig,
    KTooLarge,
    MalformedFile,
    MissingEmbedding,
    ZeroVector,
)
from .numerics import blocks

EPS_SIGMA = 1e-9
METHODS = ("cosine", "z", "t", "s", "as")

STORE_MAGIC = b"SDES"
STORE_VERSION = 1


class EmbeddingStore:
    """Utterance ids and their embeddings, the rows of one (N, E) float64
    matrix in id order, with a binary file format. ``unit`` holds the rows
    scaled to unit L2 norm, the only input of every cosine."""

    def __init__(self, ids, matrix):
        self.ids = list(ids)
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self._row = {key: i for i, key in enumerate(self.ids)}
        if not (self.matrix.ndim == 2
                and len(self.matrix) == len(self._row) == len(self.ids)):
            raise InvalidConfig(
                "a store needs a 2-d matrix with one row per distinct id, got "
                f"{len(self.ids)} ids and shape {self.matrix.shape}")

    def __len__(self):
        return len(self.ids)

    @functools.cached_property
    def unit(self) -> np.ndarray:
        """The matrix with each row divided by its L2 norm, computed once;
        a row of norm at most EPS_SIGMA has no cosine, a ZeroVector."""
        norms = np.linalg.norm(self.matrix, axis=1)
        zero = np.flatnonzero(norms <= EPS_SIGMA)
        if zero.size:
            raise ZeroVector(f"vector '{self.ids[zero[0]]}' has L2 norm "
                             f"{norms[zero[0]]:.3g}; its cosine is undefined")
        return self.matrix / norms[:, None]

    def rows(self, keys) -> np.ndarray:
        """Matrix row of each id in ``keys``, as an intp array; the first
        id the store lacks is a MissingEmbedding."""
        try:
            return np.fromiter(map(self._row.__getitem__, keys), dtype=np.intp)
        except KeyError as exc:
            raise MissingEmbedding(
                f"no embedding for utterance '{exc.args[0]}'") from None

    def save(self, path):
        payload = bytearray(STORE_MAGIC)
        payload += struct.pack("<HI", STORE_VERSION, len(self.ids))
        dim = struct.pack("<I", self.matrix.shape[1])
        for key, vec in zip(self.ids, self.matrix.astype("<f8", copy=False)):
            raw = key.encode("utf-8")
            payload += struct.pack("<H", len(raw)) + raw + dim + vec.tobytes()
        atomic_write(path, payload)

    @classmethod
    def load(cls, path) -> "EmbeddingStore":
        r = BinaryReader(path)
        r.expect_magic(STORE_MAGIC, "an embedding store")
        version, count = r.unpack("<HI", "header")
        if version != STORE_VERSION:
            raise MalformedFile(path, 4, f"unsupported version {version}")
        offsets, chunks, store_dim = {}, [], None  # id -> record offset
        for _ in range(count):
            record = r.off
            (klen,) = r.unpack("<H", "id length")
            key = r.text(klen, "id")
            if key in offsets:
                raise MalformedFile(path, record, f"repeated id '{key}'")
            offsets[key] = record
            (dim,) = r.unpack("<I", "dim")
            if store_dim is None:
                store_dim = dim
            elif dim != store_dim:
                raise MalformedFile(
                    path, record,
                    f"vector '{key}' has dim {dim}, the store has {store_dim}")
            chunks.append(r.take(8 * dim, f"vector '{key}'"))
        r.expect_end("last record")
        ids = list(offsets)
        matrix = np.frombuffer(b"".join(chunks), dtype="<f8").astype(
            np.float64).reshape(count, store_dim or 0)
        # a non-finite entry makes the norm non-finite too; a finite vector
        # whose norm overflows would score as a wrong cosine of 0
        with np.errstate(over="ignore"):
            bad = np.flatnonzero(~np.isfinite(np.linalg.norm(matrix, axis=1)))
        if bad.size:
            i = bad[0]
            what = "is not finite" if not np.isfinite(matrix[i]).all() \
                else "has an L2 norm that overflows float64"
            raise MalformedFile(path, offsets[ids[i]],
                                f"vector '{ids[i]}' {what}")
        return cls(ids, matrix)


class Trial(NamedTuple):
    label: str  # "1", "0", or "-"
    enroll: str
    test: str


def read_trials(path) -> list[Trial]:
    lines = read_lines(path)
    fields = " ".join(lines).split()
    if ({len(line.split()) for line in lines} <= {0, 3}
            and set(fields[0::3]) <= {"1", "0", "-"}):
        return list(map(Trial, fields[0::3], fields[1::3], fields[2::3]))
    for lineno, line in enumerate(lines, 1):  # name the first bad line
        parts = line.split()
        if parts and (len(parts) != 3 or parts[0] not in ("1", "0", "-")):
            raise MalformedFile(
                path, lineno,
                f"expected 'label enroll test', got {line.strip()!r}")


def build_trial_list(corpus) -> list[Trial]:
    """All unordered utterance pairs labeled by speaker match, in corpus
    order. Requires a speaker label on every utterance."""
    if any(u.speaker_id is None for u in corpus):
        raise InvalidConfig("trial generation needs speaker labels on every "
                            "utterance")
    ids = np.array([u.utterance_id for u in corpus], dtype=object)
    speakers = np.array([u.speaker_id for u in corpus], dtype=object)
    i, j = np.triu_indices(len(corpus), k=1)
    labels = np.where(speakers[i] == speakers[j], "1", "0")
    return list(map(Trial, labels.tolist(), ids[i].tolist(), ids[j].tolist()))


def check_trial_ids(ids, path):
    """DataError for an id that is empty or holds whitespace, which a trial
    list written to ``path`` would not read back as one field."""
    bad = next((k for k in ids if k.split() != [k]), None)
    if bad is not None:
        raise DataError(f"cannot write {path}: trial id {bad!r} is empty or "
                        "holds whitespace, which separates trial list fields")


def write_trials(trials, path):
    ids = chain.from_iterable(map(itemgetter(1, 2), trials))  # enroll, test
    check_trial_ids(dict.fromkeys(ids), path)
    text = "".join(f"{t.label} {t.enroll} {t.test}\n" for t in trials)
    atomic_write(path, text.encode("utf-8"))


def write_scores(trials, raw, normalized, path, header: str):
    """One line per trial: enroll, test, raw and normalized to 6 decimals."""
    lines = [f"# {header}\n"]
    lines += [f"{t.enroll}\t{t.test}\t{r:.6f}\t{n:.6f}\n" for t, r, n
              in zip(trials, np.asarray(raw).tolist(),
                     np.asarray(normalized).tolist())]
    text = "".join(lines)
    if "\n#" in text:  # read_scores would skip that row as a comment
        raise DataError(f"cannot write {path}: an enroll id starts with "
                        "'#', which marks a comment line in a score file")
    atomic_write(path, text.encode("utf-8"))


def read_scores(path) -> tuple[list[str], list[str], np.ndarray, np.ndarray]:
    """Columns (enroll ids, test ids, raw, normalized) of a score file; the
    scores are float64 arrays parsed with Python ``float``. A row that is
    not four fields, or a score that is not a finite number, is a
    MalformedFile naming its line."""
    lines = read_lines(path)
    rows = [line for line in lines if line and not line.startswith("#")]
    if {row.count("\t") for row in rows} <= {3}:
        fields = "\t".join(rows).split("\t") if rows else []
        try:
            raw, normalized = (np.array(list(map(float, fields[k::4])))
                               for k in (2, 3))
        except ValueError:
            pass
        else:
            if np.isfinite(raw).all() and np.isfinite(normalized).all():
                return fields[0::4], fields[1::4], raw, normalized
    for lineno, line in enumerate(lines, 1):  # name the first bad line
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise MalformedFile(path, lineno,
                                "expected enroll<TAB>test<TAB>raw<TAB>normalized")
        try:
            scores = float(parts[2]), float(parts[3])
        except ValueError:
            raise MalformedFile(path, lineno,
                                "raw and normalized must be numbers") from None
        if not all(map(math.isfinite, scores)):
            raise MalformedFile(path, lineno,
                                "raw and normalized must be finite")


class Cohort(EmbeddingStore):
    """The embedding store that score normalization compares against."""

    @classmethod
    def from_store(cls, store: EmbeddingStore, trial_ids=None,
                   overlap: str = "error") -> "Cohort":
        """The rows of ``store`` whose ids are not in ``trial_ids``; an
        overlap is rejected or its rows dropped depending on ``overlap``
        ('error' or 'drop'). Fewer than 2 rows left is a DegenerateCohort."""
        trial_set = set(trial_ids or ())
        overlapping = [i for i in store.ids if i in trial_set]
        if overlapping and overlap != "drop":
            raise InvalidConfig(
                f"{len(overlapping)} cohort id(s) appear in the trial list "
                f"(first: '{overlapping[0]}'); use drop mode or a disjoint "
                "cohort")
        ids = [i for i in store.ids if i not in trial_set]
        if len(ids) < 2:
            raise DegenerateCohort(f"cohort needs >= 2 entries, got {len(ids)}")
        return cls(ids, store.matrix[store.rows(ids)])


def cohort_scores(unit_rows, cohort: Cohort) -> np.ndarray:
    """Cosines of unit-norm rows against the cohort, one per column."""
    return unit_rows @ cohort.unit.T


def cohort_stats(scores, top_k: int | None = None,
                 sample_stddev: bool = False):
    """(mu, sigma): mean and stddev of cohort scores along the last axis,
    optionally over the top-K largest; floats for one score list, one value
    per row for a matrix.

    The top K are taken from a descending sort, so they come in the same
    order whatever the cohort order, and ties cannot change which values are
    kept. Population stddev by default.
    """
    s = np.asarray(scores, dtype=np.float64)
    n = s.shape[-1]
    if top_k is not None:
        if top_k > n:
            raise KTooLarge(f"top_k={top_k} exceeds cohort size {n}")
        if top_k < 2:
            raise InvalidConfig(f"top_k must be >= 2, got {top_k}")
        s = -np.sort(-s, axis=-1)[..., :top_k]
    k = s.shape[-1]
    if k < 2:
        raise DegenerateCohort(f"need >= 2 cohort scores, got {k}")
    return s.mean(axis=-1), s.std(axis=-1, ddof=1 if sample_stddev else 0)


def standardize(raw, mu, sigma):
    """``(raw - mu) / sigma``, raw scores standardized by the cohort stats
    of one side (see ``cohort_stats``); a sigma at or under EPS_SIGMA is a
    DegenerateCohort."""
    if np.min(sigma, initial=np.inf) <= EPS_SIGMA:
        raise DegenerateCohort(
            f"cohort score spread {np.min(sigma)} too small to normalize")
    return (raw - mu) / sigma


class TrialScorer:
    """Scores a trial list against a store as whole arrays.

    Trial ids index the rows of the store's ``unit`` matrix; cohort
    statistics are computed once per id that the method reads (enroll ids
    for z, test ids for t, both for s and as), and ``cohort_computes``
    counts those ids. A normalized score is the mean of the raw score
    standardized by each side the method reads; "as" differs from "s" only
    in taking its stats over the top K.
    """

    def __init__(self, store: EmbeddingStore, cohort: Cohort | None,
                 method: str = "cosine", top_k: int | None = None,
                 sample_stddev: bool = False):
        if method not in METHODS:
            raise InvalidConfig(f"unknown method '{method}', want one of {METHODS}")
        if method != "cosine" and cohort is None:
            raise InvalidConfig(f"method '{method}' needs a cohort")
        if top_k is not None and method != "as":
            raise InvalidConfig(
                f"top_k applies to method 'as' only, got it with '{method}'")
        if method == "as" and top_k is None:
            top_k = min(300, len(cohort))
        self.store = store
        self.cohort = cohort
        self.method = method
        self.top_k = top_k
        self.sample_stddev = sample_stddev
        self.cohort_computes = 0

    def score_trials(self, trials) -> tuple[np.ndarray, np.ndarray]:
        """(raw cosine, normalized) float64 arrays in trial order."""
        unit = self.store.unit
        pairs = self.store.rows(
            i for _, e, t in trials for i in (e, t)).reshape(-1, 2)
        raw = np.empty(len(pairs))
        for b in blocks(len(pairs), 2 * unit.shape[1]):
            raw[b] = (unit[pairs[b, 0]] * unit[pairs[b, 1]]).sum(axis=-1)
        if self.method == "cosine":
            return raw, raw.copy()

        sides = {"z": [0], "t": [1]}.get(self.method, [0, 1])
        rows = np.unique(pairs[:, sides])
        self.cohort_computes += rows.size
        mu, sigma = np.zeros((2, len(unit)))
        top_k = self.top_k if self.method == "as" else None
        for b in blocks(rows.size, len(self.cohort)):
            mu[rows[b]], sigma[rows[b]] = cohort_stats(
                cohort_scores(unit[rows[b]], self.cohort),
                top_k=top_k, sample_stddev=self.sample_stddev)
        side_rows = pairs[:, sides].T  # one row of store rows per side
        return raw, standardize(raw, mu[side_rows],
                                sigma[side_rows]).mean(axis=0)

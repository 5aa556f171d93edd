"""Cosine trial scoring with Z/T/S/AS cohort normalization.

Also builds the all-pairs trial list and owns the on-disk formats for trial
lists (``label enroll test``, space-separated, label 1/0/-), tab-separated
score files with six-decimal values, and the binary embedding store.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
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

EPS_SIGMA = 1e-9
# Scoring works on blocks of rows holding about this many float64 values,
# which bounds its working memory whatever the trial list or cohort size.
BLOCK_ELEMENTS = 2 ** 18
METHODS = ("cosine", "z", "t", "s", "as")

STORE_MAGIC = b"SDES"
STORE_VERSION = 1


class EmbeddingStore:
    """Utterance ids and their embeddings, the rows of one (N, E) float64
    matrix in id order, with a binary file format."""

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


def cosine_score(e, t):
    """Cosine along the last axis: one value per pair of rows."""
    a = np.asarray(e, dtype=np.float64)
    b = np.asarray(t, dtype=np.float64)
    na = np.linalg.norm(a, axis=-1)
    nb = np.linalg.norm(b, axis=-1)
    if min(na.min(), nb.min()) <= EPS_SIGMA:
        raise ZeroVector("cosine of a zero embedding is undefined")
    return (a * b).sum(axis=-1) / (na * nb)


class Cohort:
    """Fixed set of cohort embeddings, pre-normalized for cosine scoring."""

    def __init__(self, ids: list[str], matrix: np.ndarray):
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != len(ids):
            raise InvalidConfig("cohort matrix must have one row per id")
        if m.shape[0] < 2:
            raise DegenerateCohort(f"cohort needs >= 2 entries, got {m.shape[0]}")
        norms = np.linalg.norm(m, axis=1)
        if (norms <= EPS_SIGMA).any():
            raise ZeroVector("cohort contains a zero embedding")
        self.ids = list(ids)
        self.unit = m / norms[:, None]

    def __len__(self):
        return len(self.ids)

    @classmethod
    def from_store(cls, store: EmbeddingStore, trial_ids=None,
                   overlap: str = "error") -> "Cohort":
        """Build from a store; ids overlapping the trial list are rejected
        or dropped depending on ``overlap`` ('error' or 'drop')."""
        trial_set = set(trial_ids or ())
        overlapping = [i for i in store.ids if i in trial_set]
        if overlapping and overlap != "drop":
            raise InvalidConfig(
                f"{len(overlapping)} cohort id(s) appear in the trial list "
                f"(first: '{overlapping[0]}'); use drop mode or a disjoint "
                "cohort")
        ids = [i for i in store.ids if i not in trial_set]
        return cls(ids, store.matrix[store.rows(ids)])


def cohort_scores(x, cohort: Cohort) -> np.ndarray:
    """Cosines of each row of ``x`` against the cohort, one per column."""
    v = np.asarray(x, dtype=np.float64)
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    if n.min() <= EPS_SIGMA:
        raise ZeroVector("cosine of a zero embedding is undefined")
    return (v / n) @ cohort.unit.T


@dataclass(frozen=True)
class CohortStats:
    mu: float | np.ndarray
    sigma: float | np.ndarray


def cohort_stats(scores, top_k: int | None = None,
                 sample_stddev: bool = False) -> CohortStats:
    """Mean/stddev of cohort scores along the last axis, optionally over the
    top-K largest; floats for one score list, one value per row for a matrix.

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
    return CohortStats(s.mean(axis=-1),
                       s.std(axis=-1, ddof=1 if sample_stddev else 0))


def _shift_scale(raw, stats: CohortStats):
    if np.min(stats.sigma, initial=np.inf) <= EPS_SIGMA:
        raise DegenerateCohort(
            f"cohort score spread {np.min(stats.sigma)} too small to normalize"
        )
    return (raw - stats.mu) / stats.sigma


def znorm(raw, enroll_stats: CohortStats):
    return _shift_scale(raw, enroll_stats)


def tnorm(raw, test_stats: CohortStats):
    return _shift_scale(raw, test_stats)


def snorm(raw, enroll_stats: CohortStats, test_stats: CohortStats):
    return 0.5 * (_shift_scale(raw, enroll_stats)
                  + _shift_scale(raw, test_stats))


def _blocks(rows: int, width: int):
    """Slices of ``rows`` rows of ``width`` values, ~BLOCK_ELEMENTS each."""
    step = max(1, BLOCK_ELEMENTS // max(1, width))
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


class TrialScorer:
    """Scores a trial list against a store as whole arrays.

    Trial ids index the rows of the store's matrix; cohort statistics are
    computed once per id that the method reads (enroll ids for z, test ids
    for t, both for s and as). ``cohort_computes`` counts those ids.
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
        matrix = self.store.matrix
        pairs = self.store.rows(
            i for _, e, t in trials for i in (e, t)).reshape(-1, 2)
        raw = np.empty(len(pairs))
        for b in _blocks(len(pairs), 2 * matrix.shape[1]):
            raw[b] = cosine_score(matrix[pairs[b, 0]], matrix[pairs[b, 1]])
        if self.method == "cosine":
            return raw, raw.copy()

        sides = {"z": [0], "t": [1]}.get(self.method, [0, 1])
        rows = np.unique(pairs[:, sides])
        self.cohort_computes += rows.size
        mu, sigma = np.zeros((2, len(matrix)))
        top_k = self.top_k if self.method == "as" else None
        for b in _blocks(rows.size, len(self.cohort)):
            stats = cohort_stats(cohort_scores(matrix[rows[b]], self.cohort),
                                 top_k=top_k, sample_stddev=self.sample_stddev)
            mu[rows[b]] = stats.mu
            sigma[rows[b]] = stats.sigma

        enroll, test = (CohortStats(mu[pairs[:, i]], sigma[pairs[:, i]])
                        for i in (0, 1))
        if self.method == "z":
            return raw, znorm(raw, enroll)
        if self.method == "t":
            return raw, tnorm(raw, test)
        return raw, snorm(raw, enroll, test)  # "as" differs only in top-K

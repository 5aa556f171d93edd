"""Cosine trial scoring with Z/T/S/AS cohort normalization.

Also owns the on-disk formats for trial lists (``label enroll test``,
space-separated, label 1/0/-), tab-separated score files with six-decimal
values, and the binary embedding store.
"""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import BinaryReader
from .errors import (
    DegenerateCohort,
    InvalidConfig,
    KTooLarge,
    MalformedFile,
    MissingEmbedding,
    ZeroVector,
)

EPS_SIGMA = 1e-9
METHODS = ("cosine", "z", "t", "s", "as")

STORE_MAGIC = b"SDES"
STORE_VERSION = 1


class EmbeddingStore:
    """Utterance-id -> float64 vector map with a binary file format."""

    def __init__(self, vectors: dict[str, np.ndarray]):
        self.vectors: dict[str, np.ndarray] = {}
        self.dim = None
        for key, vec in vectors.items():
            v = np.asarray(vec, dtype=np.float64).reshape(-1)
            if self.dim is None:
                self.dim = v.size
            elif v.size != self.dim:
                raise InvalidConfig(
                    f"embedding '{key}' has dim {v.size}, store has {self.dim}"
                )
            self.vectors[key] = v

    def __len__(self):
        return len(self.vectors)

    def __contains__(self, key):
        return key in self.vectors

    def ids(self) -> list[str]:
        return list(self.vectors)

    def get(self, key: str) -> np.ndarray:
        try:
            return self.vectors[key]
        except KeyError:
            raise MissingEmbedding(f"no embedding for utterance '{key}'") from None

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(STORE_MAGIC)
            fh.write(struct.pack("<HI", STORE_VERSION, len(self.vectors)))
            for key, vec in self.vectors.items():
                raw = key.encode("utf-8")
                fh.write(struct.pack("<H", len(raw)))
                fh.write(raw)
                fh.write(struct.pack("<I", vec.size))
                fh.write(vec.astype("<f8").tobytes())

    @classmethod
    def load(cls, path) -> "EmbeddingStore":
        r = BinaryReader(path)
        r.expect_magic(STORE_MAGIC, "an embedding store")
        version, count = r.unpack("<HI", "header")
        if version != STORE_VERSION:
            raise MalformedFile(path, 4, f"unsupported version {version}")
        vectors = {}
        for _ in range(count):
            (klen,) = r.unpack("<H", "id length")
            key = r.take(klen, "id").decode("utf-8")
            (dim,) = r.unpack("<I", "dim")
            vectors[key] = r.float64s(dim, f"vector '{key}'")
        r.expect_end("last record")
        return cls(vectors)


@dataclass(frozen=True)
class Trial:
    label: str  # "1", "0", or "-"
    enroll: str
    test: str


@dataclass(frozen=True)
class ScoredTrial:
    enroll: str
    test: str
    label: str
    raw: float
    normalized: float


def read_trials(path) -> list[Trial]:
    trials = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3 or parts[0] not in ("1", "0", "-"):
                raise MalformedFile(path, lineno,
                                    f"expected 'label enroll test', got {line!r}")
            trials.append(Trial(parts[0], parts[1], parts[2]))
    return trials


def write_trials(trials, path):
    with open(path, "w", encoding="utf-8") as fh:
        for t in trials:
            fh.write(f"{t.label} {t.enroll} {t.test}\n")


def write_scores(results, path, header: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        for r in results:
            fh.write(f"{r.enroll}\t{r.test}\t{r.raw:.6f}\t{r.normalized:.6f}\n")


def read_scores(path) -> list[ScoredTrial]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise MalformedFile(path, lineno,
                                    "expected enroll<TAB>test<TAB>raw<TAB>normalized")
            out.append(ScoredTrial(parts[0], parts[1], "-",
                                   float(parts[2]), float(parts[3])))
    return out


def cosine_score(e, t) -> float:
    a = np.asarray(e, dtype=np.float64)
    b = np.asarray(t, dtype=np.float64)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na <= EPS_SIGMA or nb <= EPS_SIGMA:
        raise ZeroVector("cosine of a zero embedding is undefined")
    return float(a @ b / (na * nb))


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
        ids = store.ids()
        if trial_ids:
            trial_set = set(trial_ids)
            overlapping = [i for i in ids if i in trial_set]
            if overlapping:
                if overlap == "drop":
                    ids = [i for i in ids if i not in trial_set]
                else:
                    raise InvalidConfig(
                        f"{len(overlapping)} cohort id(s) appear in the trial "
                        f"list (first: '{overlapping[0]}'); use drop mode or "
                        "a disjoint cohort"
                    )
        return cls(ids, np.stack([store.get(i) for i in ids]))


def cohort_scores(x, cohort: Cohort) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    n = np.linalg.norm(v)
    if n <= EPS_SIGMA:
        raise ZeroVector("cosine of a zero embedding is undefined")
    return cohort.unit @ (v / n)


@dataclass(frozen=True)
class CohortStats:
    mu: float
    sigma: float
    k_used: int


def cohort_stats(scores, top_k: int | None = None,
                 sample_stddev: bool = False) -> CohortStats:
    """Mean/stddev of cohort scores, optionally over the top-K largest.

    Top-K selection uses a stable descending sort, so ties are broken by
    cohort order. Population stddev by default.
    """
    s = np.asarray(scores, dtype=np.float64)
    n = s.size
    if top_k is not None:
        if top_k > n:
            raise KTooLarge(f"top_k={top_k} exceeds cohort size {n}")
        if top_k < 2:
            raise InvalidConfig(f"top_k must be >= 2, got {top_k}")
        order = np.argsort(-s, kind="stable")[:top_k]
        s = s[order]
    k = s.size
    if k < 2:
        raise DegenerateCohort(f"need >= 2 cohort scores, got {k}")
    mu = float(s.mean())
    sigma = float(s.std(ddof=1 if sample_stddev else 0))
    return CohortStats(mu, sigma, k)


def _shift_scale(raw: float, stats: CohortStats) -> float:
    if stats.sigma <= EPS_SIGMA:
        raise DegenerateCohort(
            f"cohort score spread {stats.sigma} too small to normalize"
        )
    return (raw - stats.mu) / stats.sigma


def znorm(raw: float, enroll_stats: CohortStats) -> float:
    return _shift_scale(raw, enroll_stats)


def tnorm(raw: float, test_stats: CohortStats) -> float:
    return _shift_scale(raw, test_stats)


def snorm(raw: float, enroll_stats: CohortStats,
          test_stats: CohortStats) -> float:
    return 0.5 * (_shift_scale(raw, enroll_stats)
                  + _shift_scale(raw, test_stats))


def asnorm(raw: float, enroll_scores, test_scores, top_k: int,
           sample_stddev: bool = False) -> float:
    """Adaptive S-norm: both sides standardized by their top-K cohort stats."""
    se = cohort_stats(enroll_scores, top_k=top_k, sample_stddev=sample_stddev)
    st = cohort_stats(test_scores, top_k=top_k, sample_stddev=sample_stddev)
    return snorm(raw, se, st)


class TrialScorer:
    """Scores trials against a store, caching cohort statistics per
    utterance. ``cohort_computes`` counts how many cohort score lists were
    actually computed (ids repeated across trials hit the cache)."""

    def __init__(self, store: EmbeddingStore, cohort: Cohort | None,
                 method: str = "cosine", top_k: int | None = None,
                 sample_stddev: bool = False):
        if method not in METHODS:
            raise InvalidConfig(f"unknown method '{method}', want one of {METHODS}")
        if method != "cosine" and cohort is None:
            raise InvalidConfig(f"method '{method}' needs a cohort")
        if method == "as" and top_k is None:
            top_k = min(300, len(cohort))
        self.store = store
        self.cohort = cohort
        self.method = method
        self.top_k = top_k
        self.sample_stddev = sample_stddev
        self.cohort_computes = 0
        self._stats_cache: dict[str, CohortStats] = {}

    def _stats_for(self, utt: str) -> CohortStats:
        cached = self._stats_cache.get(utt)
        if cached is None:
            scores = cohort_scores(self.store.get(utt), self.cohort)
            self.cohort_computes += 1
            top_k = self.top_k if self.method == "as" else None
            cached = cohort_stats(scores, top_k=top_k,
                                  sample_stddev=self.sample_stddev)
            self._stats_cache[utt] = cached
        return cached

    def score_one(self, trial: Trial) -> ScoredTrial:
        raw = cosine_score(self.store.get(trial.enroll),
                           self.store.get(trial.test))
        if self.method == "cosine":
            normalized = raw
        elif self.method == "z":
            normalized = znorm(raw, self._stats_for(trial.enroll))
        elif self.method == "t":
            normalized = tnorm(raw, self._stats_for(trial.test))
        else:  # "s" and "as" differ only in the top-K restriction
            normalized = snorm(raw, self._stats_for(trial.enroll),
                               self._stats_for(trial.test))
        return ScoredTrial(trial.enroll, trial.test, trial.label,
                           raw, normalized)

    def score_trials(self, trials, threads: int = 1) -> list[ScoredTrial]:
        if self.method != "cosine":
            # Single-writer phase: fill the cache serially so the threaded
            # phase is read-only and the output order never depends on timing.
            for t in trials:
                if self.method in ("z", "s", "as"):
                    self._stats_for(t.enroll)
                if self.method in ("t", "s", "as"):
                    self._stats_for(t.test)
        if threads <= 1:
            return [self.score_one(t) for t in trials]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(self.score_one, trials))

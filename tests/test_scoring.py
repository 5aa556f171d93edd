"""Cosine backend, cohort statistics, and the Z/T/S/AS normalizations."""

import numpy as np
import numpy.testing as npt
import pytest

from sdpn import scoring
from sdpn.errors import (
    DegenerateCohort,
    InvalidConfig,
    KTooLarge,
    MalformedFile,
    MissingEmbedding,
    ZeroVector,
)
from sdpn.scoring import (
    Cohort,
    CohortStats,
    EmbeddingStore,
    Trial,
    TrialScorer,
    asnorm,
    cohort_scores,
    cohort_stats,
    cosine_score,
    snorm,
    tnorm,
    znorm,
)


def unit_rng_store(n, dim, seed):
    rng = np.random.default_rng(seed)
    return EmbeddingStore({f"u{i:03d}": rng.standard_normal(dim)
                           for i in range(n)})


# ----------------------------------------------------------------------
# cosine


def test_cosine_parallel_orthogonal_antiparallel():
    a = np.array([1.0, 0.0])
    assert cosine_score(a, [2.0, 0.0]) == pytest.approx(1.0)
    assert cosine_score(a, [0.0, 5.0]) == pytest.approx(0.0)
    assert cosine_score(a, [-3.0, 0.0]) == pytest.approx(-1.0)


def test_cosine_scale_invariance_and_zero_rejection():
    rng = np.random.default_rng(61)
    a, b = rng.standard_normal(8), rng.standard_normal(8)
    assert cosine_score(a, b) == pytest.approx(cosine_score(7 * a, 0.2 * b),
                                               abs=1e-12)
    with pytest.raises(ZeroVector):
        cosine_score(np.zeros(4), b[:4])


# ----------------------------------------------------------------------
# cohort statistics


def test_cohort_stats_plain_mean_std():
    stats = cohort_stats([1.0, 2.0, 3.0, 4.0])
    assert stats.mu == pytest.approx(2.5)
    assert stats.sigma == pytest.approx(np.sqrt(1.25))  # population
    assert stats.k_used == 4


def test_cohort_stats_sample_flag():
    stats = cohort_stats([1.0, 2.0, 3.0, 4.0], sample_stddev=True)
    assert stats.sigma == pytest.approx(np.sqrt(5.0 / 3.0))


def test_cohort_stats_top_k_selection():
    stats = cohort_stats([0.9, 0.5, 0.1], top_k=2)
    assert stats.mu == pytest.approx(0.7)
    assert stats.sigma == pytest.approx(0.2)


def test_cohort_stats_top_k_tie_break_is_stable():
    # two s=0.5 entries: the earlier one wins the last top-3 slot, which is
    # observable through the mean when the later duplicate is replaced
    scores = [0.9, 0.5, 0.7, 0.5]
    stats = cohort_stats(scores, top_k=3)
    assert stats.mu == pytest.approx((0.9 + 0.7 + 0.5) / 3.0)


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
    stats = CohortStats(mu=0.5, sigma=0.25, k_used=10)
    assert znorm(1.0, stats) == pytest.approx(2.0)
    assert tnorm(0.25, stats) == pytest.approx(-1.0)
    other = CohortStats(mu=0.0, sigma=0.5, k_used=10)
    assert snorm(1.0, stats, other) == pytest.approx(0.5 * (2.0 + 2.0))


def test_snorm_degenerate_sigma():
    flat = CohortStats(mu=0.5, sigma=0.0, k_used=4)
    with pytest.raises(DegenerateCohort):
        znorm(1.0, flat)


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
    assert loaded.ids() == store.ids()
    for i in store.ids():
        npt.assert_array_equal(loaded.get(i), store.get(i))


def test_store_truncated_file(tmp_path):
    store = unit_rng_store(3, 4, seed=65)
    path = tmp_path / "emb.bin"
    store.save(path)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) - 9])
    with pytest.raises(MalformedFile):
        EmbeddingStore.load(path)


def test_store_missing_id_and_dim_check():
    store = unit_rng_store(3, 4, seed=66)
    with pytest.raises(MissingEmbedding):
        store.get("nope")
    with pytest.raises(InvalidConfig):
        EmbeddingStore({"a": np.ones(3), "b": np.ones(4)})


# ----------------------------------------------------------------------
# trials / scores files


def test_trials_roundtrip(tmp_path):
    trials = [Trial("1", "u000", "u001"), Trial("0", "u000", "u002"),
              Trial("-", "u003", "u004")]
    path = tmp_path / "trials.txt"
    scoring.write_trials(trials, path)
    assert scoring.read_trials(path) == trials


def test_trials_bad_label(tmp_path):
    path = tmp_path / "trials.txt"
    path.write_text("2 a b\n")
    with pytest.raises(MalformedFile):
        scoring.read_trials(path)


def test_scores_file_format(tmp_path):
    scored = [scoring.ScoredTrial("e", "t", "1", 0.123456789, 1.5)]
    path = tmp_path / "scores.txt"
    scoring.write_scores(scored, path, header="method=s")
    text = path.read_text().splitlines()
    assert text[0] == "# method=s"
    assert text[1] == "e\tt\t0.123457\t1.500000"
    back = scoring.read_scores(path)
    assert back[0].enroll == "e"
    assert back[0].raw == pytest.approx(0.123457)


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
    got = cohort_scores(probe, cohort)
    want = [cosine_score(probe, store.get(i)) for i in cohort.ids]
    npt.assert_allclose(got, want, atol=1e-12)


def make_scorer_setup(seed, n_utts=10, n_cohort=8, dim=6):
    rng = np.random.default_rng(seed)
    store = EmbeddingStore({f"u{i:03d}": rng.standard_normal(dim)
                            for i in range(n_utts)})
    cohort = Cohort([f"c{i}" for i in range(n_cohort)],
                    rng.standard_normal((n_cohort, dim)))
    trials = [Trial("1", "u000", "u001"), Trial("0", "u000", "u002"),
              Trial("1", "u001", "u002"), Trial("0", "u003", "u000")]
    return store, cohort, trials


def test_scorer_cosine_raw_equals_normalized():
    store, cohort, trials = make_scorer_setup(69)
    scorer = TrialScorer(store, None, method="cosine")
    for st in scorer.score_trials(trials):
        assert st.normalized == st.raw


def test_scorer_cohort_cache_computes_each_utterance_once():
    store, cohort, trials = make_scorer_setup(70)
    scorer = TrialScorer(store, cohort, method="s")
    scorer.score_trials(trials)
    distinct = {t.enroll for t in trials} | {t.test for t in trials}
    assert scorer.cohort_computes == len(distinct)


def test_scorer_threaded_matches_serial():
    store, cohort, trials = make_scorer_setup(71)
    serial = TrialScorer(store, cohort, method="as", top_k=4)
    threaded = TrialScorer(store, cohort, method="as", top_k=4)
    a = serial.score_trials(trials)
    b = threaded.score_trials(trials, threads=4)
    assert [(s.raw, s.normalized) for s in a] \
        == [(s.raw, s.normalized) for s in b]


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


def test_scorer_z_t_s_relationship():
    store, cohort, trials = make_scorer_setup(74)
    z = TrialScorer(store, cohort, method="z").score_trials(trials)
    t = TrialScorer(store, cohort, method="t").score_trials(trials)
    s = TrialScorer(store, cohort, method="s").score_trials(trials)
    for zi, ti, si in zip(z, t, s):
        assert si.normalized == pytest.approx(
            0.5 * (zi.normalized + ti.normalized), abs=1e-12)


def test_normalize_trials_missing_embedding():
    store, cohort, _ = make_scorer_setup(75)
    bad = [Trial("1", "u000", "ghost")]
    with pytest.raises(MissingEmbedding):
        TrialScorer(store, cohort, method="s").score_trials(bad)

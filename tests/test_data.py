"""Synthetic corpus, cropping, masking, and the feature-file format."""

import os
import struct
import tempfile
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sdpn import cli, data, model, scoring
from sdpn.config import CropConfig, MaskConfig
from sdpn.errors import (DataError, InvalidConfig, MalformedFile,
                         UtteranceTooShort)

NO_MASK = MaskConfig(enabled=False)


def small_corpus(seed=1, **kw):
    args = dict(num_speakers=4, utts_per_speaker=3, frames_per_utt=50,
                feature_dim=6, intra_speaker_spread=0.5, seed=seed)
    args.update(kw)
    return data.generate_synthetic_corpus(**args)


# ----------------------------------------------------------------------
# corpus generation


def test_corpus_shapes_ids_and_determinism():
    a = small_corpus()
    b = small_corpus()
    assert len(a) == 12
    assert [u.utterance_id for u in a] == [f"utt{i:05d}" for i in range(12)]
    assert a[0].frames.shape == (50, 6)
    for ua, ub in zip(a, b):
        npt.assert_array_equal(ua.frames, ub.frames)
    c = small_corpus(seed=2)
    assert not np.array_equal(a[0].frames, c[0].frames)


def test_corpus_utterance_ids_do_not_leak_speaker():
    for utt in small_corpus():
        assert utt.speaker_id not in utt.utterance_id


def test_corpus_speakers_form_separable_clusters():
    corpus = small_corpus(num_speakers=6, utts_per_speaker=5,
                          intra_speaker_spread=0.5)
    means = {u.utterance_id: u.frames.mean(axis=0) for u in corpus}
    centroids = {}
    for u in corpus:
        centroids.setdefault(u.speaker_id, []).append(means[u.utterance_id])
    centroids = {s: np.mean(v, axis=0) for s, v in centroids.items()}
    correct = 0
    for u in corpus:
        nearest = min(centroids, key=lambda s: np.linalg.norm(
            means[u.utterance_id] - centroids[s]))
        correct += nearest == u.speaker_id
    assert correct >= 0.95 * len(corpus)


def test_corpus_validation():
    with pytest.raises(InvalidConfig):
        small_corpus(num_speakers=1)
    with pytest.raises(InvalidConfig):
        small_corpus(intra_speaker_spread=0.0)
    with pytest.raises(InvalidConfig):
        small_corpus(frames_per_utt=0)


# ----------------------------------------------------------------------
# cropping


def test_crops_have_requested_shapes():
    corpus = small_corpus()[:3]
    rng = np.random.default_rng(5)
    gv, lv = data.iter_crop_sets(corpus, CropConfig(2, 4, 30, 10), rng,
                                 NO_MASK)
    assert gv.shape == (3, 2, 30, 6) and gv.dtype == np.float64
    assert lv.shape == (3, 4, 10, 6) and lv.dtype == np.float64


def test_crops_are_contiguous_slices():
    utt = small_corpus()[1]
    rng = np.random.default_rng(6)
    gv, _ = data.iter_crop_sets([utt], CropConfig(1, 1, 20, 7), rng, NO_MASK)
    g = gv[0, 0]
    # locate the crop in the source and confirm bit-identity
    for start in range(utt.frames.shape[0] - 20 + 1):
        if np.array_equal(utt.frames[start:start + 20], g):
            break
    else:  # pragma: no cover
        pytest.fail("global view is not a contiguous slice of the utterance")


def test_crop_exact_length_has_single_offset():
    utt = small_corpus()[2]
    exact = data.Utterance("x", None, utt.frames[:30])
    rng = np.random.default_rng(7)
    for _ in range(5):
        gv, _ = data.iter_crop_sets([exact], CropConfig(1, 1, 30, 10), rng,
                                    NO_MASK)
        npt.assert_array_equal(gv[0, 0], exact.frames)


def test_crop_errors():
    utt = small_corpus()[0]
    rng = np.random.default_rng(8)
    with pytest.raises(UtteranceTooShort):
        data.iter_crop_sets([utt], CropConfig(1, 1, 51, 10), rng, NO_MASK)
    with pytest.raises(InvalidConfig):
        data.iter_crop_sets([utt], CropConfig(1, 1, 10, 10), rng, NO_MASK)
    with pytest.raises(InvalidConfig):
        data.iter_crop_sets([utt], CropConfig(0, 1, 20, 10), rng, NO_MASK)


# ----------------------------------------------------------------------
# masking


def test_mask_zero_masks_is_identity_copy():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 12, 8))
    copy = x.copy()
    out = data.mask_in_place(copy, 0, 0, 3, rng)
    npt.assert_array_equal(out, x)
    assert out is copy


def test_mask_fill_is_matrix_mean_and_bounds_hold():
    # every view of the stack is filled with its own pre-mask mean
    rng = np.random.default_rng(10)
    x = rng.standard_normal((4, 20, 10)) + np.arange(4)[:, None, None]
    out = data.mask_in_place(x.copy(), 2, 1, 3, rng)
    for view, before in zip(out, x):
        changed = view != before
        assert changed.any()
        npt.assert_allclose(view[changed], before.mean(), atol=1e-15)


def test_mask_leaves_most_entries_untouched():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((5, 30, 20))
    k, w = 2, 4
    out = data.mask_in_place(x.copy(), k, k, w, rng)
    for view, before in zip(out, x):
        assert (view == before).sum() >= (30 - k * w) * (20 - k * w)


def test_mask_width_validation():
    rng = np.random.default_rng(12)
    x = np.zeros((2, 5, 9))
    with pytest.raises(InvalidConfig):
        data.mask_in_place(x.copy(), 1, 1, 5, rng)  # max_width >= min(T, F)
    with pytest.raises(InvalidConfig):
        data.mask_in_place(x.copy(), -1, 0, 2, rng)


# ----------------------------------------------------------------------
# feature files


def test_feature_file_roundtrip(tmp_path):
    utt = small_corpus()[3]
    path = tmp_path / "u.sdfk"
    data.write_feature_file(utt, path)
    back = data.read_feature_file(path)
    assert back.utterance_id == utt.utterance_id
    assert back.speaker_id is None  # the manifest holds speaker ids
    npt.assert_array_equal(back.frames, utt.frames)


def test_feature_file_without_speaker(tmp_path):
    utt = data.Utterance("solo", None, np.zeros((3, 2)))
    path = tmp_path / "solo.sdfk"
    data.write_feature_file(utt, path)
    assert data.read_feature_file(path).speaker_id is None


def test_feature_file_speaker_suppression(tmp_path):
    # a feature file has no speaker field: a labeled utterance is written
    # to the same bytes as the unlabeled one, and reads back unlabeled
    utt = small_corpus()[0]
    labeled, unlabeled = tmp_path / "l.sdfk", tmp_path / "u.sdfk"
    data.write_feature_file(utt, labeled)
    data.write_feature_file(
        data.Utterance(utt.utterance_id, None, utt.frames), unlabeled)
    assert labeled.read_bytes() == unlabeled.read_bytes()
    assert data.read_feature_file(labeled).speaker_id is None


def test_feature_file_golden_bytes(tmp_path):
    # authored from the wire layout, independent of the writer: a 2x3
    # matrix [[1,2,3],[4,5,6]] for utterance "ab"
    blob = b"SDFK"
    blob += struct.pack("<HII", 2, 2, 3)
    blob += struct.pack("<6d", 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    blob += struct.pack("<H", 2) + b"ab"
    path = tmp_path / "golden.sdfk"
    path.write_bytes(blob)
    utt = data.read_feature_file(path)
    assert utt.utterance_id == "ab"
    assert utt.speaker_id is None
    npt.assert_array_equal(utt.frames, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    # and the writer must reproduce those bytes exactly
    out = tmp_path / "rewritten.sdfk"
    data.write_feature_file(utt, out)
    assert out.read_bytes() == blob


def test_feature_file_version_1_rejected(tmp_path):
    # version 1 carried an optional speaker-id trailer; its files are not
    # read, whatever follows the header
    blob = b"SDFK"
    blob += struct.pack("<HII", 1, 1, 2)
    blob += struct.pack("<2d", 1.0, 2.0)
    blob += struct.pack("<H", 2) + b"ab"
    blob += struct.pack("<H", 1) + b"s"
    path = tmp_path / "v1.sdfk"
    path.write_bytes(blob)
    with pytest.raises(MalformedFile) as err:
        data.read_feature_file(path)
    assert err.value.offset == 4
    assert "unsupported feature version 1" in str(err.value)


def test_feature_file_truncation_offsets(tmp_path):
    utt = data.Utterance("abc", "spk", np.ones((4, 2)))
    path = tmp_path / "u.sdfk"
    data.write_feature_file(utt, path)
    raw = path.read_bytes()
    for cut in (2, 8, 20, len(raw) - 1):
        path.write_bytes(raw[:cut])
        with pytest.raises(MalformedFile):
            data.read_feature_file(path)
    path.write_bytes(raw + b"junk")
    with pytest.raises(MalformedFile):
        data.read_feature_file(path)
    path.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(MalformedFile) as err:
        data.read_feature_file(path)
    assert "magic" in str(err.value)


def _write_feature(path):
    data.write_feature_file(
        data.Utterance("abc", "spk", np.arange(8.0).reshape(4, 2)), path)


def _write_store(path):
    scoring.EmbeddingStore(["a", "bc"],
                           [np.ones(3), np.arange(3.0)]).save(path)


def _write_checkpoint(path):
    model.save_checkpoint(path, {"w": np.ones((2, 3)), "s": np.array(1.0)},
                          "fp")


BINARY_FORMATS = {
    "feature": (_write_feature, data.read_feature_file, (b"abc",)),
    "store": (_write_store, scoring.EmbeddingStore.load, (b"a", b"bc")),
    "checkpoint": (_write_checkpoint, model.load_checkpoint,
                   (b"fp", b"s", b"w")),
}


@pytest.mark.parametrize("fmt", sorted(BINARY_FORMATS))
def test_binary_readers_reject_prefixes_bad_magic_and_trailing_bytes(
        tmp_path, fmt):
    write, read, text_fields = BINARY_FORMATS[fmt]
    path = tmp_path / fmt
    write(path)
    raw = path.read_bytes()
    read(path)
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(MalformedFile) as err:
            read(path)
        assert err.value.offset <= cut
    path.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(MalformedFile) as err:
        read(path)
    assert err.value.offset == 0
    path.write_bytes(raw + b"\x00")
    with pytest.raises(MalformedFile) as err:
        read(path)
    assert err.value.offset == len(raw)
    # non-UTF-8 id: 0xff over the first byte of each id, name or fingerprint
    for field in text_fields:
        at = raw.index(field)
        path.write_bytes(raw[:at] + b"\xff" + raw[at + 1:])
        with pytest.raises(MalformedFile) as err:
            read(path)
        assert err.value.offset == at


def _write_eval_report(path):
    trials = path.with_name("trials.txt")
    trials.write_text("1 a b\n0 a c\n", encoding="utf-8")
    scores = path.with_name("scores.tsv")
    scores.write_text("# method=cosine\na\tb\t0.9\t0.9\na\tc\t0.1\t0.1\n",
                      encoding="utf-8")
    # the command itself, not cli.main, so its errors propagate
    args = cli.build_parser().parse_args(
        ["eval", "--scores", str(scores), "--trials", str(trials),
         "--out", str(path)])
    args.func(args)


ATOMIC_WRITERS = {
    "checkpoint": _write_checkpoint,
    "store": _write_store,
    "scores": lambda path: scoring.write_scores(
        [scoring.Trial("1", "a", "b")], [0.5], [0.5], path, "method=cosine"),
    "trials": lambda path: scoring.write_trials(
        [scoring.Trial("1", "a", "b")], path),
    "eval_report": _write_eval_report,
    "manifest": lambda path: data.save_corpus(
        [data.Utterance("a", "s", np.ones((2, 2)))], path.parent),
}


@pytest.mark.parametrize("writer", sorted(ATOMIC_WRITERS))
def test_failed_rename_leaves_existing_artifact_intact(tmp_path, monkeypatch,
                                                       writer):
    # save_corpus names its manifest itself
    path = tmp_path / ("manifest.tsv" if writer == "manifest" else "artifact")
    path.write_bytes(b"the previous artifact")

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(DataError, match="rename failed"):
        ATOMIC_WRITERS[writer](path)
    assert path.read_bytes() == b"the previous artifact"
    assert not list(tmp_path.glob("*.tmp"))


# ----------------------------------------------------------------------
# manifests


def test_save_and_load_corpus(tmp_path):
    corpus = small_corpus()
    manifest = data.save_corpus(corpus, tmp_path / "corpus")
    back = data.load_corpus(manifest)
    assert [u.utterance_id for u in back] == [u.utterance_id for u in corpus]
    # speaker ids live in the manifest only; loading drops them
    assert all(u.speaker_id is None for u in back)
    assert [e.speaker_id for e in data.read_manifest(manifest)] \
        == [u.speaker_id for u in corpus]
    npt.assert_array_equal(back[5].frames, corpus[5].frames)


def test_load_corpus_id_cross_check(tmp_path):
    corpus = small_corpus()[:2]
    manifest = data.save_corpus(corpus, tmp_path / "corpus")
    lines = manifest.read_text().splitlines()
    lines[0] = "wrongid" + lines[0][lines[0].index("\t"):]
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedFile):
        data.load_corpus(manifest)


def test_manifest_rejects_bad_lines(tmp_path):
    path = tmp_path / "manifest.tsv"
    path.write_text("one_field_only\n")
    with pytest.raises(MalformedFile):
        data.read_manifest(path)


def test_manifest_rejects_repeated_id(tmp_path):
    # embed keys its store by id: a repeat would silently drop an embedding
    path = tmp_path / "manifest.tsv"
    path.write_text("a\ta.sdfk\nb\tb.sdfk\na\tc.sdfk\n")
    with pytest.raises(MalformedFile) as err:
        data.read_manifest(path)
    assert (err.value.offset, err.value.exit_code) == (3, 2)
    assert err.value.reason == "repeated utterance id 'a'"


def test_manifest_paths_relative_to_manifest_dir(tmp_path):
    corpus = small_corpus()[:1]
    manifest = data.save_corpus(corpus, tmp_path / "deep" / "nested")
    entries = data.read_manifest(manifest)
    assert entries[0].path.parent == tmp_path / "deep" / "nested"


# A manifest field: any text without a tab or a line end; no "/" or NUL
# either, because save_corpus names each feature file after its id.
FIELD = st.text(st.characters(blacklist_categories=("Cs",),
                              blacklist_characters="\t\n\r/\x00"),
                max_size=6)
# (utterance id, speaker id or None: a line without the speaker column)
ENTRIES = st.lists(st.tuples(FIELD, st.none() | FIELD), max_size=5,
                   unique_by=lambda e: e[0])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(ENTRIES)
@example([("é字", "spk字"), ("", None), ("x\x85y\u2028", "")])
def test_manifest_roundtrip_property(entries):
    corpus = [data.Utterance(uid, spk, np.zeros((1, 1)))
              for uid, spk in entries]
    with tempfile.TemporaryDirectory() as tmp:
        back = data.read_manifest(data.save_corpus(corpus, tmp))
    assert [(e.utterance_id, e.path, e.speaker_id) for e in back] == \
        [(uid, Path(tmp) / f"{uid}.sdfk", spk) for uid, spk in entries]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ENTRIES, st.sampled_from(["one field", "four fields", "repeat"]),
       st.data())
def test_manifest_bad_line_is_named_property(entries, kind, draw):
    assume(entries or kind != "repeat")
    lines = [f"{uid}\tp" if spk is None else f"{uid}\tp\t{spk}"
             for uid, spk in entries]
    at = draw.draw(st.integers(int(kind == "repeat"), len(lines)))
    reason = "expected utterance_id<TAB>path[<TAB>speaker_id]"
    if kind == "one field":  # a blank line would be skipped
        bad = draw.draw(FIELD.filter(bool))
    elif kind == "four fields":
        bad = "\t".join(draw.draw(st.lists(FIELD, min_size=4, max_size=4)))
    else:
        uid = entries[draw.draw(st.integers(0, at - 1))][0]
        bad, reason = f"{uid}\tq", f"repeated utterance id '{uid}'"
    lines.insert(at, bad)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.tsv"
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        with pytest.raises(MalformedFile) as err:
            data.read_manifest(path)
    assert (err.value.offset, err.value.reason) == (at + 1, reason)


# ----------------------------------------------------------------------
# label hygiene and trials


def test_crop_sampler_returns_only_frames():
    corpus = small_corpus()
    crops = CropConfig(1, 2, 20, 8)
    mask = MaskConfig(enabled=True, num_time_masks=1, num_freq_masks=1,
                      max_width=2)
    labeled = data.iter_crop_sets(corpus, crops, np.random.default_rng(13),
                                  mask=mask)
    assert isinstance(labeled, tuple) and len(labeled) == 2
    assert all(type(a) is np.ndarray and a.dtype == np.float64
               for a in labeled)
    # the same frames under other utterance ids and without speaker ids
    # give the same bytes
    unlabeled = [data.Utterance(f"other{i}", None, u.frames)
                 for i, u in enumerate(corpus)]
    stripped = data.iter_crop_sets(unlabeled, crops,
                                   np.random.default_rng(13), mask=mask)
    for a, b in zip(labeled, stripped):
        assert a.tobytes() == b.tobytes()


def test_build_trial_list_counts():
    corpus = small_corpus()  # 4 speakers x 3 utts
    trials = scoring.build_trial_list(corpus)
    n = len(corpus)
    assert len(trials) == n * (n - 1) // 2
    targets = sum(1 for t in trials if t.label == "1")
    assert targets == 4 * 3  # C(3,2) same-speaker pairs per speaker
    unlabeled = data.Utterance("u", None, np.zeros((4, 2)))
    with pytest.raises(InvalidConfig):
        scoring.build_trial_list(corpus + [unlabeled])

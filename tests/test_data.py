"""Synthetic corpus, cropping, masking, and the feature-file format."""

import pickle
import struct

import numpy as np
import numpy.testing as npt
import pytest

from sdpn import data, model, scoring
from sdpn.config import CropConfig, MaskConfig
from sdpn.errors import InvalidConfig, MalformedFile, UtteranceTooShort


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
    utt = small_corpus()[0]
    rng = np.random.default_rng(5)
    cs = data.sample_crops(utt, 2, 4, 30, 10, rng)
    assert len(cs.global_views) == 2 and len(cs.local_views) == 4
    assert all(v.shape == (30, 6) for v in cs.global_views)
    assert all(v.shape == (10, 6) for v in cs.local_views)
    assert cs.source == utt.utterance_id


def test_crops_are_contiguous_slices():
    utt = small_corpus()[1]
    rng = np.random.default_rng(6)
    cs = data.sample_crops(utt, 1, 1, 20, 7, rng)
    g = cs.global_views[0]
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
        cs = data.sample_crops(exact, 1, 1, 30, 10, rng)
        npt.assert_array_equal(cs.global_views[0], exact.frames)


def test_crop_errors():
    utt = small_corpus()[0]
    rng = np.random.default_rng(8)
    with pytest.raises(UtteranceTooShort):
        data.sample_crops(utt, 1, 1, 51, 10, rng)
    with pytest.raises(InvalidConfig):
        data.sample_crops(utt, 1, 1, 10, 10, rng)
    with pytest.raises(InvalidConfig):
        data.sample_crops(utt, 0, 1, 20, 10, rng)


# ----------------------------------------------------------------------
# masking


def test_mask_zero_masks_is_identity_copy():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((12, 8))
    out = data.spec_mask(x, 0, 0, 3, rng)
    npt.assert_array_equal(out, x)
    assert out is not x


def test_mask_fill_is_matrix_mean_and_bounds_hold():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((20, 10))
    fill = x.mean()
    out = data.spec_mask(x, 2, 1, 3, rng)
    changed = out != x
    assert changed.any()
    npt.assert_allclose(out[changed], fill, atol=1e-15)


def test_mask_leaves_most_entries_untouched():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((30, 20))
    k, w = 2, 4
    out = data.spec_mask(x, k, k, w, rng)
    unchanged = (out == x).sum()
    assert unchanged >= (30 - k * w) * (20 - k * w)


def test_mask_width_validation():
    rng = np.random.default_rng(12)
    x = np.zeros((5, 9))
    with pytest.raises(InvalidConfig):
        data.spec_mask(x, 1, 1, 5, rng)  # max_width not < min(T, F)
    with pytest.raises(InvalidConfig):
        data.spec_mask(x, -1, 0, 2, rng)


# ----------------------------------------------------------------------
# feature files


def test_feature_file_roundtrip(tmp_path):
    utt = small_corpus()[3]
    path = tmp_path / "u.sdfk"
    data.write_feature_file(utt, path)
    back = data.read_feature_file(path)
    assert back.utterance_id == utt.utterance_id
    assert back.speaker_id == utt.speaker_id
    npt.assert_array_equal(back.frames, utt.frames)


def test_feature_file_without_speaker(tmp_path):
    utt = data.Utterance("solo", None, np.zeros((3, 2)))
    path = tmp_path / "solo.sdfk"
    data.write_feature_file(utt, path)
    assert data.read_feature_file(path).speaker_id is None


def test_feature_file_speaker_suppression(tmp_path):
    utt = small_corpus()[0]
    path = tmp_path / "u.sdfk"
    data.write_feature_file(utt, path)
    assert data.read_feature_file(path, include_speaker=False).speaker_id is None


def test_feature_file_golden_bytes(tmp_path):
    # authored from the wire layout, independent of the writer: a 2x3
    # matrix [[1,2,3],[4,5,6]] for utterance "ab", speaker "s"
    blob = b"SDFK"
    blob += struct.pack("<HII", 1, 2, 3)
    blob += struct.pack("<6d", 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    blob += struct.pack("<H", 2) + b"ab"
    blob += struct.pack("<H", 1) + b"s"
    path = tmp_path / "golden.sdfk"
    path.write_bytes(blob)
    utt = data.read_feature_file(path)
    assert utt.utterance_id == "ab"
    assert utt.speaker_id == "s"
    npt.assert_array_equal(utt.frames, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    # and the writer must reproduce those bytes exactly
    out = tmp_path / "rewritten.sdfk"
    data.write_feature_file(utt, out)
    assert out.read_bytes() == blob


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
    scoring.EmbeddingStore({"a": np.ones(3), "bc": np.arange(3.0)}).save(path)


def _write_checkpoint(path):
    model.save_checkpoint(path, {"w": np.ones((2, 3)), "s": np.array(1.0)},
                          "fp")


BINARY_FORMATS = {
    "feature": (_write_feature, data.read_feature_file),
    "store": (_write_store, scoring.EmbeddingStore.load),
    "checkpoint": (_write_checkpoint, model.load_checkpoint),
}


@pytest.mark.parametrize("fmt", sorted(BINARY_FORMATS))
def test_binary_readers_reject_prefixes_bad_magic_and_trailing_bytes(
        tmp_path, fmt):
    write, read = BINARY_FORMATS[fmt]
    path = tmp_path / fmt
    write(path)
    raw = path.read_bytes()
    read(path)
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        if fmt == "feature" and cut == len(raw) - 2 - len(b"spk"):
            # the speaker id is an optional trailer, so this prefix is a
            # complete speaker-less feature file
            assert read(path).speaker_id is None
            continue
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


# ----------------------------------------------------------------------
# manifests


def test_save_and_load_corpus(tmp_path):
    corpus = small_corpus()
    manifest = data.save_corpus(corpus, tmp_path / "corpus")
    back = data.load_corpus(manifest)
    assert [u.utterance_id for u in back] == [u.utterance_id for u in corpus]
    assert [u.speaker_id for u in back] == [u.speaker_id for u in corpus]
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


def test_manifest_paths_relative_to_manifest_dir(tmp_path):
    corpus = small_corpus()[:1]
    manifest = data.save_corpus(corpus, tmp_path / "deep" / "nested")
    entries = data.read_manifest(manifest)
    assert entries[0].path.parent == tmp_path / "deep" / "nested"


# ----------------------------------------------------------------------
# label hygiene and trials


def test_crop_sets_never_serialize_speaker_labels():
    corpus = small_corpus()
    crops = CropConfig(num_global=1, num_local=2, len_global=20, len_local=8)
    mask = MaskConfig(enabled=True, num_time_masks=1, num_freq_masks=1,
                      max_width=2)
    rng = np.random.default_rng(13)
    speakers = {u.speaker_id for u in corpus}
    for cs in data.iter_crop_sets(corpus, crops, rng, mask=mask):
        payload = pickle.dumps(cs)
        for spk in speakers:
            assert spk.encode() not in payload


def test_build_trial_list_counts():
    corpus = small_corpus()  # 4 speakers x 3 utts
    trials = data.build_trial_list(corpus)
    n = len(corpus)
    assert len(trials) == n * (n - 1) // 2
    targets = sum(1 for t in trials if t.label == "1")
    assert targets == 4 * 3  # C(3,2) same-speaker pairs per speaker
    unlabeled = data.Utterance("u", None, np.zeros((4, 2)))
    with pytest.raises(InvalidConfig):
        data.build_trial_list(corpus + [unlabeled])

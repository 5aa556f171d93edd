"""Property tests of the three binary formats: feature files, embedding
stores and checkpoints.

For each format: writing then reading gives back the same values and ids
(non-ASCII included); every strict prefix of a written file is a
MalformedFile at an offset no later than the cut; and rewriting any one
header or shape field to another value is a MalformedFile, never another
exception. The field offsets are walked from the documented layout
(docs/formats.md), not taken from the readers. A writer refuses a value
that its reader would refuse, and writes nothing. The benchmark's own
parsers (perfbench/checks.py) read back what every writer wrote, so the
layout cannot drift from the one the benchmark checks.
"""

import importlib.util
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sdpn import data, model, scoring
from sdpn.errors import DataError, MalformedFile

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)

TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def matrices(rows, cols):
    return arrays(np.float64, st.tuples(rows, cols), elements=FINITE)


UTTERANCE = st.builds(data.Utterance, TEXT, st.none(),
                      matrices(st.integers(1, 4), st.integers(1, 3)))


def finite_norm(v):
    with np.errstate(over="ignore"):
        return np.isfinite(np.linalg.norm(v))


# (ids, matrix): a store holds only vectors whose L2 norm is finite (cosine
# needs it)
STORE = st.integers(1, 4).flatmap(lambda dim: st.dictionaries(
    TEXT, arrays(np.float64, dim, elements=FINITE).filter(finite_norm),
    max_size=4).map(lambda vectors: (
        list(vectors), np.reshape(list(vectors.values()), (-1, dim)))))
TENSORS = st.dictionaries(
    TEXT.filter(bool),
    arrays(np.float64, st.lists(st.integers(1, 3), min_size=1, max_size=3)
           .map(tuple), elements=FINITE),
    min_size=1, max_size=3)


def _write_feature(path, utt):
    data.write_feature_file(utt, path)


def _write_store(path, store):
    ids, matrix = store
    scoring.EmbeddingStore(ids, matrix).save(path)


def _write_checkpoint(path, value):
    tensors, fingerprint = value
    model.save_checkpoint(path, tensors, fingerprint)


def _fields(fmt, raw):
    """(offset, struct format) of every header and shape field of ``raw``,
    magic excluded."""
    def u(fmt_, at):
        return struct.unpack_from(fmt_, raw, at)[0]

    if fmt == "feature":
        t, f = u("<I", 6), u("<I", 10)
        return [(4, "<H"), (6, "<I"), (10, "<I"), (14 + 8 * t * f, "<H")]
    if fmt == "store":
        out, at = [(4, "<H"), (6, "<I")], 10
        for _ in range(u("<I", 6)):
            klen = u("<H", at)
            out += [(at, "<H"), (at + 2 + klen, "<I")]
            at += 6 + klen + 8 * u("<I", at + 2 + klen)
        return out
    out, at = [(4, "<H"), (6, "<H")], 8 + u("<H", 6)
    out.append((at, "<I"))
    count, at = u("<I", at), at + 4
    for _ in range(count):
        nlen = u("<H", at)
        out.append((at, "<H"))
        at += 2 + nlen
        ndim = u("<B", at)
        out.append((at, "<B"))
        at += 1
        dims = [u("<I", at + 4 * i) for i in range(ndim)]
        out += [(at + 4 * i, "<I") for i in range(ndim)]
        at += 4 * ndim + 8 * math.prod(dims)
    return out


FORMATS = {
    "feature": (UTTERANCE, _write_feature, data.read_feature_file),
    "store": (STORE, _write_store, scoring.EmbeddingStore.load),
    "checkpoint": (st.tuples(TENSORS, TEXT), _write_checkpoint,
                   model.load_checkpoint),
}


def _written(fmt, value):
    _, write, _ = FORMATS[fmt]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / fmt
        write(path, value)
        return path.read_bytes()


def _read(fmt, raw):
    _, _, read = FORMATS[fmt]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / fmt
        path.write_bytes(raw)
        return read(path)


def _same_array(got, want):
    assert got.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == np.asarray(want, dtype="<f8").tobytes()


@PROPERTY
@given(UTTERANCE)
@example(data.Utterance("é字 x", None, np.array([[-0.0, 1e308]])))
def test_feature_file_roundtrip_property(utt):
    back = _read("feature", _written("feature", utt))
    assert back.utterance_id == utt.utterance_id
    assert back.speaker_id is None
    _same_array(back.frames, utt.frames)


@PROPERTY
@given(STORE)
@example((["é", "字", "", "big"],
          np.array([[1.0, -0.0], [2.0, 3.0], [0.0, 0.0], [9e153, -9e153]])))
def test_store_roundtrip_property(store):
    ids, matrix = store
    back = _read("store", _written("store", store))
    assert back.ids == ids
    # the file of an empty store holds no dim, so its matrix reads as (0, 0)
    _same_array(back.matrix.reshape(matrix.shape), matrix)


@PROPERTY
@given(st.tuples(TENSORS, TEXT))
@example(({"student.é": np.ones((2, 1)), "字": np.array([-0.0])}, "fp字"))
def test_checkpoint_roundtrip_property(value):
    tensors, fingerprint = value
    back, fp = _read("checkpoint", _written("checkpoint", value))
    assert fp == fingerprint
    assert sorted(back) == sorted(tensors)
    for name, arr in tensors.items():
        _same_array(back[name], arr)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@PROPERTY
@given(st.data())
def test_every_strict_prefix_is_malformed(fmt, draw):
    strategy, _, read = FORMATS[fmt]
    raw = _written(fmt, draw.draw(strategy))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / fmt
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(MalformedFile) as err:
                read(path)
            assert err.value.offset <= cut


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@PROPERTY
@given(st.data())
def test_corrupt_header_or_shape_field_is_malformed(fmt, draw):
    strategy, _, _ = FORMATS[fmt]
    raw = _written(fmt, draw.draw(strategy))
    at, field = draw.draw(st.sampled_from(_fields(fmt, raw)))
    old = struct.unpack_from(field, raw, at)[0]
    bits = 8 * struct.calcsize(field)
    new = draw.draw(st.integers(0, 2 ** bits - 1).filter(lambda v: v != old))
    bad = bytearray(raw)
    struct.pack_into(field, bad, at, new)
    with pytest.raises(MalformedFile):
        _read(fmt, bytes(bad))


def _float_arrays(fmt, value):
    """The float64 arrays a ``fmt`` writer writes of ``value``."""
    if fmt == "feature":
        return [value.frames]
    if fmt == "store":
        return [value[1]]
    return list(value[0].values())


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@PROPERTY
@given(st.data())
def test_writer_refuses_non_finite_value(fmt, draw):
    strategy, write, _ = FORMATS[fmt]
    value = draw.draw(strategy.filter(
        lambda v: any(arr.size for arr in _float_arrays(fmt, v))))
    arr = draw.draw(st.sampled_from(
        [arr for arr in _float_arrays(fmt, value) if arr.size]))
    arr.flat[draw.draw(st.integers(0, arr.size - 1))] = draw.draw(
        st.sampled_from([math.nan, math.inf, -math.inf]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / fmt
        with pytest.raises(DataError) as err:
            write(path, value)
        assert str(err.value).startswith(f"cannot write {path}: ")
        assert not list(Path(tmp).iterdir())  # neither path nor its .tmp


@pytest.mark.parametrize("shape", [(0, 3), (2, 0), (4,)])
def test_feature_writer_refuses_what_is_not_a_frame_matrix(tmp_path, shape):
    path = tmp_path / "u.sdfk"
    with pytest.raises(DataError) as err:
        data.write_feature_file(data.Utterance("u", None, np.ones(shape)),
                                path)
    assert str(err.value) == (f"cannot write {path}: utterance 'u' has "
                              f"frames of shape {shape}, not a non-empty "
                              "matrix")
    assert not path.exists()


def test_checkpoint_writer_refuses_empty_tensor(tmp_path):
    path = tmp_path / "empty.sdck"
    with pytest.raises(DataError) as err:
        model.save_checkpoint(path, {"a": np.ones(2), "w": np.ones((2, 0))},
                              "fp")
    assert str(err.value) == \
        f"cannot write {path}: tensor 'w' has empty shape (2, 0)"
    assert not list(tmp_path.iterdir())


def load_perfbench_checks():
    spec = importlib.util.spec_from_file_location(
        "perfbench_checks",
        Path(__file__).resolve().parent.parent / "perfbench" / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CHECKS = load_perfbench_checks()


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@PROPERTY
@given(st.data())
def test_benchmark_parsers_read_what_every_writer_wrote(fmt, draw):
    strategy, write, _ = FORMATS[fmt]
    value = draw.draw(strategy)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / fmt
        write(path, value)
        if fmt == "feature":
            _same_array(CHECKS.read_features(path), value.frames)
        elif fmt == "store":
            got = CHECKS.read_store(path)
            assert list(got) == value[0]
            for key, row in zip(*value):
                _same_array(got[key], row)
        else:
            got = CHECKS.read_checkpoint(path)
            assert list(got) == sorted(value[0])
            for name, arr in value[0].items():
                _same_array(got[name], arr)


def memory_owner(arr):
    """The object that holds ``arr``'s memory: an array that owns its data,
    or the buffer of the bytes it was made from."""
    while isinstance(arr, np.ndarray) and not arr.flags.owndata:
        arr = arr.base
    return arr.obj if isinstance(arr, memoryview) else arr


def test_readers_return_owned_writable_arrays(tmp_path):
    # train --resume updates the tensors of a loaded checkpoint in place, so
    # no reader may hand out a read-only view of the file's bytes
    frames = np.arange(6.0).reshape(3, 2)
    data.write_feature_file(data.Utterance("u", None, frames),
                            tmp_path / "u.sdfk")
    model.save_checkpoint(tmp_path / "c.sdck", {"w": frames}, "fp")
    scoring.EmbeddingStore(["u", "v"], frames[:2]).save(tmp_path / "e.store")
    tensors, _ = model.load_checkpoint(tmp_path / "c.sdck")
    for arr in (data.read_feature_file(tmp_path / "u.sdfk").frames,
                tensors["w"],
                scoring.EmbeddingStore.load(tmp_path / "e.store").matrix):
        assert arr.dtype == np.float64 and arr.flags.writeable
        assert isinstance(memory_owner(arr), (np.ndarray, bytearray))
        arr += 1.0


def test_checkpoint_golden_bytes(tmp_path):
    # authored from the layout of docs/formats.md, independent of the
    # writer: fingerprint "fp", then "b" = [0.5, -1] and "wé" = [[3, 4]]
    # in name order ("é" is two bytes of UTF-8)
    blob = b"SDCK" + struct.pack("<H", 1)
    blob += struct.pack("<H", 2) + b"fp" + struct.pack("<I", 2)
    blob += struct.pack("<H", 1) + b"b" + struct.pack("<BI", 1, 2)
    blob += struct.pack("<2d", 0.5, -1.0)
    blob += struct.pack("<H", 3) + "wé".encode() + struct.pack("<B2I", 2, 1, 2)
    blob += struct.pack("<2d", 3.0, 4.0)
    path = tmp_path / "golden.sdck"
    path.write_bytes(blob)
    tensors, fp = model.load_checkpoint(path)
    assert fp == "fp"
    assert list(tensors) == ["b", "wé"]
    _same_array(tensors["b"], np.array([0.5, -1.0]))
    _same_array(tensors["wé"], np.array([[3.0, 4.0]]))
    out = tmp_path / "rewritten.sdck"
    model.save_checkpoint(out, {"wé": tensors["wé"], "b": tensors["b"]}, fp)
    assert out.read_bytes() == blob


def test_store_golden_bytes(tmp_path):
    # authored from the layout of docs/formats.md: two 2-dim vectors in
    # the store's own order, "é" = [1, -2] and "a" = [0.25, 8]
    blob = b"SDES" + struct.pack("<HI", 1, 2)
    blob += struct.pack("<H", 2) + "é".encode() + struct.pack("<I", 2)
    blob += struct.pack("<2d", 1.0, -2.0)
    blob += struct.pack("<H", 1) + b"a" + struct.pack("<I", 2)
    blob += struct.pack("<2d", 0.25, 8.0)
    path = tmp_path / "golden.emb"
    path.write_bytes(blob)
    store = scoring.EmbeddingStore.load(path)
    assert store.ids == ["é", "a"]
    _same_array(store.matrix, np.array([[1.0, -2.0], [0.25, 8.0]]))
    out = tmp_path / "rewritten.emb"
    store.save(out)
    assert out.read_bytes() == blob


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e200])
def test_store_writer_refuses_what_load_refuses(tmp_path, bad):
    # 1e200 is finite, but its square overflows: the L2 norm is not
    path = tmp_path / "bad.emb"
    with pytest.raises(DataError) as err:
        scoring.EmbeddingStore(["a", "b"], [[1.0, 2.0], [bad, 1.0]]).save(path)
    reason = ("is not finite" if not math.isfinite(bad)
              else "has an L2 norm that overflows float64")
    assert str(err.value) == f"cannot write {path}: vector 'b' {reason}"
    assert not list(tmp_path.iterdir())


def test_name_field_holds_at_most_65535_bytes(tmp_path):
    # "é" is two bytes of UTF-8: the first id fills its u16 length field,
    # the second would overflow it
    fits, over = "é" * 32767 + "a", "é" * 32768
    path = tmp_path / "names.emb"
    scoring.EmbeddingStore([fits], [[1.0]]).save(path)
    assert scoring.EmbeddingStore.load(path).ids == [fits]
    path.unlink()
    with pytest.raises(DataError) as err:
        scoring.EmbeddingStore([fits, over], [[1.0], [2.0]]).save(path)
    assert str(err.value) == (f"cannot write {path}: name {over[:12]!r}... "
                              "is over the 65535 bytes of UTF-8 a name "
                              "field holds")
    assert not list(tmp_path.iterdir())


# ----------------------------------------------------------------------
# one case per reader defect


def test_checkpoint_dims_whose_product_overflows_int64(tmp_path):
    # 2^31 * 2^31 * 4 = 2^64 wraps to 0 in int64 arithmetic
    blob = model.CHECKPOINT_MAGIC + struct.pack("<HH", 1, 0)
    blob += struct.pack("<IH", 1, 1) + b"w" + struct.pack("<B", 3)
    blob += struct.pack("<3I", 2 ** 31, 2 ** 31, 4)
    path = tmp_path / "huge.sdck"
    path.write_bytes(blob)
    with pytest.raises(MalformedFile) as err:
        model.load_checkpoint(path)
    assert err.value.offset == len(blob)
    assert "truncated while reading tensor 'w'" in str(err.value)


@pytest.mark.parametrize("dims", [(), (0,), (2, 0), (0, 2 ** 31, 2 ** 31)])
def test_checkpoint_empty_shape(tmp_path, dims):
    # no writer emits rank 0 (scalars are stored as shape (1,)) or a zero
    # dim; the last shape has no elements yet is too big to allocate
    head = model.CHECKPOINT_MAGIC + struct.pack("<HHI", 1, 0, 1)
    blob = head + struct.pack("<H", 1) + b"w" + struct.pack("<B", len(dims))
    blob += struct.pack(f"<{len(dims)}I", *dims)
    path = tmp_path / "empty.sdck"
    path.write_bytes(blob)
    with pytest.raises(MalformedFile) as err:
        model.load_checkpoint(path)
    assert err.value.offset == len(head)
    assert err.value.reason == f"tensor 'w' has empty shape {dims}"


def test_checkpoint_repeated_tensor_name(tmp_path):
    def record(name):
        return (struct.pack("<H", len(name)) + name + struct.pack("<BI", 1, 1)
                + struct.pack("<d", 1.0))

    head = model.CHECKPOINT_MAGIC + struct.pack("<HH", 1, 0)
    head += struct.pack("<I", 2)
    path = tmp_path / "twice.sdck"
    path.write_bytes(head + record(b"w") + record(b"w"))
    with pytest.raises(MalformedFile) as err:
        model.load_checkpoint(path)
    assert err.value.offset == len(head + record(b"w"))
    assert err.value.reason == "tensor 'w' is repeated or out of name order"


def _store_blob(*records):
    blob = scoring.STORE_MAGIC + struct.pack("<HI", scoring.STORE_VERSION,
                                             len(records))
    offsets = []
    for key, vec in records:
        offsets.append(len(blob))
        blob += struct.pack("<H", len(key)) + key
        blob += struct.pack("<I", len(vec)) + np.asarray(vec, "<f8").tobytes()
    return blob, offsets


def test_store_records_of_different_dims(tmp_path):
    blob, offsets = _store_blob((b"a", [1.0, 2.0]), (b"b", [1.0, 2.0, 3.0]))
    path = tmp_path / "mixed.emb"
    path.write_bytes(blob)
    with pytest.raises(MalformedFile) as err:
        scoring.EmbeddingStore.load(path)
    assert err.value.offset == offsets[1]
    assert err.value.reason == "vector 'b' has dim 3, the store has 2"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_store_non_finite_vector(tmp_path, bad):
    blob, offsets = _store_blob((b"a", [1.0, 2.0]), (b"b", [1.0, bad]))
    path = tmp_path / "nan.emb"
    path.write_bytes(blob)
    with pytest.raises(MalformedFile) as err:
        scoring.EmbeddingStore.load(path)
    assert err.value.offset == offsets[1]
    assert err.value.reason == "vector 'b' is not finite"


def test_store_vector_with_overflowing_norm(tmp_path):
    # every entry is finite, but the sum of squares is not
    blob, offsets = _store_blob((b"a", [1.0, 2.0]), (b"b", [3e154, 1.0]),
                                (b"c", [1e200, 1e200]))
    path = tmp_path / "huge.emb"
    path.write_bytes(blob)
    with pytest.raises(MalformedFile) as err:
        scoring.EmbeddingStore.load(path)
    assert err.value.offset == offsets[1]
    assert err.value.reason == \
        "vector 'b' has an L2 norm that overflows float64"


@pytest.mark.parametrize("t, f", [(0, 3), (2, 0), (0, 0)])
def test_feature_file_empty_frame_matrix(tmp_path, t, f):
    blob = data.FEATURE_MAGIC + struct.pack("<HII", 2, t, f)
    blob += struct.pack("<H", 1) + b"u"
    path = tmp_path / "empty.sdfk"
    path.write_bytes(blob)
    with pytest.raises(MalformedFile) as err:
        data.read_feature_file(path)
    assert err.value.offset == 6
    assert err.value.reason == f"empty {t}x{f} frame matrix"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_feature_file_non_finite_frame(tmp_path, bad):
    # the writer refuses such a frame, so the value is patched into the file
    frames = np.arange(6.0).reshape(3, 2)
    path = tmp_path / "nan.sdfk"
    data.write_feature_file(data.Utterance("u", None, frames), path)
    blob = bytearray(path.read_bytes())
    blob[14 + 8 * 5:14 + 8 * 6] = struct.pack("<d", bad)
    path.write_bytes(bytes(blob))
    with pytest.raises(MalformedFile) as err:
        data.read_feature_file(path)
    assert err.value.offset == 14 + 8 * 5
    assert err.value.reason == f"non-finite value {bad} at (2, 1) of frames"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", [2, 3])
def test_scores_non_finite_value_names_its_line(tmp_path, value, column):
    row = ["a", "c", "0.25", "0.5"]
    row[column] = value
    path = tmp_path / "scores.tsv"
    path.write_text("# method=cosine\na\tb\t0.9\t0.9\n" + "\t".join(row)
                    + "\n", encoding="utf-8")
    with pytest.raises(MalformedFile) as err:
        scoring.read_scores(path)
    assert err.value.offset == 3
    assert err.value.reason == "raw and normalized must be finite"

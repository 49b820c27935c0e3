"""The wire format of the process backend's peer links.

A collective payload that is a C-contiguous, native-endian numeric or bool
``ndarray``, or a non-empty tuple of them, travels raw: a header and the
arrays' own bytes, decoded with ``np.frombuffer`` over the frame.  Every
other payload is pickled.  These tests pin that the choice depends on the
payload's type alone, that both paths give back the same type, dtype,
shape and values, and that raw arrays come back aligned and writable.

They also pin ``payload_nbytes``, the byte count every collective's
accounting rests on, to its numbers for every payload shape the package
ships: raw frames must not move a modelled byte.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.runtime.process_backend import _FRAME_LEN, _decode, _encode
from repro.runtime.stats import payload_nbytes

RAW_DTYPES = [
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
    np.float32, np.float64, np.bool_,
]
MULTIBYTE = [d for d in RAW_DTYPES if np.dtype(d).itemsize > 1]

_shapes = st.one_of(
    st.just(()),  # 0-d
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=7),
)
raw_arrays = hnp.arrays(st.sampled_from(RAW_DTYPES), _shapes)


@st.composite
def non_contiguous(draw):
    """A strided view: every other element, or a transposed matrix."""
    a = draw(hnp.arrays(st.sampled_from(RAW_DTYPES), (draw(st.integers(3, 9)),)))
    if draw(st.booleans()):
        return a[::2]
    return np.resize(a, 6).reshape(2, 3).T


@st.composite
def big_endian(draw):
    a = draw(hnp.arrays(st.sampled_from(MULTIBYTE), _shapes))
    return a.astype(a.dtype.newbyteorder(">"))


class _Tagged(np.ndarray):
    """An ndarray subclass: its type must survive the trip."""


pickled_payloads = st.one_of(
    non_contiguous(),
    big_endian(),
    st.just(np.array([1, "a", None], dtype=object)),
    st.just(np.zeros(3, dtype=[("a", "<i4"), ("b", "<f8")])),
    raw_arrays.map(lambda a: a.view(_Tagged)),
    st.lists(st.integers(), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=3),
    st.none(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=5),
    st.sampled_from([np.float64(0.5), np.int64(7), np.bool_(True), np.float32(2)]),
    st.just(()),
    # a tuple is raw only if every element is
    st.tuples(raw_arrays, st.integers()),
    st.tuples(raw_arrays, non_contiguous()),
    st.tuples(raw_arrays, st.floats(allow_nan=False)),
)


def _round_trip(payload, gen=3, op="alltoall"):
    """Encode one frame, check its length prefix, decode its body from a
    numpy allocation as the link does; returns ``(decoded, raw)``."""
    parts, raw = _encode(gen, op, payload)
    wire = b"".join(bytes(p) for p in parts)
    (length,) = _FRAME_LEN.unpack_from(wire)
    assert length == len(wire) - _FRAME_LEN.size
    body = np.empty(length, dtype=np.uint8)
    body[:] = np.frombuffer(wire, dtype=np.uint8, offset=_FRAME_LEN.size)
    if raw:
        assert length % 8 == 0
    got_gen, got_op, decoded = _decode(body)
    assert (got_gen, got_op) == (gen, op)
    return decoded, raw


def _assert_same(got, want):
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        if want.dtype != object:
            assert got.tobytes() == want.tobytes()
        else:
            assert got.tolist() == want.tolist()
        assert got.flags.aligned and got.flags.writeable
    elif isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    else:
        assert got == want or (got != got and want != want)


class TestRawFrames:
    @settings(max_examples=300, deadline=None)
    @given(raw_arrays)
    def test_array_round_trip(self, a):
        got, raw = _round_trip(a)
        assert raw
        _assert_same(got, a)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(raw_arrays, min_size=1, max_size=5).map(tuple))
    def test_tuple_round_trip(self, t):
        got, raw = _round_trip(t)
        assert raw
        _assert_same(got, t)

    def test_arrays_are_views_of_one_frame(self):
        t = (np.arange(3, dtype=np.int8), np.ones(5), np.array(True))
        got, raw = _round_trip(t, gen=2**40, op="bcast(root=1)")
        assert raw
        bases = {a.base.ctypes.data if a.base is not None else None for a in got}
        assert len(bases) == 1 and None not in bases
        for a in got:
            assert a.ctypes.data % 8 == 0

    @settings(max_examples=300, deadline=None)
    @given(pickled_payloads)
    def test_other_payloads_are_pickled(self, payload):
        got, raw = _round_trip(payload)
        assert not raw
        _assert_same(got, payload)


# ---------------------------------------------------------------------------
# payload_nbytes: the accounting of every payload shape the package ships
# ---------------------------------------------------------------------------

_E = np.zeros(0, dtype=np.int64)

SHIPPED = [
    ("barrier, bcast off the root", None, 0),
    ("Q allreduce", 0.6931, 8),
    ("Q allreduce, numpy float", np.float64(0.25), 8),
    ("move count allreduce", 17, 8),
    ("community count allgather", np.int64(5), 8),
    ("requests, ghost labels, merge runs", np.arange(300, dtype=np.int64), 2400),
    ("empty requests", _E, 0),
    ("packed contributions, 75 labels", np.zeros(300, dtype=np.int64), 2400),
    ("packed replies, 100 requests", np.zeros(300, dtype=np.int64), 2400),
    ("hub proposals", np.zeros((2, 9)), 144),
    ("ghost delta", (np.arange(5), np.arange(5)), 80),
    ("empty ghost delta", (_E, _E), 0),
    ("merge pairs", (np.arange(7), np.arange(7), np.ones(7)), 168),
    ("level mapping gather", (np.arange(4), np.arange(4)), 64),
    ("baseline result bcast", (np.arange(10), 0.5), 88),
    (
        "contribution columns",
        (np.arange(75), np.ones(75), np.ones(75), np.ones(75)),
        2400,
    ),
    ("0-d array", np.array(3.5), 8),
    ("float32 array", np.zeros(3, dtype=np.float32), 12),
    ("tuple of one int8 array", (np.zeros(3, dtype=np.int8),), 3),
    ("bool", True, 8),
    ("tuple of a bool", (True,), 8),
    ("empty tuple", (), 0),
    ("list", [1, 2, 3], 22),
    ("dict", {"a": 1}, 21),
    ("str", "abc", 18),
    ("tuple with a str", (1, "x"), 20),
]


@pytest.mark.parametrize(
    "payload, nbytes", [c[1:] for c in SHIPPED], ids=[c[0] for c in SHIPPED]
)
def test_payload_nbytes_is_pinned(payload, nbytes):
    assert payload_nbytes(payload) == nbytes


def test_tuple_with_a_numpy_bool_is_pickled():
    payload = (np.bool_(True),)
    assert payload_nbytes(payload) == len(
        pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    )

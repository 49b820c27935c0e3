"""Tests for the shared owner-bucketing pack kernel.

The load-bearing property is *mask equivalence*: every payload produced by
:func:`pack_by_owner` must be bit-identical (values, order, dtype) to the
``arr[owner == r]`` boolean-mask form it replaces at the ``alltoall``
sites, because payload bytes and downstream float accumulation order both
depend on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pack import pack_bounds, pack_by_owner


def masked_reference(owner, n_buckets, *arrays):
    out = []
    for r in range(n_buckets):
        m = owner == r
        out.append(tuple(a[m] for a in arrays))
    return out


class TestPackBounds:
    def test_bounds_partition_the_input(self, rng):
        owner = rng.integers(0, 7, size=500)
        order, bounds = pack_bounds(owner, 7)
        assert bounds[0] == 0 and bounds[-1] == owner.size
        sorted_owner = owner[order]
        for r in range(7):
            seg = sorted_owner[bounds[r] : bounds[r + 1]]
            assert np.all(seg == r)

    def test_empty_owner(self):
        order, bounds = pack_bounds(np.zeros(0, dtype=np.int64), 4)
        assert order.size == 0
        assert np.array_equal(bounds, np.zeros(5, dtype=np.int64))

    def test_stability(self):
        # two entries with the same owner keep their relative order
        owner = np.array([1, 0, 1, 0, 1])
        order, bounds = pack_bounds(owner, 2)
        assert np.array_equal(order[bounds[1] : bounds[2]], [0, 2, 4])
        assert np.array_equal(order[bounds[0] : bounds[1]], [1, 3])


class TestPackByOwner:
    @pytest.mark.parametrize("n_buckets", [1, 2, 4, 8])
    def test_single_array_matches_mask(self, rng, n_buckets):
        owner = rng.integers(0, n_buckets, size=300)
        vals = rng.integers(-(10**9), 10**9, size=300)
        got = pack_by_owner(owner, n_buckets, vals)
        assert len(got) == n_buckets
        for r in range(n_buckets):
            ref = vals[owner == r]
            assert np.array_equal(got[r], ref)
            assert got[r].dtype == ref.dtype

    def test_multi_array_tuples_match_mask(self, rng):
        owner = rng.integers(0, 5, size=200)
        a = rng.integers(0, 1000, size=200)
        b = rng.standard_normal(200)
        c = rng.standard_normal(200).astype(np.float32)
        got = pack_by_owner(owner, 5, a, b, c)
        ref = masked_reference(owner, 5, a, b, c)
        for r in range(5):
            assert isinstance(got[r], tuple) and len(got[r]) == 3
            for g, e in zip(got[r], ref[r]):
                assert np.array_equal(g, e)
                assert g.dtype == e.dtype

    def test_absent_buckets_yield_empty_payloads(self):
        owner = np.array([2, 2, 2], dtype=np.int64)
        vals = np.array([10.0, 11.0, 12.0])
        got = pack_by_owner(owner, 4, vals)
        assert got[0].size == got[1].size == got[3].size == 0
        assert got[0].dtype == vals.dtype
        assert np.array_equal(got[2], vals)

    def test_empty_input(self):
        got = pack_by_owner(np.zeros(0, dtype=np.int64), 3, np.zeros(0))
        assert len(got) == 3 and all(p.size == 0 for p in got)

    def test_no_arrays_raises(self):
        with pytest.raises(ValueError, match="at least one array"):
            pack_by_owner(np.zeros(3, dtype=np.int64), 2)

    def test_2d_array_packs_by_rows(self, rng):
        owner = rng.integers(0, 3, size=50)
        mat = rng.standard_normal((50, 4))
        got = pack_by_owner(owner, 3, mat)
        for r in range(3):
            assert np.array_equal(got[r], mat[owner == r])

    def test_bit_identical_floats(self, rng):
        # payload floats must be the very same bit patterns, not just equal
        owner = rng.integers(0, 4, size=128)
        vals = rng.standard_normal(128)
        got = pack_by_owner(owner, 4, vals)
        for r in range(4):
            assert got[r].tobytes() == vals[owner == r].tobytes()


# bucket counts on both sides of the uint8 and uint16 sort keys
BUCKET_COUNTS = st.one_of(
    st.integers(min_value=1, max_value=9), st.sampled_from([255, 256, 257, 65537])
)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=0, max_value=120),
    n_buckets=BUCKET_COUNTS,
)
def test_pack_matches_mask_property(data, n, n_buckets):
    top = n_buckets - 1
    # owners anywhere in range, and often at the edges of the narrow keys
    edges = sorted({0, top, min(255, top), min(256, top), min(65535, top)})
    owner = np.asarray(
        data.draw(
            st.lists(
                st.one_of(
                    st.integers(min_value=0, max_value=top), st.sampled_from(edges)
                ),
                min_size=n, max_size=n,
            )
        ),
        dtype=np.int64,
    )
    vals = np.asarray(
        data.draw(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=n, max_size=n,
            )
        ),
        dtype=np.float64,
    )
    # the narrowed sort key gives the int64 key's stable permutation
    order, bounds = pack_bounds(owner, n_buckets)
    assert np.array_equal(order, np.argsort(owner, kind="stable"))
    assert np.array_equal(np.diff(bounds), np.bincount(owner, minlength=n_buckets))
    tags = np.arange(n, dtype=np.int64)
    got = pack_by_owner(owner, n_buckets, vals, tags)
    assert len(got) == n_buckets
    for r in np.unique(owner).tolist() + [0, top]:
        m = owner == r
        assert np.array_equal(got[r][0], vals[m])
        assert np.array_equal(got[r][1], tags[m])
    assert sum(p[0].size for p in got) == n

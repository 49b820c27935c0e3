"""Hypothesis property tests for the CSR core."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph, build_symmetric_csr
from repro.graph.ops import permute_vertices

MAX_N = 24


@st.composite
def edge_lists(draw):
    """Random multigraph edge lists (duplicates and self-loops allowed)."""
    n = draw(st.integers(min_value=1, max_value=MAX_N))
    m = draw(st.integers(min_value=0, max_value=60))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ),
            min_size=m,
            max_size=m,
        )
    )
    weights = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
            min_size=m,
            max_size=m,
        )
    )
    return n, edges, weights


@given(edge_lists())
@settings(max_examples=120, deadline=None)
def test_build_always_valid(data):
    n, edges, weights = data
    g = CSRGraph.from_edges(n, edges, weights=weights)
    g.validate()


@given(edge_lists())
@settings(max_examples=120, deadline=None)
def test_total_weight_conserved(data):
    n, edges, weights = data
    g = CSRGraph.from_edges(n, edges, weights=weights)
    assert np.isclose(g.total_weight, sum(weights), rtol=1e-9)


@given(edge_lists())
@settings(max_examples=100, deadline=None)
def test_handshake_lemma(data):
    n, edges, weights = data
    g = CSRGraph.from_edges(n, edges, weights=weights)
    assert np.isclose(g.weighted_degrees.sum(), 2.0 * g.total_weight)


@given(edge_lists())
@settings(max_examples=100, deadline=None)
def test_edge_arrays_roundtrip(data):
    n, edges, weights = data
    g = CSRGraph.from_edges(n, edges, weights=weights)
    src, dst, w = g.edge_arrays()
    g2 = build_symmetric_csr(n, src, dst, w)
    assert g2 == g


@given(edge_lists(), st.integers(0, 2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_permutation_invariants(data, seed):
    n, edges, weights = data
    g = CSRGraph.from_edges(n, edges, weights=weights)
    perm = np.random.default_rng(seed).permutation(n)
    pg = permute_vertices(g, perm)
    pg.validate()
    assert pg.n_edges == g.n_edges
    assert np.isclose(pg.total_weight, g.total_weight)
    # degree multiset preserved (up to float summation order)
    assert np.allclose(
        np.sort(pg.weighted_degrees), np.sort(g.weighted_degrees)
    )
    # individual degree follows the permutation
    assert np.allclose(pg.weighted_degrees[perm], g.weighted_degrees)


@given(edge_lists())
@settings(max_examples=80, deadline=None)
def test_edge_orientation_irrelevant(data):
    n, edges, weights = data
    flipped = [(v, u) for u, v in edges]
    a = CSRGraph.from_edges(n, edges, weights=weights)
    b = CSRGraph.from_edges(n, flipped, weights=weights)
    assert a == b


@st.composite
def raw_edge_arrays(draw):
    """Edge arrays with duplicates in both orientations, self-loops, float
    weights and isolated vertices; ``n = 0`` included."""
    n = draw(st.integers(min_value=0, max_value=MAX_N))
    m = draw(st.integers(min_value=0, max_value=60)) if n else 0
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                 min_size=m, max_size=m)
    ) if n else []
    # repeat some edges reversed, so duplicates arrive in both orientations
    flips = draw(st.lists(st.integers(0, max(m - 1, 0)), max_size=m)) if m else []
    pairs = pairs + [pairs[i][::-1] for i in flips]
    weights = draw(
        st.lists(
            st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
            min_size=len(pairs), max_size=len(pairs),
        )
    )
    src = np.array([p[0] for p in pairs], dtype=np.int64)
    dst = np.array([p[1] for p in pairs], dtype=np.int64)
    return n, src, dst, np.array(weights, dtype=np.float64)


@given(raw_edge_arrays())
@settings(max_examples=150, deadline=None)
def test_native_build_matches_numpy(data):
    """The C build (counting sort, run sums, symmetric fill) and the numpy
    reference give the same arrays, weights to the bit."""
    from unittest import mock

    from repro.core import native

    n, src, dst, w = data
    got = build_symmetric_csr(n, src, dst, w)
    with mock.patch.object(native, "available", lambda: False):
        ref = build_symmetric_csr(n, src, dst, w)
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert got.weights.tobytes() == ref.weights.tobytes()
    got.validate()

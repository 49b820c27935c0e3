"""``build_local_graphs`` on C and on the numpy references builds the
same ranks.

Each rank's CSR comes from :func:`repro.core.native.pair_sort`: a
counting sort in C, one sorted int64 key in its numpy reference
(``tests/core/numpy_kernels.py``).  Both must give the same
:class:`LocalGraph`, field for field, also when the global rows list
their neighbours out of order.
"""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import barabasi_albert
from repro.partition import delegate_partition, oned_partition
from tests.core.numpy_kernels import numpy_path


def _fields(lg):
    return {
        "global_ids": lg.global_ids,
        "indptr": lg.indptr,
        "indices": lg.indices,
        "weights": lg.weights,
        "row_weighted_degree": lg.row_weighted_degree,
        "hub_global_ids": lg.hub_global_ids,
    }


def _weighted_graph():
    from repro.graph.csr import build_symmetric_csr

    g = barabasi_albert(300, 4, seed=2)
    src, dst, _w = g.edge_arrays()
    w = np.random.default_rng(7).uniform(0.1, 5.0, src.size)
    # a self-loop and an isolated tail vertex on top
    src = np.concatenate([src, [5]])
    dst = np.concatenate([dst, [5]])
    w = np.concatenate([w, [0.75]])
    return build_symmetric_csr(g.n_vertices + 1, src, dst, w)


def _assert_same(got, ref):
    assert np.array_equal(got.hub_global_ids, ref.hub_global_ids)
    for a, b in zip(got.locals, ref.locals, strict=True):
        assert (a.rank, a.n_owned, a.n_hubs, a.n_global) == (
            b.rank, b.n_owned, b.n_hubs, b.n_global
        )
        assert a.m_global == b.m_global
        for name, arr in _fields(a).items():
            other = _fields(b)[name]
            assert arr.dtype == other.dtype, name
            assert arr.tobytes() == other.tobytes(), name
        for maps in ("send_to", "recv_from"):
            ma, mb = getattr(a, maps), getattr(b, maps)
            assert list(ma) == list(mb)
            for peer in ma:
                assert np.array_equal(ma[peer], mb[peer])


def _partition(graph, kind, p):
    if kind == "1d":
        return oned_partition(graph, p)
    return delegate_partition(graph, p, d_high=12)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["delegate", "1d"])
def test_c_and_numpy_partitions_identical(p, kind):
    graph = _weighted_graph()
    got = _partition(graph, kind, p)
    with numpy_path():
        ref = _partition(graph, kind, p)
    got.validate()
    _assert_same(got, ref)


def _unsorted_rows(graph):
    """``graph`` with every row's entries shuffled."""
    rows = np.repeat(np.arange(graph.n_vertices), np.diff(graph.indptr))
    shuffle = np.random.default_rng(11).permutation(rows.size)
    order = shuffle[np.argsort(rows[shuffle], kind="stable")]
    return CSRGraph(graph.indptr, graph.indices[order], graph.weights[order])


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("kind", ["delegate", "1d"])
def test_unsorted_rows_c_and_numpy_identical(p, kind):
    """Rows that list their neighbours out of order: each rank's rows still
    come out sorted by local target, the same on C and numpy, and for the
    1D partition (whose entry placement ignores entry order) the same
    layout as from the sorted CSR."""
    graph = _weighted_graph()
    unsorted = _unsorted_rows(graph)
    assert np.any(np.diff(unsorted.indices) < 0)
    got = _partition(unsorted, kind, p)
    with numpy_path():
        ref = _partition(unsorted, kind, p)
    got.validate()
    _assert_same(got, ref)
    for lg in got.locals:
        rows = np.repeat(np.arange(lg.n_rows), np.diff(lg.indptr))
        same_row = rows[1:] == rows[:-1]
        assert np.all(np.diff(lg.indices)[same_row] > 0)
    if kind == "1d":
        for a, b in zip(got.locals, _partition(graph, kind, p).locals):
            # row_weighted_degree sums in entry order, so only its bits move
            for name in ("global_ids", "indptr", "indices", "weights"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name

"""The phase kernels of the inner iteration, C against numpy.

``LocalClustering`` runs each phase between two collectives as one call of
its level kernels: ``send`` (the contributions and the requests of a sync),
``owner`` (the owner table, its partial Q and the answers), ``place`` (the
snapshot columns) and ``sweep`` (the Jacobi gain pass with its dampers).
Here every rank of a partitioned graph runs those calls by hand, with the
collectives done by routing the payloads between the ranks' lists, once
with :class:`repro.core.native.LevelKernels` and once with
:class:`repro.core.sweep_kernel.NumpyLevelKernels`.  Every payload, the
partial Q, the snapshot columns and the sweep's ``comm_of``, move count
and hub proposals must agree bit for bit (the C scan lists a row's pairs
in first-appearance order, numpy in ascending order, so pairs are compared
through :func:`tests.core.agg_oracle.canonical_pairs`).

The protocol checks run on both paths: an owner asked for a community it
holds no aggregate for, and replies that do not repeat the requests, raise
``RuntimeError``.  Tests that need the C kernels skip where no compiler is
present.
"""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import native
from repro.core.community_table import CommunitySnapshot
from repro.core.heuristics import get_heuristic
from repro.core.local_clustering import LocalClustering
from repro.core.sweep_kernel import NumpyLevelKernels
from repro.graph.csr import build_symmetric_csr
from repro.graph.generators import path_graph
from repro.partition import delegate_partition
from tests.core.agg_oracle import canonical_pairs

HEURISTICS = ["greedy", "minlabel", "enhanced"]


@pytest.fixture(scope="module")
def c_kernels():
    if not native.available():
        pytest.skip("no C compiler: only the numpy kernels run here")


def _numpy_path():
    return mock.patch.object(native, "available", lambda: False)


def _kernels(lg, rank, size, heuristic, numpy, **params):
    """One rank's level kernels, bound as ``LocalClustering`` binds them
    (``params``: its ``resolution`` and ``theta``)."""
    comm = SimpleNamespace(rank=rank, size=size)
    if numpy:
        with _numpy_path():
            lc = LocalClustering(comm, lg, get_heuristic(heuristic), **params)
        assert isinstance(lc._kernels, NumpyLevelKernels)
    else:
        lc = LocalClustering(comm, lg, get_heuristic(heuristic), **params)
        assert isinstance(lc._kernels, native.LevelKernels)
    return lc._kernels


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _route(rows):
    """The alltoall: ``rows[s][r]`` is what rank ``s`` sends rank ``r``."""
    return [[row[r] for row in rows] for r in range(len(rows))]


def _run_phases(part, comm_ofs, heuristic, numpy, down_only, **params):
    """One sync and one vectorized sweep on every rank; returns what each
    phase produced, per rank."""
    p = part.size
    kernels = [
        _kernels(lg, r, p, heuristic, numpy, **params)
        for r, lg in enumerate(part.locals)
    ]
    sent = [k.send(c) for k, c in zip(kernels, comm_ofs)]
    received = _route([s[0] for s in sent])
    incoming = _route([s[1] for s in sent])
    owned = [k.owner(rec, inc) for k, rec, inc in zip(kernels, received, incoming)]
    answered = _route([o[1] for o in owned])
    snaps = [CommunitySnapshot(*k.place(a)) for k, a in zip(kernels, answered)]
    swept = []
    for k, snap, c in zip(kernels, snaps, comm_ofs):
        comm_of = c.copy()
        moves, hub_gain, hub_target = k.sweep(snap, comm_of, down_only)
        swept.append((moves, comm_of, hub_gain, hub_target))
    return sent, owned, snaps, swept


def _assert_phases_equal(got, ref):
    for (g_con, g_req), (r_con, r_req) in zip(got[0], ref[0]):
        assert len(g_con) == len(r_con) and len(g_req) == len(r_req)
        for g, r in zip(g_con, r_con):
            assert len(g) == len(r) == 4
            assert all(_same(a, b) for a, b in zip(g, r))
        assert all(_same(a, b) for a, b in zip(g_req, r_req))
    for (g_q, g_rep), (r_q, r_rep) in zip(got[1], ref[1]):
        assert repr(g_q) == repr(r_q)
        for (g_lab, g_val), (r_lab, r_val) in zip(g_rep, r_rep):
            assert _same(g_lab, r_lab) and _same(g_val, r_val)
    for g, r in zip(got[2], ref[2]):
        for name in CommunitySnapshot._fields[:5]:
            assert _same(getattr(g, name), getattr(r, name)), name
        for a, b in zip(canonical_pairs(g.pairs), canonical_pairs(r.pairs)):
            assert _same(a, b)
    for g, r in zip(got[3], ref[3]):
        assert g[0] == r[0]
        assert all(_same(a, b) for a, b in zip(g[1:], r[1:]))


@st.composite
def _cases(draw):
    """A float-weighted graph with self-loops, partitioned with hubs over
    1-4 ranks (small graphs leave ranks without rows), and one label per
    vertex from a pool of labels up to 2**40, far above any ``n_local``."""
    n = draw(st.integers(2, 30))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.floats(1e-3, 1e3, allow_nan=False)),
        min_size=1, max_size=120,
    ))
    src, dst, w = (np.array(col) for col in zip(*edges))
    graph = build_symmetric_csr(n, src, dst, w)
    p = draw(st.integers(1, 4))
    d_high = draw(st.sampled_from([2, 3, 5, 10**9]))
    pool = np.array(
        draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=6, unique=True)),
        dtype=np.int64,
    )
    # labels per global vertex, so every rank agrees on its ghosts' labels
    # and every referenced community has an owner's aggregate
    glabel = pool[draw(st.lists(st.integers(0, pool.size - 1), min_size=n, max_size=n))]
    return graph, p, d_high, glabel


class TestPhaseKernels:
    @settings(max_examples=150, deadline=None)
    @given(
        _cases(),
        st.sampled_from(HEURISTICS),
        st.booleans(),
        st.sampled_from([1.0, 0.5, 1.3, 2.0]),
        st.sampled_from([1e-12, 0.0, 1e-3]),
    )
    def test_c_matches_numpy(
        self, c_kernels, case, heuristic, down_only, resolution, theta
    ):
        graph, p, d_high, glabel = case
        part = delegate_partition(graph, p, d_high=d_high)
        comm_ofs = [glabel[lg.global_ids] for lg in part.locals]
        params = dict(resolution=resolution, theta=theta)
        got = _run_phases(part, comm_ofs, heuristic, False, down_only, **params)
        ref = _run_phases(part, comm_ofs, heuristic, True, down_only, **params)
        _assert_phases_equal(got, ref)

    @pytest.mark.parametrize("numpy", [False, True], ids=["c", "numpy"])
    def test_rank_without_rows(self, request, numpy):
        """More ranks than vertices: the idle ranks' phases run on empty
        arrays, and both paths agree with each other."""
        if not numpy:
            request.getfixturevalue("c_kernels")
        part = delegate_partition(path_graph(3), 4, d_high=10**9)
        assert any(lg.n_rows == 0 for lg in part.locals)
        comm_ofs = [lg.global_ids.astype(np.int64) * 7 for lg in part.locals]
        out = _run_phases(part, comm_ofs, "enhanced", numpy, True)
        if not numpy:
            _assert_phases_equal(
                out, _run_phases(part, comm_ofs, "enhanced", True, True)
            )
        # Q of the singletons of a 3-path: every community is one vertex
        assert sum(q for q, _ in out[1]) < 0

    @pytest.mark.parametrize("numpy", [False, True], ids=["c", "numpy"])
    def test_owner_without_the_aggregate_raises(self, request, numpy):
        """An owner asked for a community it holds no aggregate for names
        its rank and the label, on both paths."""
        if not numpy:
            request.getfixturevalue("c_kernels")
        part = delegate_partition(path_graph(4), 2, d_high=10**9)
        kernels = _kernels(part.locals[1], 1, 2, "enhanced", numpy)
        empty = (np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0), np.zeros(0))
        held = (np.array([5], dtype=np.int64), np.ones(1), np.ones(1), np.zeros(1))
        incoming = [np.array([5], dtype=np.int64), np.array([5, 12345], dtype=np.int64)]
        with pytest.raises(RuntimeError, match="rank 1: no aggregate for community 12345"):
            kernels.owner([empty, held], incoming)
        q, replies = kernels.owner([empty, held], incoming[:1] + [incoming[0]])
        t = 1.0 / kernels._spec.two_m
        assert q == -(t * t)
        assert all(v.tolist() == [[1.0, 1.0]] for _req, v in replies)

"""Equivalence tests for the vectorized sweep kernel.

Three layers of evidence that ``sweep_mode="vectorized"`` computes the same
algorithm as the scalar Gauss–Seidel loop:

1. **Snapshot equivalence** — against one frozen community state, the bulk
   kernel's per-row ``(chosen, gain, stay)`` must match
   ``LocalClustering._evaluate_vertex`` *exactly*, for every heuristic
   (same Eq. 4 arithmetic, same tie-breaking, same vetoes), at the
   singleton start and a few iterations in, with integer and non-integer
   weights.  Below it, the pair grouping is pinned bit for bit against a
   ``lexsort`` reference with left-to-right sums;
2. **End-to-end equivalence** — full pipeline runs in both modes land on
   equivalent final modularity (trajectories legitimately differ:
   Gauss–Seidel applies moves mid-sweep, Jacobi applies them in bulk);
3. **Accounting invariants** — both modes keep the protocol/byte structure
   intact (self-consistent Q, delta traffic never exceeding full traffic).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DistributedConfig, distributed_louvain, sequential_louvain
from repro.core.heuristics import get_heuristic
from repro.core.local_clustering import LocalClustering
from repro.core.modularity import modularity
from repro.core.sweep_kernel import aggregate_neighbor_communities, level_kernels
from repro.graph.csr import build_symmetric_csr
from repro.partition import delegate_partition
from repro.runtime import run_spmd

# Jacobi and Gauss-Seidel visit different move orders, so they may settle
# in different (equally good) local optima; this bounds the allowed gap.
Q_TOL = 0.03


def _run(graph, p, **kw):
    kw.setdefault("d_high", 40)
    return distributed_louvain(graph, p, DistributedConfig(**kw))


def _snapshot_mismatches(graph, p, heuristic, warm_iters=0):
    """Compare kernel vs scalar evaluator on one frozen state, all ranks.

    ``warm_iters`` inner iterations run first, so the snapshot holds
    multi-member communities: rows then link to one community through
    several entries, and the kernel's grouped sums are checked too.  The
    scalar evaluator reads the dict views a Gauss-Seidel pass loads from
    the sync's snapshot; the kernel's lookup columns are built from the
    same dicts, which hold every label of ``comm_of``.
    """
    partition = delegate_partition(graph, p, d_high=40)

    def worker(comm):
        lg = partition.locals[comm.rank]
        lc = LocalClustering(comm, lg, get_heuristic(heuristic))
        lc.sync_aggregates()
        for _ in range(warm_iters):
            _moved, hub_gain, hub_target = lc.find_best_pass()
            lc.broadcast_delegates(hub_gain, hub_target)
            lc.swap_ghosts()
            lc.sync_aggregates()
        lc._load_pass_views()
        labels_all, cidx = np.unique(lc.comm_of, return_inverse=True)
        labs = labels_all.tolist()
        lookup = (
            np.array([lc.sigma_tot[c] for c in labs], dtype=np.float64),
            np.array([lc.csize[c] for c in labs], dtype=np.int64),
            np.array([lc.local_members.get(c, 0) > 0 for c in labs], dtype=bool),
        )
        kernels = level_kernels(
            lg.indptr, lg.indices, lg.weights, lg.row_weighted_degree,
            lc.comm_of.size,
        )
        chosen, gain, stay, _chosen_id = kernels.gains(
            kernels.scan(cidx, labels_all.size)[2],
            cidx,
            lc.comm_of,
            labels_all,
            lookup,
            two_m=lc.two_m,
            resolution=lc.resolution,
            theta=lc.theta,
            heuristic_name=heuristic,
        )
        # both sides sum each row's links left to right in CSR entry
        # order and evaluate Eq. 4 with the same operand order: exact
        bad = []
        for u in range(lg.n_rows):
            c, g, s = lc._evaluate_vertex(u)
            if c != int(chosen[u]) or g != gain[u] or s != stay[u]:
                bad.append((comm.rank, u, c, int(chosen[u])))
        return bad

    results = run_spmd(p, worker, timeout=60.0).results
    return [entry for rank_bad in results for entry in rank_bad]


def _float_weighted(graph, seed=3):
    """``graph`` with non-integer weights drawn per undirected edge."""
    src, dst, _w = graph.edge_arrays()
    w = np.random.default_rng(seed).uniform(0.1, 3.0, src.size)
    return build_symmetric_csr(graph.n_vertices, src, dst, w)


class TestSnapshotEquivalence:
    """The kernel must reproduce the scalar evaluator vertex for vertex."""

    @pytest.mark.parametrize("heuristic", ["greedy", "minlabel", "enhanced"])
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_karate_exact(self, karate, heuristic, p):
        assert _snapshot_mismatches(karate, p, heuristic) == []

    @pytest.mark.parametrize("heuristic", ["greedy", "minlabel", "enhanced"])
    def test_web_graph_exact(self, web_graph, heuristic):
        assert _snapshot_mismatches(web_graph, 4, heuristic) == []

    def test_scale_free_exact(self, ba_graph):
        assert _snapshot_mismatches(ba_graph, 4, "enhanced") == []

    @pytest.mark.parametrize("heuristic", ["greedy", "minlabel", "enhanced"])
    @pytest.mark.parametrize("case", ["mid-run", "float-weights"])
    def test_grouped_snapshot_exact(self, lfr_small, web_graph, case, heuristic):
        if case == "mid-run":
            graph, warm = lfr_small.graph, 3
        else:
            graph, warm = _float_weighted(web_graph), 2
        assert _snapshot_mismatches(graph, 4, heuristic, warm_iters=warm) == []


def _lexsort_grouping(entry_rows, indices, weights, comm_of):
    """Reference (row, label) grouping: lexsort on the raw labels, each
    group summed left to right from 0.0 (the scalar evaluator's order)."""
    mask = indices != entry_rows
    rows = entry_rows[mask]
    labels = comm_of[indices[mask]]
    w = weights[mask]
    if rows.size == 0:
        empty_i = np.zeros(0, dtype=np.int64)
        return empty_i, empty_i, np.zeros(0, dtype=np.float64)
    order = np.lexsort((labels, rows))
    rows, labels, w = rows[order], labels[order], w[order]
    boundary = np.empty(rows.size, dtype=bool)
    boundary[0] = True
    boundary[1:] = (rows[1:] != rows[:-1]) | (labels[1:] != labels[:-1])
    starts = np.flatnonzero(boundary)
    sums = []
    for seg in np.split(w, starts[1:]):
        acc = 0.0
        for x in seg.tolist():
            acc += x
        sums.append(acc)
    return rows[starts], labels[starts], np.array(sums, dtype=np.float64)


@st.composite
def _csr_snapshots(draw):
    """A row-sorted CSR (empty rows, self-loops, non-integer weights) over
    ``n`` vertices plus a sparse label per vertex, drawn from a small pool
    of labels up to 2**40 so that many entries share a community."""
    n = draw(st.integers(1, 24))
    n_rows = draw(st.integers(1, n))
    pool = draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=6, unique=True))
    comm_of = np.array(
        [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)],
        dtype=np.int64,
    )
    rows, cols, wts = [], [], []
    for u in range(n_rows):
        for v in draw(st.lists(st.integers(0, n - 1), max_size=8)):
            rows.append(u)
            cols.append(v)
            wts.append(
                draw(st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False))
            )
    return (
        np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64),
        np.array(wts, dtype=np.float64),
        comm_of,
    )


class TestPairGroupingProperty:
    """The compact-index grouping must equal the lexsort grouping bit for
    bit: same pairs in the same order, each sum accumulated sequentially
    in CSR entry order."""

    @settings(max_examples=300, deadline=None)
    @given(_csr_snapshots())
    def test_matches_lexsort_reference(self, snapshot):
        entry_rows, indices, weights, comm_of = snapshot
        labels_all, cidx = np.unique(comm_of, return_inverse=True)
        rows, ids, w = aggregate_neighbor_communities(
            entry_rows, indices, weights, cidx, labels_all.size
        )
        ref_rows, ref_labels, ref_w = _lexsort_grouping(
            entry_rows, indices, weights, comm_of
        )
        assert np.array_equal(rows, ref_rows)
        assert np.array_equal(labels_all[ids], ref_labels)
        assert np.array_equal(w, ref_w)
        assert w.dtype == ref_w.dtype and w.tobytes() == ref_w.tobytes()


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("p", [1, 2, 8])
    def test_karate(self, karate, p):
        gs = _run(karate, p, sweep_mode="gauss-seidel")
        vec = _run(karate, p, sweep_mode="vectorized")
        assert np.isclose(vec.modularity, modularity(karate, vec.assignment))
        assert abs(gs.modularity - vec.modularity) < Q_TOL

    @pytest.mark.parametrize("p", [1, 2, 8])
    def test_lfr(self, lfr_small, p):
        g = lfr_small.graph
        gs = _run(g, p, sweep_mode="gauss-seidel")
        vec = _run(g, p, sweep_mode="vectorized")
        assert np.isclose(vec.modularity, modularity(g, vec.assignment))
        assert abs(gs.modularity - vec.modularity) < Q_TOL

    @pytest.mark.parametrize("p", [1, 2, 8])
    def test_scale_free(self, ba_graph, p):
        gs = _run(ba_graph, p, sweep_mode="gauss-seidel")
        vec = _run(ba_graph, p, sweep_mode="vectorized")
        assert np.isclose(
            vec.modularity, modularity(ba_graph, vec.assignment)
        )
        assert abs(gs.modularity - vec.modularity) < Q_TOL

    def test_tracks_sequential_on_lfr(self, lfr_small):
        seq = sequential_louvain(lfr_small.graph)
        vec = _run(lfr_small.graph, 4, sweep_mode="vectorized")
        assert vec.modularity > seq.modularity - 0.05

    @pytest.mark.parametrize("heuristic", ["greedy", "minlabel", "enhanced"])
    def test_all_heuristics_self_consistent(self, web_graph, heuristic):
        res = _run(
            web_graph, 4, sweep_mode="vectorized", heuristic=heuristic,
            max_inner=30,
        )
        assert np.isclose(
            res.modularity, modularity(web_graph, res.assignment)
        ), heuristic


class TestModeGrid:
    """sweep_mode x ghost_mode: every combination must be self-consistent
    and land near the full-ghost Gauss-Seidel baseline."""

    @pytest.mark.parametrize("sweep", ["gauss-seidel", "vectorized"])
    @pytest.mark.parametrize("ghost", ["full", "delta"])
    def test_grid_self_consistent(self, lfr_small, sweep, ghost):
        g = lfr_small.graph
        res = _run(g, 4, sweep_mode=sweep, ghost_mode=ghost)
        assert np.isclose(res.modularity, modularity(g, res.assignment))
        assert res.modularity > 0.75

    @pytest.mark.parametrize("sweep", ["gauss-seidel", "vectorized"])
    def test_delta_traffic_never_exceeds_full(self, lfr_small, sweep):
        g = lfr_small.graph
        full = _run(g, 4, sweep_mode=sweep)
        delta = _run(g, 4, sweep_mode=sweep, ghost_mode="delta")
        full_bytes = sum(r.total_bytes_sent for r in full.stats.ranks)
        delta_bytes = sum(r.total_bytes_sent for r in delta.stats.ranks)
        assert delta_bytes <= full_bytes
        # received volume must mirror sent volume under both modes
        for res in (full, delta):
            sent = sum(r.total_bytes_sent for r in res.stats.ranks)
            recv = sum(r.total_bytes_recv for r in res.stats.ranks)
            assert recv <= sent  # tree collectives receive less than sent


class TestSweepModeSurface:
    def test_bad_mode_rejected(self, karate):
        with pytest.raises(Exception):
            _run(karate, 2, sweep_mode="bogus")

    def test_compute_units_match_scalar_sweep(self, karate):
        """Both modes scan every directed entry once per inner iteration,
        so compute-per-iteration must be identical."""
        gs = _run(karate, 2, sweep_mode="gauss-seidel", max_inner=1)
        vec = _run(karate, 2, sweep_mode="vectorized", max_inner=1)

        def first_level_compute(res):
            return sum(
                r.compute_by_phase.get("s1:find_best", 0.0)
                for r in res.stats.ranks
            )

        gs_iters = gs.levels[0].n_iterations
        vec_iters = vec.levels[0].n_iterations
        assert first_level_compute(gs) / max(gs_iters, 1) == pytest.approx(
            first_level_compute(vec) / max(vec_iters, 1)
        )

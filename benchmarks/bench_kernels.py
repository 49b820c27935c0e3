"""Kernel micro-benchmarks — wall-clock performance of the library's hot
paths, measured by pytest-benchmark with real repetition.

Unlike the figure benchmarks (which report *simulated* distributed time),
these track the single-process speed of the building blocks so performance
regressions in the implementation itself are caught.

Besides the pytest-benchmark cases, this file doubles as a script::

    PYTHONPATH=src:. python benchmarks/bench_kernels.py --json BENCH_kernels.json

which times each vectorized kernel (local sweep, owner-bucketing pack,
aggregate sync, merge assembly) against its scalar reference on the
56k-edge Barabasi-Albert reference graph, and each native C kernel
against its numpy reference, and writes the before/after/speedup table
as machine-readable JSON (see ``docs/PERFORMANCE.md``).  The C rows are
the sweep's gain pass over the snapshot's neighbour-community pairs
(``sweep``), the sync's compact label index (``label_index``, against
``np.unique``), the phases of the inner iteration on rank 0 of a
recorded p=4 sync round, its peers' payloads replayed: the send phase
(``send``: index, fused scan, member sums, owner bucketing), the owner
phase (``owner``: owner table, partial Q, answers) and one whole inner
iteration, a sync plus a vectorized sweep (``inner_iteration``), which
``inner_iteration_small`` repeats at request-stream size (rank 0 of
``lfr_graph(300, mu=0.3, seed=3)`` at p=2); and graph construction by
counting sort against comparison sorts: the global CSR
build from a shuffled edge list (``csr_build``), the row sorts of a
delegate partition's per-rank CSRs (``partition``, ``native.pair_sort``
on every rank's entries in their arrival order) and the merge's pair
aggregation over every CSR entry (``merge_aggregate``).  The aggregate-sync and merge-assembly
references, and the pipeline row's reference run, come from the test
oracle ``tests/core/agg_oracle.py``, hence the repository root on
``PYTHONPATH``.  ``--check`` exits non-zero if any vectorized
kernel is slower than its scalar reference, or any C kernel slower than
its numpy reference (the CI ``bench-smoke`` gate); ``--quick`` shrinks
the workload for CI.
"""

import argparse
import json
import sys
import time
from unittest import mock

import numpy as np
import pytest

from repro.bench import load_dataset
from repro.core import (
    DistributedConfig,
    distributed_louvain,
    native,
    sequential_louvain,
)
from repro.core.coarsen import coarsen_graph
from repro.core.community_table import CommunitySnapshot, OwnerTable
from repro.core.heuristics import get_heuristic
from repro.core.local_clustering import LocalClustering
from repro.core.merging import _aggregate_pairs, _assemble
from repro.core.modularity import modularity
from repro.core.pack import pack_bounds, pack_by_owner
from repro.core.sweep_kernel import NumpyLevelKernels, level_kernels
from repro.graph.csr import build_symmetric_csr
from repro.graph.generators import barabasi_albert, lfr_graph
from repro.partition import delegate_partition, oned_partition
from repro.quality import score_all
from repro.runtime import run_spmd
from tests.core.agg_oracle import (
    DictOwnerReference,
    assemble_scalar,
    scalar_reference,
)


@pytest.fixture(scope="module")
def medium_graph():
    return load_dataset("livejournal").graph


@pytest.fixture(scope="module")
def scalefree_graph():
    # ~56k edges with heavy hubs, so the local sweep dominates wall-clock
    # and the gauss-seidel/vectorized gap is what gets measured.
    return barabasi_albert(7000, 8, seed=5)


@pytest.fixture(scope="module")
def assignment(medium_graph):
    rng = np.random.default_rng(0)
    return rng.integers(0, 200, medium_graph.n_vertices)


def test_kernel_csr_build(benchmark, medium_graph):
    src, dst, w = medium_graph.edge_arrays()
    n = medium_graph.n_vertices
    g = benchmark(lambda: build_symmetric_csr(n, src, dst, w))
    assert g.n_edges == medium_graph.n_edges


def test_kernel_delegate_partition(benchmark, medium_graph):
    part = benchmark(lambda: delegate_partition(medium_graph, 16, d_high=128))
    assert part.size == 16


def test_kernel_oned_partition(benchmark, medium_graph):
    part = benchmark(lambda: oned_partition(medium_graph, 16))
    assert part.size == 16


def test_kernel_modularity(benchmark, medium_graph, assignment):
    q = benchmark(lambda: modularity(medium_graph, assignment))
    assert -0.5 <= q <= 1.0


def test_kernel_coarsen(benchmark, medium_graph, assignment):
    coarse, _ = benchmark(lambda: coarsen_graph(medium_graph, assignment))
    assert np.isclose(coarse.total_weight, medium_graph.total_weight)


def test_kernel_quality_metrics(benchmark, assignment):
    rng = np.random.default_rng(1)
    other = rng.integers(0, 200, assignment.size)
    scores = benchmark(lambda: score_all(assignment, other))
    assert set(scores) == {"NMI", "F-measure", "NVD", "RI", "ARI", "JI"}


def test_kernel_sequential_louvain_small(benchmark):
    graph = load_dataset("lfr").graph
    res = benchmark.pedantic(
        lambda: sequential_louvain(graph), rounds=3, iterations=1
    )
    assert res.modularity > 0.5


def test_kernel_distributed_louvain_small(benchmark):
    graph = load_dataset("lfr").graph
    res = benchmark.pedantic(
        lambda: distributed_louvain(graph, 4, DistributedConfig(d_high=64)),
        rounds=3,
        iterations=1,
    )
    assert res.modularity > 0.5


def test_kernel_distributed_louvain_traced(benchmark):
    """Same workload as ``test_kernel_distributed_louvain_small`` but with a
    recorder attached — tracks the cost of *active* tracing.  The disabled
    path (the default above) is one attribute check per hook and must stay
    within noise of the untraced number."""
    from repro.runtime.tracing import TraceRecorder

    graph = load_dataset("lfr").graph
    res = benchmark.pedantic(
        lambda: distributed_louvain(
            graph, 4, DistributedConfig(d_high=64), tracer=TraceRecorder()
        ),
        rounds=3,
        iterations=1,
    )
    assert res.modularity > 0.5


def test_kernel_sweep_gauss_seidel(benchmark, scalefree_graph):
    """Scalar per-vertex sweep on a >=50k-edge scale-free graph.

    Compare against ``test_kernel_sweep_vectorized`` below: the bulk Jacobi
    kernel must come out at least ~3x faster on this workload.
    """
    res = benchmark.pedantic(
        lambda: distributed_louvain(
            scalefree_graph,
            4,
            DistributedConfig(d_high=64, sweep_mode="gauss-seidel"),
        ),
        rounds=1,
        iterations=1,
    )
    assert res.modularity > 0.15


def test_kernel_sweep_vectorized(benchmark, scalefree_graph):
    res = benchmark.pedantic(
        lambda: distributed_louvain(
            scalefree_graph,
            4,
            DistributedConfig(d_high=64, sweep_mode="vectorized"),
        ),
        rounds=2,
        iterations=1,
    )
    assert res.modularity > 0.15


# ---------------------------------------------------------------------------
# Kernel workloads (sweep / pack / aggregate sync / merge assembly), each
# with its scalar reference.  Shared between the pytest-benchmark cases
# below and the BENCH_kernels.json script mode.
# ---------------------------------------------------------------------------

P_RANKS = 16  # bucket count for the pack workload
SYNC_RANKS = 4
SWEEP_WARM_ITERS = 3


def _sweep_snapshot_program(comm, partition):
    lc = LocalClustering(comm, partition.locals[comm.rank], get_heuristic("enhanced"))
    lc.sync_aggregates()
    for _ in range(SWEEP_WARM_ITERS):
        _moved, hub_gain, hub_target = lc.find_best_pass()
        lc.broadcast_delegates(hub_gain, hub_target)
        lc.swap_ghosts()
        lc.sync_aggregates()
    return lc if comm.rank == 0 else None


def _sweep_workload(graph, size=SYNC_RANKS):
    """Rank 0's state a few inner iterations into level 1.

    Communities then have several members, so rows reach one community
    through several entries.  Returns the rank's LocalClustering (its pass
    views loaded for ``_evaluate_vertex``) and the snapshot of its last
    sync, which the vectorized sweep reads.
    """
    partition = delegate_partition(graph, size, d_high=64)
    lc = run_spmd(size, _sweep_snapshot_program, partition, backend="thread").results[0]
    lc._load_pass_views()
    return lc, lc.snapshot


def _phase_round_program(comm, partition):
    """A few inner iterations into level 1, then one recorded sync round:
    rank 0 returns its LocalClustering and the payloads its peers sent it,
    which replay that round's owner and place phases exactly."""
    lc = LocalClustering(
        comm, partition.locals[comm.rank], get_heuristic("enhanced"),
        sweep_mode="vectorized",
    )
    lc.sync_aggregates()
    for _ in range(SWEEP_WARM_ITERS):
        _moved, hub_gain, hub_target = lc.find_best_pass()
        lc.broadcast_delegates(hub_gain, hub_target)
        lc.swap_ghosts()
        lc.sync_aggregates()
    contributions, requests = lc._kernels.send(lc.comm_of)
    received = comm.alltoall(contributions)
    incoming = comm.alltoall(requests)
    _q, replies = lc._kernels.owner(received, incoming)
    answered = comm.alltoall(replies)
    return (lc, received, incoming, answered) if comm.rank == 0 else None


def _phase_round(graph, size, d_high):
    """Rank 0's bound level and one recorded sync round (see
    :func:`_phase_round_program`)."""
    partition = delegate_partition(graph, size, d_high=d_high)
    return run_spmd(size, _phase_round_program, partition, backend="thread").results[0]


def _inner_iteration(lc, received, incoming, answered):
    """One sync plus one vectorized sweep of rank 0 on its bound level
    kernels, the peers' side of the round replayed: the four phase calls
    of an inner iteration that do not wait on another rank."""
    kernels = lc._kernels
    kernels.send(lc.comm_of)
    kernels.owner(received, incoming)
    snap = CommunitySnapshot(*kernels.place(answered))
    return kernels.sweep(snap, lc.comm_of.copy(), True)


def _sweep_scalar(lc, snap):
    return [lc._evaluate_vertex(u) for u in range(lc.lg.n_rows)]


def _sweep_vectorized(lc, snap):
    """One-shot vectorized sweep of the snapshot: bind the level kernels,
    scan the CSR under the snapshot's index, and run the gain pass."""
    lg = lc.lg
    kernels = level_kernels(
        lg.indptr, lg.indices, lg.weights, lg.row_weighted_degree, lc.comm_of.size
    )
    return kernels.gains(
        kernels.scan(snap.cidx, snap.labels.size)[2],
        snap.cidx,
        lc.comm_of,
        snap.labels,
        snap.lookup(),
        two_m=lc.two_m,
        resolution=lc.resolution,
        theta=lc.theta,
        heuristic_name=lc.heuristic.name,
    )[:3]


def _numpy_kernels():
    """Context in which the numpy kernels run instead of the C ones."""
    return mock.patch.object(native, "available", lambda: False)


def _numpy_twin(lc):
    """A LocalClustering on the same rank state whose kernels are numpy."""
    with _numpy_kernels():
        twin = LocalClustering(lc.comm, lc.lg, lc.heuristic)
    assert isinstance(twin._kernels, NumpyLevelKernels)
    twin.comm_of = lc.comm_of
    return twin


def _gain_pass(lc, snap):
    """The vectorized sweep's gain pass over the snapshot's pairs."""
    return lc._kernels.gains(
        snap.pairs,
        snap.cidx,
        lc.comm_of,
        snap.labels,
        snap.lookup(),
        two_m=lc.two_m,
        resolution=lc.resolution,
        theta=lc.theta,
        heuristic_name=lc.heuristic.name,
    )


def _pack_workload(graph):
    """Owner array + three parallel payload arrays over every CSR entry."""
    rows = np.repeat(
        np.arange(graph.n_vertices, dtype=np.int64), np.diff(graph.indptr)
    )
    owner = graph.indices % P_RANKS
    return owner, (rows, graph.indices.astype(np.int64), graph.weights)


def _pack_scalar(owner, arrays):
    return [tuple(a[owner == r] for a in arrays) for r in range(P_RANKS)]


def _pack_vectorized(owner, arrays):
    return pack_by_owner(owner, P_RANKS, *arrays)


def _sync_workload(graph, size=SYNC_RANKS):
    """One full-sync round's data, as every rank of the sync phase sees it.

    Covers the complete dict-based path the tables replaced: owner-side
    contribution merging, full-pull request answering, subscriber-side
    placement of the replies, local census, and partial modularity.
    Communication itself is excluded (identical payloads either way); only
    the per-label CPU work differs.  Each subscriber's compact label index
    and request order come precomputed: the sync builds them for its
    contributions and requests anyway.
    """
    rng = np.random.default_rng(7)
    n = graph.n_vertices
    labels_of = rng.integers(0, max(n // 4, 2), n).astype(np.int64)
    wdeg = graph.weighted_degrees
    reports = []
    census = []
    needed = []
    for r in range(size):
        verts = np.arange(r, n, size)
        census.append(labels_of[verts])
        uniq, inv = np.unique(labels_of[verts], return_inverse=True)
        tot = np.zeros(uniq.size)
        np.add.at(tot, inv, wdeg[verts])
        cnt = np.bincount(inv, minlength=uniq.size).astype(np.float64)
        reports.append((uniq, tot, cnt, tot * 0.5))
        # referenced communities: own labels plus ghost-neighbour labels;
        # owned vertices come first in comm_of, as on a rank
        ghosts = rng.choice(n, size=n // size, replace=False)
        comm_of = np.concatenate([labels_of[verts], labels_of[ghosts]])
        needed.append(np.unique(comm_of, return_inverse=True))
    streams = []
    requests = []
    for owner in range(size):
        parts = [
            tuple(col[labs % size == owner] for col in (labs, tot, cnt, s_in))
            for labs, tot, cnt, s_in in reports
        ]
        streams.append(tuple(np.concatenate(c) for c in zip(*parts)))
        requests.append(
            np.concatenate([nd[nd % size == owner] for nd, _cidx in needed])
        )
    # precomputed answers for the subscriber side (per rank, the rank-order
    # concatenation of every owner's reply to the owner-bucketed requests)
    g_uniq, g_inv = np.unique(labels_of, return_inverse=True)
    g_tot = np.zeros(g_uniq.size)
    np.add.at(g_tot, g_inv, wdeg)
    g_cnt = np.bincount(g_inv, minlength=g_uniq.size).astype(np.float64)
    answered = []
    for (nd, cidx), members in zip(needed, census):
        order = pack_bounds(nd % size, size)[0]
        req = nd[order]
        pos = np.searchsorted(g_uniq, req)
        vals = np.empty((req.size, 2))
        vals[:, 0] = g_tot[pos]
        vals[:, 1] = g_cnt[pos]
        answered.append((nd, cidx, order, req, vals, members.size))
    return {
        "streams": streams,
        "requests": requests,
        "answered": answered,
        "census": census,
    }


def _sync_scalar(w, two_m=1000.0, resolution=1.0):
    """The seed's dict-based sync round: merge/answer/rebuild/census/Q."""
    q_total = 0.0
    for owner in range(len(w["streams"])):
        # owner side: merge arrival stream, answer pulls, partial Q
        own = DictOwnerReference()
        own.merge(*w["streams"][owner])
        own.answer(w["requests"][owner])
        # per-owner subtotal, as the real allreduce sees it
        q_total += own.partial_modularity(two_m, resolution)
    for (_nd, _cidx, _order, req, vals, _n), members in zip(
        w["answered"], w["census"]
    ):
        # subscriber side: rebuild caches from the answers, local census
        sigma_tot = {}
        csize = {}
        for lab, (t, c) in zip(req.tolist(), vals.tolist()):
            sigma_tot[lab] = t
            csize[lab] = int(round(c))
        local_members = {}
        for lab in members.tolist():
            local_members[lab] = local_members.get(lab, 0) + 1
    return q_total


def _sync_vectorized(w, two_m=1000.0, resolution=1.0):
    q_total = 0.0
    for owner in range(len(w["streams"])):
        labs, tot, cnt, s_in = w["streams"][owner]
        own = OwnerTable(labs, tot, cnt, s_in)
        q_total += own.partial_modularity(two_m, resolution)
        req = w["requests"][owner]
        vals = np.empty((req.size, 2))
        vals[:, 0], vals[:, 1] = own.lookup(req)
    for nd, cidx, order, _req, vals, n_owned in w["answered"]:
        # the numpy place phase: replies onto the compact index, census
        sigma_tot = np.empty(nd.size)
        sigma_tot[order] = vals[:, 0]
        size = np.empty(nd.size, dtype=np.int64)
        size[order] = np.rint(vals[:, 1])
        np.bincount(cidx[:n_owned], minlength=nd.size)
    return q_total


def _merge_workload(graph, size=SYNC_RANKS, rank=0):
    """One rank's densified coarse-pair stream, as merge step 4 sees it."""
    rng = np.random.default_rng(11)
    n = graph.n_vertices
    assign = rng.integers(0, max(n // 8, 2), n).astype(np.int64)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    cu, cv = assign[rows], assign[graph.indices]
    acu, acv, aw = _aggregate_pairs(cu, cv, graph.weights)
    glabels = np.unique(np.concatenate([acu, acv]))
    k = int(glabels.size)
    dcu = np.searchsorted(glabels, acu)
    dcv = np.searchsorted(glabels, acv)
    sel = dcu % size == rank
    ncu, ncv, nw = _aggregate_pairs(dcu[sel], dcv[sel], aw[sel])
    keep = nw > 0.0
    return rank, size, k, ncu[keep], ncv[keep], nw[keep]


def _aggregate_workload(graph):
    """Merge step 1's input: every CSR entry as a (community, community,
    weight) triple under a random assignment of about n / 8 labels."""
    rng = np.random.default_rng(13)
    n = graph.n_vertices
    assign = rng.integers(0, max(n // 8, 2), n).astype(np.int64) * 7919
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    return assign[rows], assign[graph.indices], graph.weights


def _partition_workload(graph, size=SYNC_RANKS):
    """Every rank's row-sort arguments in a delegate partition
    (``native.pair_sort(src_local, dst_local, n_rows, n_local)``), its
    entries in the order ``build_local_graphs`` meets them (global CSR
    order)."""
    part = delegate_partition(graph, size, d_high=64)
    args = []
    for lg in part.locals:
        src = np.repeat(np.arange(lg.n_rows, dtype=np.int64), np.diff(lg.indptr))
        order = np.lexsort((lg.global_ids[lg.indices], lg.global_ids[src]))
        args.append((src[order], lg.indices[order], lg.n_rows, lg.n_local))
    return args


def _csr_build_workload(graph):
    """The edge list of ``graph`` in random order and orientation, with
    float weights: a real input to sort, not an already sorted one."""
    src, dst, _w = graph.edge_arrays()
    rng = np.random.default_rng(3)
    order = rng.permutation(src.size)
    src, dst = src[order], dst[order]
    flip = rng.random(src.size) < 0.5
    src, dst = np.where(flip, dst, src), np.where(flip, src, dst)
    return graph.n_vertices, src, dst, rng.uniform(0.5, 2.0, src.size)


def _with_numpy_kernels(fn):
    """``fn`` run with the numpy kernels in place of the C ones."""

    def run():
        with _numpy_kernels():
            return fn()

    return run


def test_kernel_sweep_bulk(benchmark, scalefree_graph):
    snap = _sweep_workload(scalefree_graph)
    chosen, gain, stay = benchmark(lambda: _sweep_vectorized(*snap))
    ref = _sweep_scalar(*snap)
    assert [c for c, _g, _s in ref] == chosen.tolist()
    assert np.allclose([g for _c, g, _s in ref], gain, rtol=0, atol=1e-9)
    assert np.allclose([s for _c, _g, s in ref], stay, rtol=0, atol=1e-9)


def test_kernel_sweep_scalar_reference(benchmark, scalefree_graph):
    """The per-vertex ``_evaluate_vertex`` loop that the bulk kernel
    replaces, on the same snapshot."""
    snap = _sweep_workload(scalefree_graph)
    got = benchmark(lambda: _sweep_scalar(*snap))
    assert len(got) == snap[0].lg.n_rows


def test_kernel_pack_by_owner(benchmark, scalefree_graph):
    owner, arrays = _pack_workload(scalefree_graph)
    got = benchmark(lambda: _pack_vectorized(owner, arrays))
    assert sum(p[0].size for p in got) == owner.size


def test_kernel_pack_masked_reference(benchmark, scalefree_graph):
    """The O(n * p) boolean-mask split that pack_by_owner replaces."""
    owner, arrays = _pack_workload(scalefree_graph)
    got = benchmark(lambda: _pack_scalar(owner, arrays))
    assert sum(p[0].size for p in got) == owner.size


def test_kernel_aggregate_sync_dense(benchmark, scalefree_graph):
    streams = _sync_workload(scalefree_graph)
    q = benchmark(lambda: _sync_vectorized(streams))
    assert q == _sync_scalar(streams)  # bitwise-equal reduction


def test_kernel_aggregate_sync_scalar(benchmark, scalefree_graph):
    streams = _sync_workload(scalefree_graph)
    benchmark(lambda: _sync_scalar(streams))


def test_kernel_merge_assembly_vectorized(benchmark, scalefree_graph):
    args = _merge_workload(scalefree_graph)
    out = benchmark(lambda: _assemble(*args))
    ref = assemble_scalar(*args)
    assert all(np.array_equal(a, b) for a, b in zip(out, ref))


def test_kernel_merge_assembly_scalar(benchmark, scalefree_graph):
    args = _merge_workload(scalefree_graph)
    benchmark(lambda: assemble_scalar(*args))


# ---------------------------------------------------------------------------
# Script mode: emit BENCH_kernels.json (see module docstring)
# ---------------------------------------------------------------------------


def _best_of(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def run_kernel_suite(quick=False, pipeline=True):
    """Time every vectorized kernel against its scalar reference; returns
    the BENCH_kernels.json document."""
    if quick:
        graph = barabasi_albert(1500, 6, seed=5)
        repeats = 3
    else:
        graph = barabasi_albert(7000, 8, seed=5)
        repeats = 5

    report = {
        "graph": {
            "generator": f"barabasi_albert({graph.n_vertices}, "
            f"{6 if quick else 8}, seed=5)",
            "n_vertices": int(graph.n_vertices),
            "n_edges": int(graph.n_edges),
        },
        "quick": quick,
        "native": native.available(),
        "kernels": {},
        "native_kernels": {},
    }

    snap = _sweep_workload(graph)
    owner, arrays = _pack_workload(graph)
    streams = _sync_workload(graph)
    merge_args = _merge_workload(graph)
    cases = {
        "sweep": (
            lambda: _sweep_scalar(*snap),
            lambda: _sweep_vectorized(*snap),
        ),
        "pack_by_owner": (
            lambda: _pack_scalar(owner, arrays),
            lambda: _pack_vectorized(owner, arrays),
        ),
        "aggregate_sync": (
            lambda: _sync_scalar(streams),
            lambda: _sync_vectorized(streams),
        ),
        "merge_assembly": (
            lambda: assemble_scalar(*merge_args),
            lambda: _assemble(*merge_args),
        ),
    }
    for name, (scalar_fn, vector_fn) in cases.items():
        scalar_s = _best_of(scalar_fn, repeats)
        vector_s = _best_of(vector_fn, repeats)
        report["kernels"][name] = {
            "scalar_s": scalar_s,
            "vectorized_s": vector_s,
            "speedup": scalar_s / vector_s if vector_s > 0 else float("inf"),
        }

    # each C kernel against its numpy reference: on the sweep snapshot, the
    # gain pass and the label index; on rank 0's recorded sync round, the
    # send and owner phases, and one whole inner iteration (sync plus
    # sweep) there and at request-stream size
    lc, synced = snap
    twin = _numpy_twin(lc) if report["native"] else None
    round_ = _phase_round(graph, SYNC_RANKS, 64)
    small = lfr_graph(300, mu=0.3, seed=3)
    small_round = _phase_round(getattr(small, "graph", small), 2, 32)
    if report["native"]:
        round_twin = (_numpy_twin(round_[0]), *round_[1:])
        small_twin = (_numpy_twin(small_round[0]), *small_round[1:])
    build_args = _csr_build_workload(graph)
    pairs = _aggregate_workload(graph)
    row_sort_args = _partition_workload(graph)

    def csr_build():
        return build_symmetric_csr(*build_args)

    def partition():
        return [native.pair_sort(*args) for args in row_sort_args]

    def merge_aggregate():
        return _aggregate_pairs(*pairs)

    native_cases = {
        "sweep": (lambda: _gain_pass(twin, synced), lambda: _gain_pass(lc, synced)),
        "send": (
            lambda: round_twin[0]._kernels.send(round_[0].comm_of),
            lambda: round_[0]._kernels.send(round_[0].comm_of),
        ),
        "label_index": (
            lambda: np.unique(lc.comm_of, return_inverse=True),
            lambda: lc._kernels.index(lc.comm_of),
        ),
        "owner": (
            lambda: round_twin[0]._kernels.owner(*round_twin[1:3]),
            lambda: round_[0]._kernels.owner(*round_[1:3]),
        ),
        "inner_iteration": (
            lambda: _inner_iteration(*round_twin),
            lambda: _inner_iteration(*round_),
        ),
        "inner_iteration_small": (
            lambda: _inner_iteration(*small_twin),
            lambda: _inner_iteration(*small_round),
        ),
        "csr_build": (_with_numpy_kernels(csr_build), csr_build),
        "partition": (_with_numpy_kernels(partition), partition),
        "merge_aggregate": (_with_numpy_kernels(merge_aggregate), merge_aggregate),
    }
    # sub-millisecond kernels: more repeats for a stable minimum
    for name, (numpy_fn, c_fn) in native_cases.items() if report["native"] else ():
        numpy_s = _best_of(numpy_fn, 10 * repeats)
        c_s = _best_of(c_fn, 10 * repeats)
        report["native_kernels"][name] = {
            "numpy_s": numpy_s,
            "c_s": c_s,
            "speedup": numpy_s / c_s if c_s > 0 else float("inf"),
        }

    if pipeline:
        # end-to-end check: the same pipeline with the oracle's dict-based
        # sync and merge assembly swapped in, vs the product (the sweep is
        # vectorized in both, so the delta is the non-sweep share); the
        # swap only reaches thread-backend ranks
        cfg = DistributedConfig(
            d_high=64, sweep_mode="vectorized", backend="thread"
        )

        def run_reference():
            with scalar_reference() as calls:
                distributed_louvain(graph, SYNC_RANKS, cfg)
            assert calls["sync"] > 0 and calls["assemble"] > 0

        rounds = 1 if quick else 2
        scalar_s = _best_of(run_reference, rounds)
        dense_s = _best_of(
            lambda: distributed_louvain(graph, SYNC_RANKS, cfg), rounds
        )
        report["pipeline"] = {
            "config": "p=4, sweep_mode=vectorized, d_high=64, backend=thread",
            "agg_scalar_s": scalar_s,
            "agg_dense_s": dense_s,
            "speedup": scalar_s / dense_s if dense_s > 0 else float("inf"),
        }
    return report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--json", type=str, default="BENCH_kernels.json",
        help="output path for the JSON report",
    )
    ap.add_argument(
        "--quick", action="store_true",
        help="smaller graph and fewer repeats (CI smoke)",
    )
    ap.add_argument(
        "--no-pipeline", action="store_true",
        help="skip the end-to-end comparison with the oracle's sync and "
        "merge assembly",
    )
    ap.add_argument(
        "--check", action="store_true",
        help="exit 1 if any vectorized kernel is slower than its scalar "
        "reference",
    )
    args = ap.parse_args(argv)

    report = run_kernel_suite(quick=args.quick, pipeline=not args.no_pipeline)
    with open(args.json, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    width = max(len(k) for k in report["kernels"])
    print(f"{'kernel':{width}s}  {'scalar':>10s}  {'vectorized':>10s}  speedup")
    for name, row in report["kernels"].items():
        print(
            f"{name:{width}s}  {row['scalar_s'] * 1e3:8.2f}ms  "
            f"{row['vectorized_s'] * 1e3:8.2f}ms  {row['speedup']:6.2f}x"
        )
    if report["native"]:
        print(f"{'native':{width}s}  {'numpy':>10s}  {'C':>10s}  speedup")
        for name, row in report["native_kernels"].items():
            print(
                f"{name:{width}s}  {row['numpy_s'] * 1e3:8.2f}ms  "
                f"{row['c_s'] * 1e3:8.2f}ms  {row['speedup']:6.2f}x"
            )
    else:
        print("native kernels unavailable: numpy only")
    if "pipeline" in report:
        row = report["pipeline"]
        print(
            f"pipeline (oracle -> product): {row['agg_scalar_s']:.2f}s -> "
            f"{row['agg_dense_s']:.2f}s  ({row['speedup']:.2f}x)"
        )
    print(f"wrote {args.json}")

    if args.check:
        slow = [
            name
            for name, row in report["kernels"].items()
            if row["speedup"] < 1.0
        ]
        slow_c = [
            name
            for name, row in report["native_kernels"].items()
            if row["speedup"] < 1.0
        ]
        if slow or slow_c:
            if slow:
                print(f"FAIL: vectorized kernels slower than scalar: {slow}")
            if slow_c:
                print(f"FAIL: C kernels slower than numpy: {slow_c}")
            return 1
        print("OK: every vectorized and C kernel at least matches its reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())

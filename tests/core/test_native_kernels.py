"""The native kernels (``repro.core.native``) against their numpy references.

The C label hash, fused CSR scan and gain pass must reproduce the numpy
kernels bit for bit, so which path runs never changes an answer:

1. **Label hash** (Hypothesis) — the sync's compact index against
   ``np.unique(return_inverse=True)`` on empty input, one label, all labels
   equal, labels up to 2**62 and keys that collide modulo the table size;
   the ``OwnerTable`` against the dict reference, insertion order
   included;
2. **Kernel identity** (Hypothesis) — on random row-sorted CSRs with float
   weights, self-loops, empty rows, hub rows and labels up to 2**40: the
   scan's internal weights against ``internal_weight``, its pairs against
   ``aggregate_neighbor_communities``, and the gain pass against its numpy
   twin for every heuristic, on C pairs, numpy pairs and pairs shuffled
   within their rows; both gain passes refuse a heuristic they have no
   rule for;
   the sync's send phase (contributions, requests and pairs) on random
   float-weighted partitioned graphs, whose other phases
   ``tests/core/test_phase_kernels.py`` covers; a snapshot held across
   later syncs stays unchanged;
3. **Graph build** (Hypothesis) — the counting sort against a stable
   argsort, its run sums against ``np.unique`` plus ``np.add.at`` to the
   bit, and the hashed ``unique_inverse`` against ``np.unique``;
4. **End-to-end identity** — labels, ``repr(Q)``, per-level Q and per-rank
   per-phase byte counts of whole runs with the numpy kernels forced and
   with C;
5. **Build and cache** — the shipped source names the cached library,
   nothing builds at import, a failing compiler falls back to numpy, an
   unsafe cache directory is refused, and concurrent builders into one
   cache directory all load the same library.

Tests that need the C kernels skip where no compiler is present; the CI
jobs assert separately that the kernels build there.
"""

import contextlib
import hashlib
import logging
import multiprocessing
import os
import platform
import re
import subprocess
import sys
from importlib import resources
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DistributedConfig, distributed_louvain, native
from repro.core.community_table import OwnerTable
from repro.core.heuristics import get_heuristic
from repro.core.local_clustering import LocalClustering
from repro.core.sweep_kernel import (
    NumpyLevelKernels,
    internal_weight,
    neighbour_pairs,
)
from repro.graph.csr import build_symmetric_csr
from repro.partition import delegate_partition
from repro.runtime import run_spmd
from tests.core.agg_oracle import DictOwnerReference, canonical_pairs
from tests.core.test_sweep_equivalence import _csr_snapshots, _float_weighted

HEURISTICS = ["greedy", "minlabel", "enhanced"]


@pytest.fixture(scope="module")
def c_kernels():
    if not native.available():
        pytest.skip("no C compiler: only the numpy kernels run here")


def _kernel_path(request, kind):
    """A context in which the ``kind`` (``"c"`` or ``"numpy"``) kernels
    run; the C kind skips without a compiler."""
    if kind == "c":
        request.getfixturevalue("c_kernels")
        return contextlib.nullcontext()
    return mock.patch.object(native, "available", lambda: False)


def _bitwise_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _indptr(entry_rows, n_rows):
    counts = np.bincount(entry_rows, minlength=n_rows)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def _index_only(n_local):
    """Kernels over an empty CSR: enough for the label index."""
    empty = np.zeros(0, dtype=np.int64)
    return native.LevelKernels(np.zeros(1, dtype=np.int64), empty, np.zeros(0),
                               np.zeros(0), n_local)


@st.composite
def _label_keys(draw):
    """Label arrays: many repeats, one value, the full int64 range up to
    2**62, or keys that all hash to one slot modulo the table size."""
    n = draw(st.integers(0, 200))
    kind = draw(st.sampled_from(["repeats", "equal", "wide", "collide"]))
    if kind == "equal":
        return np.full(n, draw(st.integers(-(2**62), 2**62)), dtype=np.int64)
    if kind == "collide":
        cap = native._capacity(n)
        base = draw(st.integers(0, cap - 1))
        mult = draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n))
        return base + cap * np.array(mult, dtype=np.int64)
    top = 2**62 if kind == "wide" else 20
    values = st.integers(-top if kind == "wide" else 0, top)
    return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=np.int64)


@st.composite
def _owner_streams(draw):
    """One round's received stream: the rank-order concatenation of up to
    five peers' payloads, each label at most once per peer, with float
    values."""
    top = draw(st.sampled_from([30, 2**62]))
    labels = st.integers(0, top)
    parts = draw(st.lists(st.lists(labels, max_size=25, unique=True), max_size=5))
    labs = np.array([lab for part in parts for lab in part], dtype=np.int64)
    floats = st.floats(-1e3, 1e3, allow_nan=False)
    tot, cnt, s_in = (
        np.array(draw(st.lists(floats, min_size=labs.size, max_size=labs.size)))
        for _ in range(3)
    )
    return labs, tot, cnt, s_in


class TestLabelHash:
    @settings(max_examples=200, deadline=None)
    @given(_label_keys())
    def test_index_matches_unique(self, c_kernels, keys):
        labels, cidx = _index_only(keys.size).index(keys)
        ref_labels, ref_cidx = np.unique(keys, return_inverse=True)
        assert _bitwise_equal(labels, ref_labels)
        assert _bitwise_equal(cidx, ref_cidx.astype(np.int64))

    @settings(max_examples=200, deadline=None)
    @given(_label_keys(), st.lists(st.integers(-(2**62), 2**62), max_size=10))
    def test_table_numbers_in_first_arrival_order(self, c_kernels, keys, extra):
        table = native.LabelTable(keys)
        first = {}
        for key in keys.tolist():
            first.setdefault(key, len(first))
        assert table.labels.tolist() == list(first)
        assert table.ids.tolist() == [first[key] for key in keys.tolist()]
        assert table.find(keys).tolist() == table.ids.tolist()
        for key in extra:
            if key in first:
                assert table.find(np.array([key])).tolist() == [first[key]]
            else:
                with pytest.raises(KeyError) as exc:
                    table.find(np.array([*first][:1] + [key], dtype=np.int64))
                assert exc.value.args == (key,)

    @settings(max_examples=200, deadline=None)
    @given(_owner_streams())
    def test_owner_table_matches_dict_reference(self, stream):
        """The owner table, the numpy reference of the owner phase, against
        the dict accumulator (``test_phase_kernels.py`` pins the C owner
        phase against the table)."""
        ref = DictOwnerReference()
        ref.merge(*stream)
        t = OwnerTable(*stream)
        assert t.labels.tolist() == list(ref.own)  # insertion order
        want = np.array(list(ref.own.values()), dtype=np.float64).reshape(-1, 3)
        for col, name in enumerate(("tot", "cnt", "s_in")):
            assert _bitwise_equal(getattr(t, name), want[:, col].copy())
        tot, cnt = t.lookup(stream[0][::-1].copy())
        vals = ref.answer(stream[0][::-1])
        assert _bitwise_equal(tot, vals[:, 0].copy())
        assert _bitwise_equal(cnt, vals[:, 1].copy())
        assert t.partial_modularity(7.0, 1.3) == ref.partial_modularity(7.0, 1.3)
        absent = max(ref.own, default=0) + 1
        with pytest.raises(KeyError):
            t.lookup(np.array([absent], dtype=np.int64))


@st.composite
def _pairs(draw):
    """Pairs ``(a, b)`` in ``[0, na) x [0, nb)`` with float weights, often
    already in ``(a, b)`` order (the kernel's no-sort path)."""
    na = draw(st.integers(0, 12))
    nb = draw(st.integers(0, 12))
    n = draw(st.integers(0, 80)) if na and nb else 0
    a = np.array(draw(st.lists(st.integers(0, max(na - 1, 0)), min_size=n,
                               max_size=n)), dtype=np.int64)
    b = np.array(draw(st.lists(st.integers(0, max(nb - 1, 0)), min_size=n,
                               max_size=n)), dtype=np.int64)
    if draw(st.booleans()):
        order = np.lexsort((b, a))
        a, b = a[order], b[order]
    w = np.array(draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False),
                               min_size=n, max_size=n)), dtype=np.float64)
    return a, b, w, na, nb


class TestGraphBuildKernels:
    """The counting sort, the run sums and the label index against the
    numpy operations they replace."""

    @pytest.mark.parametrize("kind", ["c", "numpy"])
    @given(case=_pairs())
    @settings(max_examples=150, deadline=None)
    def test_pair_sort_and_run_sums(self, request, kind, case):
        a, b, w, na, nb = case
        with _kernel_path(request, kind):
            order, indptr = native.pair_sort(a, b, na, nb)
            ra, rb, rw = native.run_sums(order, a, b, w)
        assert np.array_equal(order, np.argsort(a * nb + b, kind="stable"))
        assert np.array_equal(indptr, _indptr(a, na))
        key = a * nb + b
        uniq, inv = np.unique(key, return_inverse=True)
        ref = np.zeros(uniq.size)
        np.add.at(ref, inv, w)
        assert np.array_equal(ra, uniq // max(nb, 1))
        assert np.array_equal(rb, uniq % max(nb, 1))
        assert _bitwise_equal(rw, ref)

    @pytest.mark.parametrize("kind", ["c", "numpy"])
    def test_pair_sort_rejects_out_of_range(self, request, kind):
        with _kernel_path(request, kind):
            for a, b in (([0, 3], [0, 0]), ([0, 0], [0, -1])):
                with pytest.raises(ValueError, match="pair 1 .* is outside"):
                    native.pair_sort(np.array(a), np.array(b), 3, 3)

    def test_numpy_pair_sort_past_the_key_range(self):
        """Where ``na * nb`` would overflow an int64 key, the numpy
        fallback lexsorts instead, with the same order."""
        big = 2**62  # 2 * big is past the int64 range
        a = np.array([1, 0, 1, 0], dtype=np.int64)
        b = np.array([big - 1, big - 1, 0, 5], dtype=np.int64)
        order, indptr = native._pair_sort_numpy(a, b, 2, big)
        assert order.tolist() == [3, 1, 2, 0]
        assert indptr.tolist() == [0, 2, 4]

    @given(_label_keys())
    @settings(max_examples=100, deadline=None)
    def test_unique_inverse(self, c_kernels, keys):
        labels, inverse = native.unique_inverse(keys)
        ref_labels, ref_inverse = np.unique(keys, return_inverse=True)
        assert _bitwise_equal(labels, ref_labels)
        assert np.array_equal(inverse, ref_inverse)


@st.composite
def _sweep_cases(draw):
    """A ``_csr_snapshots`` CSR with optional hub rows (dozens of entries
    each), a row count, per-row weighted degrees, and the
    ``(sigma_tot, size, is_local)`` lookup columns of its labels."""
    entry_rows, indices, weights, comm_of = draw(_csr_snapshots())
    n = comm_of.size
    low = int(entry_rows.max()) + 1 if entry_rows.size else 1
    n_rows = draw(st.integers(low, n))
    hubs = draw(st.lists(st.integers(0, n_rows - 1), max_size=2, unique=True))
    if hubs:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        extra_rows = np.repeat(np.array(hubs, dtype=np.int64), 60)
        entry_rows = np.concatenate([entry_rows, extra_rows])
        indices = np.concatenate([indices, rng.integers(0, n, extra_rows.size)])
        weights = np.concatenate([weights, rng.uniform(1e-3, 1e3, extra_rows.size)])
        order = np.argsort(entry_rows, kind="stable")
        entry_rows, indices, weights = entry_rows[order], indices[order], weights[order]

    k = np.unique(comm_of).size
    floats = st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False)
    sigma = np.array(draw(st.lists(floats, min_size=k, max_size=k)), dtype=np.float64)
    size = np.array(draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)),
                    dtype=np.int64)
    local = np.array(draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)),
                     dtype=np.int64)
    lookup = (sigma, size, local > 0)

    row_wdeg = np.array(draw(st.lists(
        st.floats(1e-3, 1e3, allow_nan=False), min_size=n_rows, max_size=n_rows)))
    params = dict(
        two_m=draw(st.floats(1.0, 1e5, allow_nan=False)),
        resolution=draw(st.sampled_from([1.0, 0.5, 2.0, 1.3])),
        theta=draw(st.sampled_from([1e-12, 0.0, 1e-3])),
    )
    seed = draw(st.integers(0, 2**32 - 1))
    return entry_rows, indices, weights, comm_of, n_rows, row_wdeg, lookup, params, seed


def _shuffled_within_rows(pairs, rng):
    pair_ptr, pair_id, pair_w = pairs
    rows = np.repeat(np.arange(pair_ptr.size - 1), np.diff(pair_ptr))
    order = np.lexsort((rng.random(rows.size), rows))
    return pair_ptr, pair_id[order], pair_w[order]


class TestKernelIdentity:
    @settings(max_examples=200, deadline=None)
    @given(_sweep_cases())
    def test_best_moves_matches_numpy(self, c_kernels, case):
        """The C gain pass against the numpy one on the numpy pairs, on the
        C scan's pairs, the numpy pairs and pairs shuffled within their
        rows; the numpy gain pass on the C pairs too.  The decision of a
        row does not depend on the order of its pairs."""
        (entry_rows, indices, weights, comm_of, n_rows, row_wdeg, lookup, params,
         seed) = case
        indptr = _indptr(entry_rows, n_rows)
        labels_all, cidx = np.unique(comm_of, return_inverse=True)
        csr = (indptr, indices, weights, row_wdeg, comm_of.size)
        c, ref_kernels = native.LevelKernels(*csr), NumpyLevelKernels(*csr)
        c_pairs = c.scan(cidx, labels_all.size)[2]
        np_pairs = neighbour_pairs(indptr, indices, weights, cidx, labels_all.size)
        shuffled = _shuffled_within_rows(c_pairs, np.random.default_rng(seed))
        for heuristic in HEURISTICS:
            kw = dict(heuristic_name=heuristic, **params)
            ref = ref_kernels.gains(np_pairs, cidx, comm_of, labels_all, lookup, **kw)
            # the chosen compact ids name the chosen labels
            assert np.array_equal(labels_all[ref[3]], ref[0])
            for kernels, pairs in [
                (c, c_pairs), (c, np_pairs), (c, shuffled), (ref_kernels, c_pairs)
            ]:
                got = kernels.gains(pairs, cidx, comm_of, labels_all, lookup, **kw)
                assert len(got) == len(ref) == 4
                for g, r in zip(got, ref):
                    assert _bitwise_equal(g, r), heuristic

    @settings(max_examples=200, deadline=None)
    @given(_sweep_cases())
    def test_internal_weight_matches_numpy(self, c_kernels, case):
        """The fused scan's internal weights against ``internal_weight``,
        and its pairs against ``aggregate_neighbor_communities``."""
        entry_rows, indices, weights, comm_of, n_rows, row_wdeg = case[:6]
        indptr = _indptr(entry_rows, n_rows)
        labels_all, cidx = np.unique(comm_of, return_inverse=True)
        k = labels_all.size
        kernels = native.LevelKernels(indptr, indices, weights, row_wdeg, comm_of.size)
        s_in, has_in, pairs = kernels.scan(cidx, k)
        ref_s_in, ref_has_in = internal_weight(indptr, indices, weights, cidx, k)
        assert _bitwise_equal(s_in, ref_s_in)
        assert _bitwise_equal(has_in, ref_has_in)
        ref_pairs = neighbour_pairs(indptr, indices, weights, cidx, k)
        for g, r in zip(canonical_pairs(pairs), ref_pairs):
            assert _bitwise_equal(g, r)


    def test_gain_pass_rejects_rows_longer_than_the_level(self, c_kernels):
        """The gain pass buffers one row's gains, sized by the level's
        longest row; pairs with a longer row are refused, not overrun."""
        one = np.ones(2)
        kernels = native.LevelKernels(
            np.array([0, 1, 2]), np.array([1, 0]), one, one, 2
        )
        cidx = np.array([0, 1])
        pairs = (np.array([0, 2, 2]), np.array([0, 1]), one)
        lookup = (one, np.ones(2, dtype=np.int64), np.ones(2, dtype=bool))
        with pytest.raises(ValueError, match="row 0"):
            kernels.gains(pairs, cidx, cidx, cidx, lookup, two_m=2.0,
                          resolution=1.0, theta=0.0, heuristic_name="greedy")

    @pytest.mark.parametrize("kind", ["c", "numpy"])
    def test_gain_pass_rejects_unknown_heuristic(self, request, karate, kind):
        """A heuristic without a vectorized rule is refused by both gain
        passes with the same error, instead of running some other rule."""
        if kind == "c":
            request.getfixturevalue("c_kernels")
        cls = native.LevelKernels if kind == "c" else NumpyLevelKernels
        n = karate.n_vertices
        kernels = cls(
            karate.indptr, karate.indices, karate.weights,
            karate.weighted_degrees, n,
        )
        comm = np.arange(n, dtype=np.int64)
        lookup = (karate.weighted_degrees, np.ones(n, dtype=np.int64),
                  np.ones(n, dtype=bool))
        expected = re.escape(
            "no vectorized rule for heuristic 'bogus'; "
            "supported: ['enhanced', 'greedy', 'minlabel']"
        )
        with pytest.raises(ValueError, match=expected):
            kernels.gains(kernels.scan(comm, n)[2], comm, comm, comm, lookup,
                          two_m=2.0 * karate.total_weight, resolution=1.0,
                          theta=1e-12, heuristic_name="bogus")


@st.composite
def _partitioned_graphs(draw):
    """A small float-weighted graph with self-loops, a rank count, and a
    random labelling (labels up to 2**40) of every local vertex."""
    n = draw(st.integers(2, 30))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.floats(1e-3, 1e3, allow_nan=False)),
        min_size=1, max_size=90,
    ))
    src, dst, w = (np.array(col) for col in zip(*edges))
    graph = build_symmetric_csr(n, src, dst, w)
    p = draw(st.integers(1, 3))
    pool = draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=5, unique=True))
    seed = draw(st.integers(0, 2**32 - 1))
    return graph, p, np.array(pool, dtype=np.int64), seed


class TestContributionsIdentity:
    @settings(max_examples=100, deadline=None)
    @given(_partitioned_graphs())
    def test_contributions_match_numpy(self, c_kernels, case):
        graph, p, pool, seed = case
        rng = np.random.default_rng(seed)
        # d_high=3 makes hub delegates, whose rows only one rank reports
        partition = delegate_partition(graph, p, d_high=3)
        for rank, lg in enumerate(partition.locals):
            comm = SimpleNamespace(rank=rank, size=p)
            lc = LocalClustering(comm, lg, get_heuristic("enhanced"))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(native, "available", lambda: False)
                ref_lc = LocalClustering(comm, lg, get_heuristic("enhanced"))
            assert isinstance(ref_lc._kernels, NumpyLevelKernels)
            lc.comm_of = pool[rng.integers(0, pool.size, lc.comm_of.size)]
            index = lc._kernels.index(lc.comm_of)
            for g, r in zip(index, ref_lc._kernels.index(lc.comm_of)):
                assert _bitwise_equal(g, r)
            # the send phase: the contributions and requests, per owner
            got, got_req = lc._kernels.send(lc.comm_of)
            ref, ref_req = ref_lc._kernels.send(lc.comm_of)
            for g_cols, r_cols in zip(got, ref):
                for g, r in zip(g_cols, r_cols):
                    assert _bitwise_equal(g, r)
            for g, r in zip(got_req, ref_req):
                assert _bitwise_equal(g, r)
            got_pairs = lc._kernels._sent[2:5]
            ref_pairs = ref_lc._kernels._sent[2]
            for g, r in zip(canonical_pairs(got_pairs), ref_pairs):
                assert _bitwise_equal(g, r)


class TestSnapshotLifetime:
    def test_snapshot_survives_later_syncs(self, web_graph):
        """Nothing a sync returns aliases kernel scratch: a snapshot held
        across two later syncs keeps every byte, and shares no memory
        with the snapshots built after it."""
        part = delegate_partition(_float_weighted(web_graph), 2, d_high=30)

        def worker(comm):
            lc = LocalClustering(
                comm, part.locals[comm.rank], get_heuristic("enhanced"),
                sweep_mode="vectorized",
            )
            lc.sync_aggregates()
            held = lc.snapshot
            frozen = [a.copy() for a in held]
            later = []
            for _ in range(2):
                _moved, hub_gain, hub_target = lc.find_best_pass()
                lc.broadcast_delegates(hub_gain, hub_target)
                lc.swap_ghosts()
                lc.sync_aggregates()
                later.append(lc.snapshot)
            unchanged = all(_bitwise_equal(a, b) for a, b in zip(held, frozen))
            shared = any(
                np.shares_memory(a, b) for snap in later for a in held for b in snap
            )
            moved = not np.array_equal(held.labels[held.cidx], lc.comm_of)
            return unchanged, shared, moved

        results = run_spmd(2, worker, timeout=60, backend="thread").results
        assert all(unchanged and not shared for unchanged, shared, _m in results)
        assert any(moved for _u, _s, moved in results)


def _outcome(graph, p, **kw):
    res = distributed_louvain(
        graph, p, DistributedConfig(d_high=40, backend="thread", **kw)
    )
    phases = [dict(r.bytes_sent_by_phase) for r in res.stats.ranks]
    return res.assignment, repr(res.modularity), res.modularity_per_level, phases


def _assert_same_run(graph, p, **kw):
    got = _outcome(graph, p, **kw)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native, "available", lambda: False)
        ref = _outcome(graph, p, **kw)
    assert np.array_equal(got[0], ref[0])
    assert got[1:] == ref[1:]


MODES = {
    "gs-delegate": dict(sweep_mode="gauss-seidel", partitioning="delegate"),
    "gs-1d": dict(sweep_mode="gauss-seidel", partitioning="1d"),
    "vec-full": dict(sweep_mode="vectorized", ghost_mode="full"),
    "vec-ghost_delta": dict(sweep_mode="vectorized", ghost_mode="delta"),
}


class TestEndToEndIdentity:
    """Whole runs agree exactly with the numpy kernels forced and with C.
    The sync's internal-weight pass runs under every sweep mode, the
    best-move scan under the vectorized one."""

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_mode_grid(self, c_kernels, ba_graph, p, mode):
        # the p x mode grid of test_agg_equivalence, on float weights
        _assert_same_run(_float_weighted(ba_graph), p, **MODES[mode])

    @pytest.mark.parametrize("p", [1, 2, 8])
    @pytest.mark.parametrize("name", ["karate", "lfr_small", "web_graph"])
    def test_graphs(self, c_kernels, request, name, p):
        graph = request.getfixturevalue(name)
        graph = getattr(graph, "graph", graph)
        _assert_same_run(graph, p, sweep_mode="vectorized")

    @pytest.mark.parametrize("heuristic", HEURISTICS)
    def test_heuristics(self, c_kernels, web_graph, heuristic):
        _assert_same_run(
            _float_weighted(web_graph), 4, sweep_mode="vectorized",
            heuristic=heuristic, max_inner=30,
        )


class TestBuildAndCache:
    def test_source_ships_and_names_the_library(self, c_kernels, tmp_path):
        source = resources.files("repro.core").joinpath("_kernels.c").read_text()
        for kernel in (
            "label_ids", "label_find", "label_index", "neighbour_scan",
            "pair_gains", "sync_send", "sync_owner", "sync_place", "sync_sweep",
        ):
            assert f" {kernel}(" in source
        lib = native._load(cache_dir=str(tmp_path))
        digest = hashlib.sha256(
            "\0".join([source, "cc", *native._FLAGS, platform.machine()]).encode()
        ).hexdigest()
        assert os.path.basename(lib._name) == f"kernels-{digest[:32]}.so"
        assert os.listdir(tmp_path) == [os.path.basename(lib._name)]

    def test_nothing_builds_at_import(self):
        code = (
            "import repro, repro.core.native as n, repro.core.local_clustering;"
            "print(n._tried)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert out.stdout.strip() == "False"

    def test_failing_compiler_falls_back_to_numpy(
        self, monkeypatch, tmp_path, caplog, web_graph
    ):
        ref = _outcome(_float_weighted(web_graph), 2, sweep_mode="vectorized")
        monkeypatch.setattr(native, "_COMPILER", "false")
        monkeypatch.setattr(native, "_lib", None)
        monkeypatch.setattr(native, "_tried", False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        with caplog.at_level(logging.WARNING, logger="repro.core.native"):
            assert not native.available()
            assert not native.available()  # one attempt, one log line
        logged = [r for r in caplog.records if r.name == "repro.core.native"]
        assert len(logged) == 1 and "unavailable" in logged[0].message
        assert not [f for f in os.listdir(tmp_path / "repro") if f.endswith(".so")]
        got = _outcome(_float_weighted(web_graph), 2, sweep_mode="vectorized")
        assert np.array_equal(got[0], ref[0])
        assert got[1:] == ref[1:]

    def test_world_writable_cache_refused(self, c_kernels, tmp_path):
        unsafe = tmp_path / "unsafe"
        unsafe.mkdir()
        unsafe.chmod(0o777)
        assert not native._usable_dir(str(unsafe))
        assert native._load(cache_dir=str(unsafe)) is not None  # built privately
        assert os.listdir(unsafe) == []

    def test_foreign_owned_cache_refused(self, c_kernels, tmp_path, monkeypatch):
        other = tmp_path / "other"
        other.mkdir(mode=0o700)
        assert native._usable_dir(str(other))
        stranger = os.getuid() + 1
        monkeypatch.setattr(native.os, "getuid", lambda: stranger)
        assert not native._usable_dir(str(other))
        assert native._load(cache_dir=str(other)) is not None
        assert os.listdir(other) == []

    def test_new_cache_dir_is_private(self, c_kernels, tmp_path):
        fresh = tmp_path / "a" / "repro"
        assert native._load(cache_dir=str(fresh)) is not None
        assert fresh.stat().st_mode & 0o777 == 0o700

    def test_concurrent_builds_share_one_library(self, c_kernels, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir(mode=0o700)
        reports = tmp_path / "reports"
        reports.mkdir()
        ctx = multiprocessing.get_context("spawn")
        # an Event, not a Barrier: a Barrier maps multiprocessing's shared
        # heap for the rest of the process
        go = ctx.Event()
        procs = [
            ctx.Process(target=_build_child, args=(str(cache), go, str(reports / str(i))))
            for i in range(4)
        ]
        for proc in procs:
            proc.start()
        go.set()
        for proc in procs:
            proc.join(timeout=120)
        exitcodes = [proc.exitcode for proc in procs]
        for proc in procs:
            if exitcodes != [0, 0, 0, 0]:
                proc.kill()
                proc.join(timeout=10)
            proc.close()
        assert exitcodes == [0, 0, 0, 0]
        names = {(reports / str(i)).read_text() for i in range(4)}
        # one library, loaded and working in every child, and no temporary
        # build files left behind
        assert len(names) == 1
        assert os.listdir(cache) == [os.path.basename(names.pop())]


def _build_child(cache_dir, go, report):
    go.wait()
    native._lib, native._tried = native._load(cache_dir=cache_dir), True
    # one row with one self entry of weight 1: s_in doubles it, no pair
    zero = np.zeros(1, dtype=np.int64)
    kernels = native.LevelKernels(
        np.array([0, 1], dtype=np.int64), zero, np.ones(1), np.ones(1), 1
    )
    s_in, has_in, pairs = kernels.scan(zero, 1)
    if s_in[0] != 2.0 or not has_in[0] or pairs[1].size:
        raise SystemExit(1)
    with open(report, "w") as fh:
        fh.write(native._lib._name)

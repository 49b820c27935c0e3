"""The native kernels (``repro.core.native``) against their numpy references.

The C best-move scan and internal-weight pass must reproduce the numpy
kernels bit for bit, so which path runs never changes an answer:

1. **Kernel identity** (Hypothesis) — ``best_moves`` against
   ``sweep_kernel._best_moves_numpy`` on random row-sorted CSRs with float
   weights, self-loops, empty rows, hub rows, labels up to 2**40 and
   lookup columns marking some labels unknown, for every heuristic; the
   internal-weight pass and ``LocalClustering._contributions`` on random
   float-weighted partitioned graphs;
2. **End-to-end identity** — labels, ``repr(Q)``, per-level Q and per-rank
   per-phase byte counts of whole runs with the numpy kernels forced and
   with C;
3. **Build and cache** — the shipped source names the cached library,
   nothing builds at import, a failing compiler falls back to numpy, an
   unsafe cache directory is refused, and concurrent builders into one
   cache directory all load the same library.

Tests that need the C kernels skip where no compiler is present; the CI
jobs assert separately that the kernels build there.
"""

import hashlib
import logging
import multiprocessing
import os
import platform
import subprocess
import sys
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DistributedConfig, distributed_louvain, native
from repro.core.heuristics import get_heuristic
from repro.core.local_clustering import LocalClustering
from repro.core.sweep_kernel import _best_moves_numpy, internal_weight
from repro.graph.csr import build_symmetric_csr
from repro.partition import delegate_partition
from tests.core.test_sweep_equivalence import _csr_snapshots, _float_weighted

HEURISTICS = ["greedy", "minlabel", "enhanced"]


@pytest.fixture(scope="module")
def c_kernels():
    if not native.available():
        pytest.skip("no C compiler: only the numpy kernels run here")


def _bitwise_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _indptr(entry_rows, n_rows):
    counts = np.bincount(entry_rows, minlength=n_rows)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


@st.composite
def _sweep_cases(draw):
    """A ``_csr_snapshots`` CSR with optional hub rows (dozens of entries
    each), a row count, per-row weighted degrees, and the
    ``(sigma_tot, known, size, is_local)`` lookup columns of its labels,
    some of them unknown (read with the scalar sweep's dict defaults)."""
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
    known = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)),
                     dtype=bool)
    floats = st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False)
    sigma = np.array(draw(st.lists(floats, min_size=k, max_size=k)), dtype=np.float64)
    size = np.array(draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)),
                    dtype=np.int64)
    local = np.array(draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)),
                     dtype=np.int64)
    lookup = (
        np.where(known, sigma, 0.0),
        known,
        np.where(known, size, 1),
        known & (local > 0),
    )

    row_wdeg = np.array(draw(st.lists(
        st.floats(1e-3, 1e3, allow_nan=False), min_size=n_rows, max_size=n_rows)))
    params = dict(
        two_m=draw(st.floats(1.0, 1e5, allow_nan=False)),
        resolution=draw(st.sampled_from([1.0, 0.5, 2.0, 1.3])),
        theta=draw(st.sampled_from([1e-12, 0.0, 1e-3])),
    )
    return entry_rows, indices, weights, comm_of, n_rows, row_wdeg, lookup, params


class TestKernelIdentity:
    @settings(max_examples=200, deadline=None)
    @given(_sweep_cases())
    def test_best_moves_matches_numpy(self, c_kernels, case):
        entry_rows, indices, weights, comm_of, n_rows, row_wdeg, lookup, params = case
        indptr = _indptr(entry_rows, n_rows)
        labels_all, cidx = np.unique(comm_of, return_inverse=True)
        args = (indptr, indices, weights, cidx, comm_of, row_wdeg, labels_all, lookup)
        for heuristic in HEURISTICS:
            kw = dict(n_rows=n_rows, heuristic_name=heuristic, **params)
            got = native.best_moves(*args, **kw)
            ref = _best_moves_numpy(*args, **kw)
            for g, r in zip(got, ref):
                assert _bitwise_equal(g, r), heuristic

    @settings(max_examples=200, deadline=None)
    @given(_csr_snapshots())
    def test_internal_weight_matches_numpy(self, c_kernels, snapshot):
        entry_rows, indices, weights, comm_of = snapshot
        n_rows = int(entry_rows.max()) + 1 if entry_rows.size else 1
        indptr = _indptr(entry_rows, n_rows)
        labels_all, cidx = np.unique(comm_of, return_inverse=True)
        k = labels_all.size
        got = internal_weight(indptr, indices, weights, cidx, k)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(native, "available", lambda: False)
            ref = internal_weight(indptr, indices, weights, cidx, k)
        assert _bitwise_equal(got[0], ref[0])
        assert np.array_equal(got[1], ref[1])


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
            lc.comm_of = pool[rng.integers(0, pool.size, lc.comm_of.size)]
            index = np.unique(lc.comm_of, return_inverse=True)
            got = lc._contributions(*index)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(native, "available", lambda: False)
                ref = lc._contributions(*index)
            for g, r in zip(got, ref):
                assert _bitwise_equal(g, r)


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
        assert "void best_moves(" in source and "void internal_weight(" in source
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
    lib = native._load(cache_dir=cache_dir)
    # one row with one self entry of weight 1: s_in doubles it
    s_in = np.zeros(1)
    has_in = np.zeros(1, dtype=np.uint8)
    zero = np.zeros(1, dtype=np.int64)
    lib.internal_weight(
        1, np.array([0, 1], dtype=np.int64), zero, np.ones(1), zero, s_in, has_in
    )
    if s_in[0] != 2.0 or has_in[0] != 1:
        raise SystemExit(1)
    with open(report, "w") as fh:
        fh.write(lib._name)

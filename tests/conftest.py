"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    barabasi_albert,
    copying_web_graph,
    karate_club,
    lfr_graph,
    planted_partition,
    ring_of_cliques,
    two_triangles_bridge,
)


def unpooled_children() -> tuple[list, list[int]]:
    """Live child processes that are not idle rank-pool workers, and idle
    pool workers that are not live children.

    Idle workers of the process backend's rank pool are owned state, not
    leaks: they wait for the next run.  Anything else alive (a failed
    run's workers above all) is a leak, and so is a pooled worker that
    died.  Both lists are empty when nothing leaked.
    """
    import multiprocessing

    from repro.runtime.process_backend import _POOL

    children = multiprocessing.active_children()
    idle = _POOL.idle_pids()
    live = {c.pid for c in children}
    return [c for c in children if c.pid not in idle], [
        pid for pid in idle if pid not in live
    ]


# parent-side fds of one idle rank-pool worker: the parent's end of its
# pipe, and the two pipes multiprocessing's spawn launcher keeps per process
FDS_PER_POOLED_WORKER = 3


def open_fds() -> int | None:
    """This process's open file descriptors, less those the rank pool's
    idle workers own; None where ``/proc`` is unavailable."""
    if not os.path.isdir("/proc/self/fd"):
        return None
    from repro.runtime.process_backend import _POOL

    pooled = len(_POOL.idle_pids())
    return len(os.listdir("/proc/self/fd")) - FDS_PER_POOLED_WORKER * pooled


@pytest.fixture(autouse=os.environ.get("REPRO_THREAD_LEAK_CHECK") == "1")
def assert_no_thread_leak():
    """Fail the test if it leaks runtime resources.

    Enabled by ``REPRO_THREAD_LEAK_CHECK=1`` (the CI fault-matrix and
    backend-matrix jobs).  A crashed or aborted world must still release
    everything it acquired, whatever the backend:

    * thread backend — every simulated-rank thread joined, even when
      faults were injected mid-collective;
    * process backend — the only live child processes are the rank pool's
      idle workers, each alive (a failed run's workers are all reaped,
      even after hard child deaths such as ``os._exit``), and every
      ``repro-shm-*`` shared-memory segment is unlinked;
    * on Linux, the open-fd count returns to its value from before the
      test, not counting the idle pool workers' fds: a run's peer links,
      selectors and pipes are all closed.
    """
    from multiprocessing import resource_tracker

    from repro.graph.shm import active_segments, leaked_segment_files

    # the tracker's pipe is process-wide state, opened lazily by the first
    # spawn or arena; open it before counting
    resource_tracker.ensure_running()
    before = threading.active_count()
    fds_before = open_fds()
    shm_before = set(leaked_segment_files())
    yield
    deadline = time.monotonic() + 5.0
    while (
        threading.active_count() > before
        or any(unpooled_children())
        or (fds_before is not None and open_fds() > fds_before)
    ) and time.monotonic() < deadline:
        time.sleep(0.05)
    leaked = [
        t.name
        for t in threading.enumerate()
        if t is not threading.main_thread() and t.is_alive()
    ]
    assert threading.active_count() <= before, f"leaked threads: {leaked}"
    stray, dead = unpooled_children()
    assert stray == [], f"leaked child processes: {stray}"
    assert dead == [], f"dead workers in the rank pool: {dead}"
    if fds_before is not None:
        assert open_fds() <= fds_before, (
            f"leaked file descriptors: {open_fds()} open, {fds_before} before"
        )
    assert active_segments() == [], f"leaked shm arenas: {active_segments()}"
    shm_after = set(leaked_segment_files()) - shm_before
    assert not shm_after, f"leaked /dev/shm segments: {sorted(shm_after)}"


@pytest.fixture(scope="session")
def karate() -> CSRGraph:
    return karate_club()


@pytest.fixture(scope="session")
def cliques() -> CSRGraph:
    return ring_of_cliques(6, 5)


@pytest.fixture(scope="session")
def triangles() -> CSRGraph:
    return two_triangles_bridge()


@pytest.fixture(scope="session")
def web_graph() -> CSRGraph:
    return copying_web_graph(800, 5, seed=11)


@pytest.fixture(scope="session")
def ba_graph() -> CSRGraph:
    return barabasi_albert(600, 3, seed=12)


@pytest.fixture(scope="session")
def lfr_small():
    """LFR benchmark with ground truth (500 vertices, crisp communities)."""
    return lfr_graph(500, mu=0.1, seed=13)


@pytest.fixture(scope="session")
def planted():
    graph, labels = planted_partition(6, 20, p_in=0.5, p_out=0.02, seed=14)
    return graph, labels


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(2026)


def random_graph(seed: int, n: int = 60, p_edge: float = 0.12) -> CSRGraph:
    """Small Erdos-Renyi helper for randomized structural tests."""
    r = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = r.random(iu.size) < p_edge
    return CSRGraph.from_edges(
        n, np.stack([iu[keep], ju[keep]], axis=1)
    )

"""Thread vs process backend — wall-clock comparison of the two SPMD
execution backends on the same distributed Louvain workload.

The thread backend interleaves ranks under the GIL; the process backend
(``runtime/process_backend.py``) runs each rank in its own spawned
interpreter, so the GIL-bound portions of a superstep (the per-vertex
gauss-seidel sweep above all) genuinely overlap across cores.  This file
measures that overlap on the 56k-edge Barabasi-Albert reference graph and
— equally importantly — re-asserts that both backends produce *identical*
labels and modularity while doing so.

Besides the pytest-benchmark cases, this file doubles as a script::

    PYTHONPATH=src python benchmarks/bench_backends.py --json BENCH_backends.json

which times both backends at p=4 and writes the comparison as
machine-readable JSON (see ``docs/BACKENDS.md``).  ``--check`` exits
non-zero if the backends disagree on the result, and — on machines with at
least two usable cores — if the process backend fails to beat the thread
backend on the GIL-bound sweep workload.  On a single-core runner the
speedup gate is skipped (process-backend overheads cannot amortize
without parallel hardware) but the equivalence gate still applies.
``--quick`` shrinks the workload for CI.

Script mode also writes a report-only ``collectives`` section (no gate):
the median microseconds per collective on each backend at p=2, for
``allreduce`` of a float, ``alltoall`` of an int64 array of m entries and
``alltoall`` of a sync contribution of m labels (the packed int64 buffer
of 4 m words that ``LevelKernels.send`` ships), at m = 0, 300 and 30,000,
and on the process backend the share of frames that went raw rather than
pickled (see ``docs/BACKENDS.md``).
"""

import argparse
import json
import os
import sys
import time

import numpy as np
import pytest

from repro.core import DistributedConfig, distributed_louvain
from repro.graph.generators import barabasi_albert
from repro.runtime import run_spmd

P = 4
# the collectives section: its rank count and payload sizes
COLLECTIVE_P = 2
COLLECTIVE_SIZES = (0, 300, 30000)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _config(backend: str, sweep_mode: str = "gauss-seidel") -> DistributedConfig:
    # gauss-seidel is the GIL-bound workload where process parallelism
    # pays; d_high=64 matches the kernel benchmarks on the same graph
    return DistributedConfig(
        backend=backend, sweep_mode=sweep_mode, d_high=64, timeout=600.0
    )


def _run(graph, backend: str, sweep_mode: str = "gauss-seidel"):
    return distributed_louvain(graph, P, _config(backend, sweep_mode))


@pytest.fixture(scope="module")
def scalefree_graph():
    return barabasi_albert(7000, 8, seed=5)


def test_backend_thread_louvain(benchmark, scalefree_graph):
    res = benchmark.pedantic(
        lambda: _run(scalefree_graph, "thread"), rounds=1, iterations=1
    )
    assert res.modularity > 0.15


def test_backend_process_louvain(benchmark, scalefree_graph):
    res = benchmark.pedantic(
        lambda: _run(scalefree_graph, "process"), rounds=1, iterations=1
    )
    assert res.modularity > 0.15


# ---------------------------------------------------------------------------
# Script mode: emit BENCH_backends.json (see module docstring)
# ---------------------------------------------------------------------------


def _best_of(fn, repeats):
    best = None
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _contribution(m: int) -> np.ndarray:
    """A sync contribution of ``m`` labels as ``LevelKernels.send`` ships
    it: one int64 buffer, the labels, then the float64 bits of the
    sigma_tot, size and sigma_in columns."""
    rng = np.random.default_rng(m)
    sums = rng.random(3 * m)
    return np.concatenate([rng.integers(0, 2**40, m), sums.view(np.int64)])


def _time_collectives(comm, sizes, reps):
    """Median microseconds per call of each collective case, on this rank,
    plus the frames this rank sent and how many went raw (process backend
    only).  A barrier before each call keeps the ranks in step, so a
    timing holds little wait for a late peer."""
    out = {}
    for m in sizes:
        arr = np.arange(m, dtype=np.int64)
        con = _contribution(m)
        cases = {
            "allreduce(float)": lambda: comm.allreduce(0.5),
            "alltoall(int64[m])": lambda: comm.alltoall([arr] * comm.size),
            "alltoall(contribution)": lambda: comm.alltoall([con] * comm.size),
        }
        n = reps if m < 30000 else max(reps // 10, 5)
        for name, call in cases.items():
            call()  # warm-up
            times = []
            for _ in range(n):
                comm.barrier()
                t0 = time.perf_counter()
                call()
                times.append(time.perf_counter() - t0)
            out[f"{name} m={m}"] = float(np.median(times)) * 1e6
    frames = getattr(comm, "frames", None)
    raw = getattr(comm, "raw_frames", None)
    return out, frames, raw


def run_collectives_suite(quick=False):
    """The ``collectives`` section of BENCH_backends.json: report-only
    per-collective costs of both backends (see the module docstring)."""
    reps = 200 if quick else 2000
    section = {"p": COLLECTIVE_P, "sizes": list(COLLECTIVE_SIZES), "median_us": {}}
    for backend in ("thread", "process"):
        res = run_spmd(
            COLLECTIVE_P, _time_collectives, COLLECTIVE_SIZES, reps,
            backend=backend, timeout=600.0,
        )
        section["median_us"][backend], frames, raw = res.results[0]
        if backend == "process":
            section["raw_frame_share"] = raw / frames if frames else None
    return section


def run_backend_suite(quick=False):
    """Time both backends on the same workload; returns the
    BENCH_backends.json document."""
    if quick:
        graph = barabasi_albert(1500, 6, seed=5)
        repeats = 1
    else:
        graph = barabasi_albert(7000, 8, seed=5)
        repeats = 2

    report = {
        "graph": {
            "generator": f"barabasi_albert({graph.n_vertices}, "
            f"{6 if quick else 8}, seed=5)",
            "n_vertices": int(graph.n_vertices),
            "n_edges": int(graph.n_edges),
        },
        "quick": quick,
        "p": P,
        "cores": _usable_cores(),
        "config": "sweep_mode=gauss-seidel, d_high=64",
        "backends": {},
    }

    results = {}
    for backend in ("thread", "process"):
        elapsed, res = _best_of(lambda b=backend: _run(graph, b), repeats)
        results[backend] = res
        report["backends"][backend] = {
            "wall_s": elapsed,
            "modularity": float(res.modularity),
            "n_levels": int(res.n_levels),
        }

    thread_s = report["backends"]["thread"]["wall_s"]
    process_s = report["backends"]["process"]["wall_s"]
    report["speedup"] = thread_s / process_s if process_s > 0 else float("inf")
    report["equivalent"] = bool(
        np.array_equal(
            results["thread"].assignment, results["process"].assignment
        )
        and abs(results["thread"].modularity - results["process"].modularity)
        < 1e-12
    )
    return report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--json", type=str, default="BENCH_backends.json",
        help="output path for the JSON report",
    )
    ap.add_argument(
        "--quick", action="store_true",
        help="smaller graph and fewer repeats (CI smoke)",
    )
    ap.add_argument(
        "--check", action="store_true",
        help="exit 1 if the backends disagree, or (given >= 2 cores) if the "
        "process backend shows no speedup at p=4",
    )
    args = ap.parse_args(argv)

    report = run_backend_suite(quick=args.quick)
    report["collectives"] = run_collectives_suite(quick=args.quick)
    with open(args.json, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    for backend, row in report["backends"].items():
        print(
            f"{backend:8s}  {row['wall_s']:8.2f}s  Q={row['modularity']:.6f}  "
            f"levels={row['n_levels']}"
        )
    coll = report["collectives"]
    for backend, row in coll["median_us"].items():
        print(f"{backend:8s}  " + ", ".join(f"{k} {v:.1f} us" for k, v in row.items()))
    print(f"raw frame share (process): {coll['raw_frame_share']:.3f}")
    print(
        f"speedup (thread/process): {report['speedup']:.2f}x on "
        f"{report['cores']} core(s); equivalent={report['equivalent']}"
    )
    print(f"wrote {args.json}")

    if args.check:
        if not report["equivalent"]:
            print("FAIL: thread and process backends disagree on the result")
            return 1
        if report["cores"] >= 2 and report["speedup"] <= 1.0:
            print(
                f"FAIL: process backend shows no speedup "
                f"({report['speedup']:.2f}x) on {report['cores']} cores"
            )
            return 1
        if report["cores"] < 2:
            print(
                "OK: backends equivalent (speedup gate skipped on a "
                "single-core runner)"
            )
        else:
            print("OK: backends equivalent and process backend is faster")
    return 0


if __name__ == "__main__":
    sys.exit(main())

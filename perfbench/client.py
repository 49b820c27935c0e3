"""Benchmark client: one fresh interpreter sending requests one at a time.

``run.py`` starts this script and times it up to its ``ready`` line (the
set-up time: interpreter start plus importing the program).  It then
reads the generated edge arrays, sends requests in a closed loop — build
the CSR graph, run ``distributed_louvain``, check the output — in whole
passes over the schedule for about ``--seconds``, and prints one JSON
document of per-request records as its last line.  With ``--trace 1`` every request is sent twice
in a row, untraced then with a ``TraceRecorder``, so tracing overhead is
measured on identical inputs.

Run through ``run.py``; ``--setup-only`` exits right after ``ready``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import numpy as np

from repro import DistributedConfig, distributed_louvain
from repro.core.modularity import modularity
from repro.graph.csr import build_symmetric_csr
from repro.quality.metrics import normalized_mutual_information
from repro.runtime import run_spmd
from repro.runtime.costmodel import TITAN_LIKE, simulate_time
from repro.runtime.tracing import TraceRecorder

from layers import per_layer
from workloads import N_RANKS, WORKLOADS

Q_TOLERANCE = 1e-9
SPAWN_SAMPLES = 5


def noop_program(comm):
    """SPMD program that does nothing: times rank start-up and teardown."""
    return None


def config(wl, resolution: float) -> DistributedConfig:
    # vectorized sweep and d_high are pinned (see README.md); every other
    # field stays at the library default so a changed default is measured
    return DistributedConfig(
        sweep_mode="vectorized", d_high=wl.d_high, backend=wl.backend,
        resolution=resolution,
    )


def check(wl, graph, result, resolution: float, truth, traced: bool) -> list[str]:
    """Independent output check; returns the problems found (none: pass)."""
    problems = []
    labels = result.assignment
    if labels.shape != (graph.n_vertices,) or labels.dtype.kind not in "iu":
        return [f"assignment has shape {labels.shape} dtype {labels.dtype}"]
    if labels.size and labels.min() < 0:
        problems.append("negative community label")
    q = modularity(graph, labels, resolution)
    if abs(q - result.modularity) > Q_TOLERANCE:
        problems.append(f"reported Q {result.modularity!r} != recomputed {q!r}")
    if q < wl.q_floor[resolution]:
        problems.append(f"Q {q:.4f} below floor {wl.q_floor[resolution]}")
    if truth is not None:
        nmi = normalized_mutual_information(labels, truth)
        if nmi < wl.nmi_floor:
            problems.append(f"NMI {nmi:.4f} below floor {wl.nmi_floor}")
    if bool(result.stats.spans) != traced:
        problems.append(f"traced={traced} but {len(result.stats.spans)} spans")
    return problems


def run_request(wl, inputs, index: int, traced: bool) -> dict:
    g = int(inputs["req_graph"][index])
    resolution = float(inputs["req_resolution"][index])
    n = int(inputs[f"g{g}_n"])
    src, dst = inputs[f"g{g}_src"], inputs[f"g{g}_dst"]
    truth = inputs.get(f"g{g}_truth")
    recorder = TraceRecorder() if traced else None
    rec = {"index": index, "key": [g, resolution], "traced": traced}
    marks = {"start": time.perf_counter()}
    try:
        graph = build_symmetric_csr(n, src, dst)
        marks["csr_done"] = time.perf_counter()
        result = distributed_louvain(graph, N_RANKS, config(wl, resolution), tracer=recorder)
        marks["returned"] = time.perf_counter()
        problems = check(wl, graph, result, resolution, truth, traced)
    except Exception as exc:  # a failed request is counted, never fatal
        rec.update(latency_s=time.perf_counter() - marks["start"], problems=[repr(exc)])
        return rec
    marks["end"] = time.perf_counter()
    rec.update(
        latency_s=marks["end"] - marks["start"],
        problems=problems,
        modularity=result.modularity,
        wire_bytes=float(result.stats.bytes_sent_per_rank().sum()),
        sim_time_s=simulate_time(result.stats, TITAN_LIKE).total,
        levels=result.n_levels,
        iterations=sum(rep.n_iterations for rep in result.levels),
    )
    if traced:
        q_start = modularity(graph, np.arange(n), resolution)
        rec["layers"] = per_layer(result, recorder.epoch, marks, q_start)
    return rec


def check_repeats(records: list[dict]) -> None:
    """A repeated input must give the identical answer (tracing included)."""
    first: dict[tuple, dict] = {}
    for rec in records:
        if "modularity" not in rec:
            continue
        key = tuple(rec["key"])
        ref = first.setdefault(key, rec)
        for field in ("modularity", "wire_bytes", "levels", "iterations"):
            if rec[field] != ref[field]:
                rec["problems"].append(
                    f"{field} {rec[field]!r} differs from request "
                    f"{ref['index']} on the same input ({ref[field]!r})"
                )


def closed_loop(wl, inputs, seconds: float, traced: bool) -> tuple[list[dict], float]:
    """Send requests back to back, in whole passes over the schedule.

    A further pass starts only if it is expected to end within
    ``seconds``; the first always runs, so every run measures the same
    requests whatever the machine's speed.
    """
    n_sched = len(inputs["req_graph"])
    records: list[dict] = []
    t0 = time.perf_counter()
    while True:
        for index in range(n_sched):
            records.append(run_request(wl, inputs, index, traced=False))
            if traced:
                records.append(run_request(wl, inputs, index, traced=True))
        elapsed = time.perf_counter() - t0
        n_passes = len(records) // (n_sched * (2 if traced else 1))
        if elapsed * (n_passes + 1) / n_passes > seconds:
            return records, elapsed


def spawn_times(wl) -> list[float]:
    out = []
    for _ in range(SPAWN_SAMPLES):
        t0 = time.perf_counter()
        run_spmd(N_RANKS, noop_program, backend=wl.backend)
        out.append(time.perf_counter() - t0)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--inputs")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    wl = WORKLOADS[args.workload]
    with np.load(args.inputs) as npz:
        inputs = {k: npz[k] for k in npz.files}
    traced = bool(args.trace)
    doc = {"spawn_s": spawn_times(wl) if traced else []}
    records, loop_s = closed_loop(wl, inputs, args.seconds, traced)
    check_repeats(records)
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    doc.update(
        records=records,
        loop_s=loop_s,
        schedule_len=len(inputs["req_graph"]),
        # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN reports the largest
        # single rank process, and N_RANKS of them run at once
        peak_rss_mb=(rss_self + (N_RANKS * rss_child if wl.backend == "process" else 0))
        / 1024.0,
    )
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end clustering benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload lfr-social --seed 1 --seconds 30 --trace 0

It generates the workload's inputs from ``--seed``, times the
client's set-up (``client.py`` up to its ``ready`` line) several times,
then lets one client send requests for ``--seconds`` and summarises them.
It prints one line per metric (name, value, unit) and, as its last line,
a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Metric definitions are in ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 9  # client start-ups per run, the measuring client's included
DEADLINE_S = 170.0  # the whole run must end within 180 s


def start_client(args: list[str], env: dict, deadline: float):
    """Start ``client.py`` and wait for its ``ready`` line.

    Returns the process and its set-up time: interpreter start plus
    importing the program, up to the moment it can send a request.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "client.py"), *args],
        stdout=subprocess.PIPE, text=True, env=env, start_new_session=True,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline)
        raise RuntimeError(f"client failed to start (printed {line!r})")
    return proc, setup


def setup_only(env: dict, deadline: float) -> float:
    proc, setup = start_client(["--setup-only"], env, deadline)
    finish(proc, deadline)
    return setup


def finish(proc, deadline: float) -> str:
    """Collect the client's output; kill its whole session past the deadline."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("client exceeded the run deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"client exited with code {proc.returncode}")
    return out


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """Highest latency with at least 10 samples beyond it, and its
    percentile.  With 20 or fewer samples that would be the median or
    lower, so the median is reported."""
    lat = sorted(latencies)
    if len(lat) <= 20:
        return statistics.median(lat), 50.0
    k = len(lat) - 11
    return lat[k], 100.0 * (k + 1) / len(lat)


def end_to_end(doc: dict, setups: list[float]) -> tuple[dict, list[str]]:
    recs = doc["records"]
    lat = [r["latency_s"] for r in recs]
    tail, pct = tail_latency(lat)
    # deterministic quantities come from the first pass over the schedule,
    # which every run completes, so they do not depend on machine speed
    first_pass = recs[: doc["schedule_len"]]
    done = [r for r in first_pass if "modularity" in r]
    metrics = {
        "request_s": statistics.median(lat),
        "requests_per_s": sum(not r["problems"] for r in recs) / doc["loop_s"],
        "request_p50_s": statistics.median(lat),
        "request_tail_s": tail,
        "setup_s": statistics.median(setups),
        "modularity": statistics.fmean(r["modularity"] for r in done) if done else 0.0,
        "wire_bytes": statistics.fmean(r["wire_bytes"] for r in done) if done else 0.0,
        "sim_time_s": statistics.fmean(r["sim_time_s"] for r in done) if done else 0.0,
        "peak_rss_mb": doc["peak_rss_mb"],
    }
    notes = [
        f"requests: {len(recs)} in {doc['loop_s']:.2f} s of loop time "
        f"(schedule of {doc['schedule_len']}, closed loop, one client)",
        f"request_tail_s is the p{pct:.1f} latency ({len(lat)} samples)",
        f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}",
    ]
    return metrics, notes


def per_layer(doc: dict) -> tuple[dict, list[str]]:
    recs = doc["records"]
    traced = [r for r in recs if r["traced"] and "layers" in r]
    plain = [r["latency_s"] for r in recs if not r["traced"]]
    if not traced:
        raise RuntimeError("no traced request completed")
    metrics = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    metrics["runtime.spawn_s"] = statistics.median(doc["spawn_s"])
    metrics["trace.overhead_frac"] = (
        statistics.median(r["latency_s"] for r in traced) / statistics.median(plain)
        - 1.0
    )
    notes = [
        f"requests: {len(plain)} untraced + {len(traced)} traced, paired on "
        "identical inputs; layer values are medians over traced requests",
    ]
    return metrics, notes


def main() -> int:
    ap = argparse.ArgumentParser(description="end-to-end clustering benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS, generate_inputs

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    import numpy as np

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        inputs = workdir / "inputs.npz"
        np.savez(inputs, **generate_inputs(args.workload, args.seed))
        # half the set-up samples before the measuring client and half after,
        # so the median spans the run rather than one moment of machine load
        setups = [setup_only(env, deadline) for _ in range(SETUP_SAMPLES // 2)]
        proc, setup = start_client(
            ["--workload", args.workload, "--inputs", str(inputs),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, deadline,
        )
        setups.append(setup)
        doc = json.loads(finish(proc, deadline).strip().splitlines()[-1])
        setups += [setup_only(env, deadline) for _ in range(SETUP_SAMPLES // 2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, notes = per_layer(doc)
    else:
        metrics, notes = end_to_end(doc, setups)
    # BENCHMARK.json is the one list of metric names and units
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    recs = doc["records"]
    failed = sum(bool(r["problems"]) for r in recs)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]:.6g} {unit}")
    print(f"  {'failed_frac':28s} {failed / len(recs):.6g} ratio")
    for r in recs:
        for problem in r["problems"]:
            print(f"  check failed on request {r['index']}: {problem}")
    print(f"  output check: {'PASS' if not failed else 'FAIL'} "
          f"({len(recs) - failed}/{len(recs)} requests)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(recs),
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

::

    python -m repro cluster graph.txt --ranks 8 --output communities.txt
    python -m repro generate lfr --n 2000 --mu 0.1 --output graph.txt
    python -m repro info graph.txt
    python -m repro partition-report graph.txt --ranks 4 8 16

``cluster`` runs the paper's distributed Louvain pipeline (or the
sequential baseline with ``--sequential``) on an edge-list file and writes
one ``vertex community`` pair per line.  ``generate`` produces synthetic
graphs from the paper's generators.  ``partition-report`` prints the
Fig. 6-style balance comparison between 1D and delegate partitioning.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed Louvain community detection (Zeng & Yu, CLUSTER 2018 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # ---- cluster --------------------------------------------------------
    p = sub.add_parser("cluster", help="detect communities in an edge-list graph")
    p.add_argument("graph", help="edge-list file (u v [w] per line)")
    p.add_argument("--ranks", type=int, default=4, help="simulated MPI ranks")
    p.add_argument(
        "--heuristic",
        choices=["greedy", "minlabel", "enhanced"],
        default="enhanced",
    )
    p.add_argument(
        "--partitioning", choices=["delegate", "1d"], default="delegate"
    )
    p.add_argument(
        "--d-high",
        type=int,
        default=None,
        help="hub degree threshold (default: 8 * ranks)",
    )
    p.add_argument("--resolution", type=float, default=1.0)
    p.add_argument(
        "--sweep-mode",
        choices=["gauss-seidel", "vectorized"],
        default="gauss-seidel",
        help="local sweep kernel: per-vertex Gauss-Seidel loop or bulk "
        "Jacobi NumPy kernel",
    )
    p.add_argument(
        "--checkpoint-path",
        type=Path,
        default=None,
        help="persist a recovery checkpoint (.npz) after completed levels",
    )
    p.add_argument(
        "--checkpoint-every-level",
        type=int,
        default=1,
        metavar="K",
        help="checkpoint cadence in levels (with --checkpoint-path)",
    )
    p.add_argument(
        "--recover",
        action="store_true",
        help="supervise the run: on a failed rank, resume from the last "
        "checkpoint (up to --max-retries times)",
    )
    p.add_argument(
        "--max-retries", type=int, default=3, help="retry budget for --recover"
    )
    p.add_argument(
        "--backend",
        choices=["thread", "process", "auto"],
        default="auto",
        help="SPMD execution backend: thread-per-rank (default), "
        "process-per-rank (true multi-core), or auto "
        "(REPRO_DEFAULT_BACKEND environment variable)",
    )
    p.add_argument("--sequential", action="store_true", help="run the sequential baseline instead")
    p.add_argument("--output", type=Path, default=None, help="write 'vertex community' pairs here")
    p.add_argument(
        "--ground-truth",
        type=Path,
        default=None,
        help="labels file (one community id per line) to score against",
    )
    p.add_argument(
        "--trace", type=Path, default=None,
        help="write the measured run statistics as JSON here",
    )
    p.add_argument(
        "--trace-out", type=Path, default=None,
        help="record span events and write a Chrome trace-event file "
        "(Perfetto-loadable; also carries the counter document, so it "
        "works with `repro trace summarize/diff`)",
    )
    p.add_argument(
        "--summary", action="store_true",
        help="print the full run report (phases, traffic, cost model)",
    )

    # ---- generate -------------------------------------------------------
    g = sub.add_parser("generate", help="generate a synthetic graph")
    g.add_argument(
        "model", choices=["lfr", "ba", "rmat", "web", "ring"],
        help="generator: lfr | ba | rmat | web | ring",
    )
    g.add_argument("--n", type=int, default=1000, help="vertices (lfr/ba/web)")
    g.add_argument("--mu", type=float, default=0.1, help="LFR mixing parameter")
    g.add_argument("--degree", type=int, default=8, help="ba/web attachment degree")
    g.add_argument("--scale", type=int, default=10, help="rmat scale (2^scale vertices)")
    g.add_argument("--edge-factor", type=int, default=8, help="rmat edges per vertex")
    g.add_argument("--cliques", type=int, default=8, help="ring: number of cliques")
    g.add_argument("--clique-size", type=int, default=5, help="ring: clique size")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--output", type=Path, required=True)
    g.add_argument(
        "--truth-output", type=Path, default=None,
        help="write LFR ground-truth labels here",
    )

    # ---- quality ----------------------------------------------------------
    q = sub.add_parser(
        "quality", help="compare two community label files with all metrics"
    )
    q.add_argument("detected", help="labels file: one community id per line")
    q.add_argument("reference", help="labels file to score against")

    # ---- info -----------------------------------------------------------
    i = sub.add_parser("info", help="print graph statistics")
    i.add_argument("graph")

    # ---- partition-report -------------------------------------------------
    r = sub.add_parser(
        "partition-report", help="compare 1D vs delegate partitioning balance"
    )
    r.add_argument("graph")
    r.add_argument("--ranks", type=int, nargs="+", default=[4, 8, 16])
    r.add_argument("--d-high", type=int, default=None)

    # ---- trace ------------------------------------------------------------
    t = sub.add_parser(
        "trace", help="inspect and compare saved run traces"
    )
    tsub = t.add_subparsers(dest="trace_command", required=True)
    ts = tsub.add_parser(
        "summarize", help="print the run report stored in a trace file"
    )
    ts.add_argument("file", help="trace JSON (from --trace or --trace-out)")
    td = tsub.add_parser(
        "diff",
        help="per-phase regression table between two traces "
        "(exit 1 on regression)",
    )
    td.add_argument("baseline", help="baseline trace JSON")
    td.add_argument("candidate", help="candidate trace JSON")
    td.add_argument(
        "--threshold", type=float, default=0.05,
        help="relative increase tolerated before a metric regresses",
    )
    td.add_argument(
        "--show-unchanged", action="store_true",
        help="also print rows whose value did not change",
    )
    return parser


def _cmd_cluster(args) -> int:
    from repro.core import DistributedConfig, distributed_louvain, sequential_louvain
    from repro.graph.io import read_edge_list

    graph = read_edge_list(args.graph)
    print(f"loaded {args.graph}: {graph}")

    if args.sequential:
        seq = sequential_louvain(graph, resolution=args.resolution)
        assignment, q = seq.assignment, seq.modularity
        print(f"sequential Louvain: Q = {q:.4f}, "
              f"{len(set(assignment.tolist()))} communities, "
              f"{seq.n_levels} levels")
    else:
        d_high = args.d_high if args.d_high is not None else 8 * args.ranks
        cfg = DistributedConfig(
            heuristic=args.heuristic,
            partitioning=args.partitioning,
            d_high=d_high,
            resolution=args.resolution,
            sweep_mode=args.sweep_mode,
            backend=args.backend,
            checkpoint_path=(
                str(args.checkpoint_path) if args.checkpoint_path else None
            ),
            checkpoint_every_level=(
                args.checkpoint_every_level if args.checkpoint_path else 0
            ),
        )
        recorder = None
        if args.trace_out is not None:
            from repro.runtime.tracing import TraceRecorder

            recorder = TraceRecorder()
        if args.recover:
            from repro.core import run_with_recovery

            outcome = run_with_recovery(
                graph, args.ranks, cfg,
                max_retries=args.max_retries, tracer=recorder,
            )
            res = outcome.result
            if outcome.recovered:
                print(
                    f"recovered after {outcome.attempts - 1} failure(s); "
                    f"resumed from levels {outcome.resumed_levels[1:]}"
                )
        else:
            res = distributed_louvain(graph, args.ranks, cfg, tracer=recorder)
        assignment, q = res.assignment, res.modularity
        print(
            f"distributed Louvain (p={args.ranks}, {args.heuristic}, "
            f"{args.partitioning}): Q = {q:.4f}, "
            f"{res.n_communities} communities, {res.n_levels} levels, "
            f"{res.partition.hub_global_ids.size} hub delegates"
        )
        if args.summary:
            print(res.summary())
        if args.trace is not None:
            from repro.runtime.trace import save_stats

            save_stats(res.stats, args.trace)
            print(f"wrote {args.trace}")
        if args.trace_out is not None:
            from repro.runtime.tracing import save_trace

            save_trace(
                args.trace_out,
                res.stats,
                recorder=recorder,
                meta={
                    "graph": str(args.graph),
                    "ranks": args.ranks,
                    "heuristic": args.heuristic,
                    "partitioning": args.partitioning,
                },
            )
            print(f"wrote {args.trace_out}")

    if args.ground_truth is not None:
        from repro.quality import score_all

        truth = np.loadtxt(args.ground_truth, dtype=np.int64)
        if truth.shape != assignment.shape:
            print("error: ground-truth length does not match graph", file=sys.stderr)
            return 2
        for name, value in score_all(assignment, truth).items():
            print(f"  {name:10s} {value:.4f}")

    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            for v, c in enumerate(assignment.tolist()):
                fh.write(f"{v} {c}\n")
        print(f"wrote {args.output}")
    return 0


def _cmd_generate(args) -> int:
    from repro.graph.io import write_edge_list

    truth = None
    if args.model == "lfr":
        from repro.graph.generators import lfr_graph

        res = lfr_graph(args.n, mu=args.mu, seed=args.seed)
        graph, truth = res.graph, res.ground_truth
    elif args.model == "ba":
        from repro.graph.generators import barabasi_albert

        graph = barabasi_albert(args.n, args.degree, seed=args.seed)
    elif args.model == "rmat":
        from repro.graph.generators import rmat_graph

        graph = rmat_graph(args.scale, args.edge_factor, seed=args.seed)
    elif args.model == "web":
        from repro.graph.generators import copying_web_graph

        graph = copying_web_graph(args.n, args.degree, seed=args.seed)
    else:  # ring
        from repro.graph.generators import ring_of_cliques

        graph = ring_of_cliques(args.cliques, args.clique_size)

    write_edge_list(graph, args.output)
    print(f"wrote {args.output}: {graph}")
    if truth is not None and args.truth_output is not None:
        np.savetxt(args.truth_output, truth, fmt="%d")
        print(f"wrote {args.truth_output}")
    return 0


def _cmd_quality(args) -> int:
    from repro.quality import score_all, variation_of_information

    detected = np.loadtxt(args.detected, dtype=np.int64)
    reference = np.loadtxt(args.reference, dtype=np.int64)
    if detected.ndim == 2:  # "vertex community" pairs from `cluster --output`
        detected = detected[np.argsort(detected[:, 0]), 1]
    if reference.ndim == 2:
        reference = reference[np.argsort(reference[:, 0]), 1]
    if detected.shape != reference.shape:
        print("error: label files have different lengths", file=sys.stderr)
        return 2
    for name, value in score_all(detected, reference).items():
        print(f"{name:10s} {value:.4f}")
    print(f"{'VI':10s} {variation_of_information(detected, reference):.4f}")
    return 0


def _cmd_info(args) -> int:
    from repro.graph.io import read_edge_list
    from repro.graph.ops import connected_components

    graph = read_edge_list(args.graph)
    deg = graph.degrees
    comps = connected_components(graph)
    print(f"file          : {args.graph}")
    print(f"vertices      : {graph.n_vertices}")
    print(f"edges         : {graph.n_edges}")
    print(f"total weight  : {graph.total_weight:.6g}")
    print(f"degree min/avg/max: {deg.min()} / {deg.mean():.2f} / {deg.max()}")
    print(f"components    : {int(comps.max()) + 1 if comps.size else 0}")
    return 0


def _cmd_partition_report(args) -> int:
    from repro.bench.report import format_table
    from repro.graph.io import read_edge_list
    from repro.partition import (
        delegate_partition,
        ghosts_per_rank,
        oned_partition,
        workload_imbalance,
    )

    graph = read_edge_list(args.graph)
    rows = []
    for p in args.ranks:
        d_high = args.d_high if args.d_high is not None else 8 * p
        one = oned_partition(graph, p)
        dg = delegate_partition(graph, p, d_high=d_high)
        rows.append(
            [
                p,
                round(workload_imbalance(one), 4),
                round(workload_imbalance(dg), 4),
                int(ghosts_per_rank(one).max()),
                int(ghosts_per_rank(dg).max()),
                dg.hub_global_ids.size,
            ]
        )
    print(
        format_table(
            ["p", "W 1D", "W delegate", "max ghosts 1D", "max ghosts dg", "#hubs"],
            rows,
            title=f"partitioning balance: {args.graph}",
        )
    )
    return 0


def _cmd_trace(args) -> int:
    from repro.runtime.trace import diff_stats, format_diff, load_stats, summarize

    if args.trace_command == "summarize":
        print(summarize(load_stats(args.file)))
        return 0
    # diff
    base = load_stats(args.baseline)
    cand = load_stats(args.candidate)
    diff = diff_stats(base, cand, threshold=args.threshold)
    print(format_diff(diff, show_unchanged=args.show_unchanged))
    return 1 if diff.has_regression else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    dispatch = {
        "cluster": _cmd_cluster,
        "generate": _cmd_generate,
        "quality": _cmd_quality,
        "info": _cmd_info,
        "partition-report": _cmd_partition_report,
        "trace": _cmd_trace,
    }
    try:
        return dispatch[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename or exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

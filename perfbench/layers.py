"""Per-layer metrics of one traced clustering request.

Everything here is read from the public surface of a traced
``distributed_louvain`` call: the spans its ``tracer=`` argument recorded,
the ``RunStats`` counters, the ``Partition`` and ``LevelReport``s on the
result, plus the benchmark's own timers around the calls it makes.

Phase spans map onto layers by the suffix of their name (``s1:find_best``
and ``s2:find_best`` are both the sweep).  A layer's *self* time is the
duration of its phase spans minus the collective spans recorded inside
them (a collective span carries its enclosing phase in ``args["phase"]``),
summed per rank; the reported value is the slowest rank's.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

PHASE_LAYER = {
    "find_best": "sweep",
    "other": "sync",  # sync_aggregates + the per-iteration move-count allreduce
    "bcast_delegates": "delegates",
    "swap_ghost": "ghosts",
    "merge": "merge",
}
LABEL_BYTES = 8  # full ghost exchange ships one int64 label per ghost


def _layer(phase: str) -> str | None:
    # only the stage-prefixed phases ("s1:", "s2:") are spans; collectives
    # issued outside any phase span carry the bare default tag "other"
    stage, _, name = phase.partition(":")
    return PHASE_LAYER.get(name) if stage else None


def _phase_sum(per_phase: dict[str, float], layer: str) -> float:
    return sum(v for ph, v in per_phase.items() if _layer(ph) == layer)


def improving_iterations(levels, q_start: float) -> tuple[int, int]:
    """(inner iterations that raised Q, inner iterations) over all levels.

    Level 0 starts from the singleton partition (``q_start``); every later
    level starts from the Q its predecessor kept, since coarsening
    preserves modularity.
    """
    improving = total = 0
    prev = q_start
    for report in levels:
        for q in report.q_history:
            improving += q > prev
            total += 1
            prev = q
        prev = report.q_final
    return improving, total


def per_layer(result, recorder_epoch: float, timers: dict[str, float],
              q_start: float) -> dict[str, float]:
    """Layer metrics of one traced request.

    ``timers`` holds the benchmark's perf_counter marks: ``start`` (edge
    arrays in hand), ``csr_done`` (``build_symmetric_csr`` returned, i.e.
    the ``distributed_louvain`` call), ``returned`` (``distributed_louvain``
    returned) and ``end`` (output check done).
    """
    stats = result.stats
    partition = result.partition
    # span timestamps are microseconds since the recorder's epoch; the
    # program starts its ranks once partitioning is done
    spmd_call_us = (timers["csr_done"] + result.partition_time - recorder_epoch) * 1e6
    return_us = (timers["returned"] - recorder_epoch) * 1e6

    span_s = defaultdict(lambda: defaultdict(float))  # rank -> layer -> s
    coll_s = defaultdict(lambda: defaultdict(float))  # rank -> layer -> s
    coll_total = defaultdict(float)
    first = {}
    last = {}
    stage = defaultdict(lambda: [0.0, 0.0])  # rank -> [stage 1, stage 2]
    churn = 0
    for s in stats.spans:
        r = s.rank
        first[r] = min(first.get(r, s.ts_us), s.ts_us)
        last[r] = max(last.get(r, 0.0), s.ts_us + s.dur_us)
        dur = s.dur_us * 1e-6
        if s.cat == "phase":
            layer = _layer(s.name)
            if layer is not None:
                span_s[r][layer] += dur
            if layer == "merge":
                stage[r][0 if s.name.startswith("s1:") else 1] += dur
        elif s.cat == "collective" or (s.cat == "p2p" and s.name == "recv"):
            coll_total[r] += dur
            layer = _layer(s.args.get("phase", ""))
            if layer is not None:
                coll_s[r][layer] += dur
        elif s.cat == "level":
            stage[r][0 if s.args.get("level") == 0 else 1] += dur
            churn += sum(c for c in s.args.get("ghost_churn") or [] if c)
    ranks = sorted(first)
    self_s = {
        r: {layer: span_s[r][layer] - coll_s[r][layer] for layer in PHASE_LAYER.values()}
        for r in ranks
    }
    busy = {r: (last[r] - first[r]) * 1e-6 for r in ranks}
    work = np.array([busy[r] - coll_total[r] for r in ranks])

    def bytes_sent(layer: str) -> float:
        return float(sum(_phase_sum(rs.bytes_sent_by_phase, layer) for rs in stats.ranks))

    ghost_labels = (
        sum(_phase_sum(rs.bytes_recv_by_phase, "ghosts") for rs in stats.ranks)
        / LABEL_BYTES
    )
    entries = np.array([lg.n_local_entries for lg in partition.locals], dtype=float)
    improving, iterations = improving_iterations(result.levels, q_start)
    csr_s = timers["csr_done"] - timers["start"]
    # per rank: its own start-up and teardown gaps plus everything its spans
    # account for; phase spans never overlap, so this never exceeds the call
    covered_ranks = max(
        (first[r] - spmd_call_us + return_us - last[r]) * 1e-6
        + sum(self_s[r].values()) + coll_total[r]
        for r in ranks
    )

    out = {
        "graph.csr_build_s": csr_s,
        "partition.s": result.partition_time,
        "partition.hub_frac": partition.hub_global_ids.size / result.assignment.size,
        "partition.edge_imbalance": float(entries.max() / entries.mean()),
        "partition.ghosts": float(sum(lg.n_ghosts for lg in partition.locals)),
        "sweep.iterations": float(iterations),
        "sweep.moves": float(sum(sum(rep.moves_history) for rep in result.levels)),
        "sweep.improving_frac": improving / max(iterations, 1),
        "sync.bytes": bytes_sent("sync"),
        "sync.collectives": float(max(
            sum(n for ph, n in rs.collectives_by_phase.items() if _layer(ph) == "sync")
            for rs in stats.ranks
        )),
        "delegates.bytes": bytes_sent("delegates"),
        "ghosts.bytes": bytes_sent("ghosts"),
        "ghosts.changed_frac": churn / ghost_labels if ghost_labels else 0.0,
        "merge.bytes": bytes_sent("merge"),
        "stage1.s": max(stage[r][0] for r in ranks),
        "stage2.s": max(stage[r][1] for r in ranks),
        "levels": float(result.n_levels),
        "runtime.collective_s": max(coll_total[r] for r in ranks),
        "runtime.wait_frac": max(coll_total[r] / busy[r] for r in ranks if busy[r] > 0),
        "runtime.collectives": float(max(rs.total_collectives for rs in stats.ranks)),
        "runtime.messages": float(sum(rs.total_messages_sent for rs in stats.ranks)),
        "runtime.supersteps": float(stats.n_supersteps()),
        "runtime.rank_imbalance": float(work.max() / work.mean()),
        "runtime.startup_s": (max(first.values()) - spmd_call_us) * 1e-6,
        "runtime.teardown_s": (return_us - max(last.values())) * 1e-6,
        "trace.coverage": (
            csr_s + result.partition_time + covered_ranks
        ) / (timers["end"] - timers["start"]),
    }
    for layer in PHASE_LAYER.values():
        out[f"{layer}.self_s"] = max(self_s[r][layer] for r in ranks)
    return out

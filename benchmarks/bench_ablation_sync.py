"""Ablation — delta ghost exchange (paper future work).

The paper's conclusion proposes investigating "possible ways to further
reduce the communication cost".  Ghost exchange carries much of the wire
volume, so this ablation measures **delta ghosts** (``ghost_mode="delta"``)
— ship only the owned-vertex labels that changed since the previous ghost
exchange — against the baseline full exchange.

Finding at our scales: ghost deltas are a clear win (~25% of total
traffic, bit-identical results — per-vertex labels quiesce quickly).  A
delta protocol for the community aggregates was measured too and removed:
it was slower in wall time on every input tried (EXPERIMENTS.md).
"""

from repro.bench import format_table, load_dataset
from repro.core import DistributedConfig, distributed_louvain


def test_ablation_sync_protocol(benchmark, show):
    def sweep():
        rows = []
        for name in ("livejournal", "uk-2007"):
            graph = load_dataset(name).graph
            for ghost_mode in ("full", "delta"):
                res = distributed_louvain(
                    graph,
                    16,
                    DistributedConfig(d_high=128, ghost_mode=ghost_mode),
                )
                rows.append(
                    {
                        "dataset": name,
                        "ghost": ghost_mode,
                        "Q": res.modularity,
                        "MB": res.stats.bytes_sent_per_rank().sum() / 1e6,
                    }
                )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    show(
        format_table(
            ["dataset", "ghosts", "Q", "total traffic (MB)"],
            [
                [r["dataset"], r["ghost"], round(r["Q"], 4), round(r["MB"], 2)]
                for r in rows
            ],
            title="Ablation: delta ghost exchange (p=16)",
        )
    )

    by_key = {(r["dataset"], r["ghost"]): r for r in rows}
    for name in ("livejournal", "uk-2007"):
        base = by_key[(name, "full")]
        ghost = by_key[(name, "delta")]
        # ghost deltas: exact semantics, clear traffic win
        assert abs(ghost["Q"] - base["Q"]) < 1e-9
        assert ghost["MB"] < 0.9 * base["MB"]

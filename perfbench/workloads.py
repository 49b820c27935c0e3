"""Workload definitions and input generation for the clustering benchmark.

A workload is a list of *requests* (graph index, resolution) over a small
set of generated graphs, plus the pinned ``DistributedConfig`` fields and
the quality floors the output check applies.  Inputs are produced here, in
``run.py``'s process, from ``--seed`` alone; the program under test only
ever sees the resulting edge arrays (see ``client.py``).

Why these three workloads, and what each exercises, is written up in
``README.md`` next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_RANKS = 2  # one rank per core of a 2-core machine: ranks never outnumber cores


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str  # DistributedConfig.backend
    d_high: int  # pinned: the default d_high = p makes every vertex a hub at p=2
    q_floor: dict[float, float]  # resolution -> minimum acceptable Q
    nmi_floor: float | None  # against the planted partition; None: no truth


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lfr-social", "thread", 64, {1.0: 0.60}, nmi_floor=0.85),
        Workload("rmat-scalefree", "process", 64, {1.0: 0.09}, nmi_floor=None),
        Workload(
            "request-stream", "process", 32, {0.5: 0.65, 1.0: 0.60, 2.0: 0.50},
            nmi_floor=0.70,
        ),
    )
}

# One graph's clustering work varies with a coefficient of variation of
# about 20%: inner-iteration counts swing with every input detail, even a
# relabelling of the vertices (55 to 78 iterations over six relabellings
# of one 20,000-vertex LFR graph), and R-MAT's first level converges in
# either about 8 or about 30 iterations.  A run affords only a handful of
# big graphs, so each workload draws its graphs from a fixed pool of
# generator seeds: --seed picks which graphs of the pool a run clusters,
# and the order of its requests.  Runs then share most of their graphs
# and stay within the bounds.
POOLS = {"lfr-social": (5, 4), "rmat-scalefree": (6, 5)}  # (pool size, per run)
# Of the first twelve LFR generator seeds, the five whose graphs take the
# most similar work (simulated BSP time within 8% of their mean; the twelve
# span 0.106 to 0.182 s), so the graph a run leaves out moves it little.
LFR_SOCIAL_SEEDS = (4, 6, 8, 9, 11)
# The stream clusters one graph of each size per run, picked from two
# candidates (pool graphs 2i and 2i + 1 have size STREAM_SIZES[i]), so the
# size mix never changes.
STREAM_SIZES = np.linspace(300, 1500, 10).round()
STREAM_RESOLUTIONS = (0.5, 1.0, 2.0)


def _edge_arrays(graph) -> tuple[np.ndarray, np.ndarray]:
    """One orientation of every undirected edge of a generated CSR graph."""
    src = np.repeat(np.arange(graph.n_vertices, dtype=np.int64), np.diff(graph.indptr))
    keep = src <= graph.indices
    return src[keep], graph.indices[keep].astype(np.int64)


def _pool_graph(name: str, index: int):
    """Graph ``index`` of the workload's pool and its planted communities."""
    from repro.graph.generators.lfr import lfr_graph
    from repro.graph.generators.rmat import rmat_graph

    if name == "rmat-scalefree":
        return rmat_graph(15, 8, seed=index), None
    if name == "lfr-social":
        res = lfr_graph(40000, mu=0.3, min_degree=6, seed=LFR_SOCIAL_SEEDS[index])
    else:
        res = lfr_graph(int(STREAM_SIZES[index // 2]), mu=0.2, seed=index)
    return res.graph, res.ground_truth


def generate_inputs(name: str, seed: int) -> dict[str, np.ndarray]:
    """All inputs of one run of workload ``name``, as flat arrays.

    Keys: ``g{i}_n`` (vertex count), ``g{i}_src``/``g{i}_dst`` (edges),
    optional ``g{i}_truth`` (planted communities), and the request
    schedule ``req_graph``/``req_resolution``.  The same seed gives the same
    arrays; the seed reaches the generators and nothing else.
    """
    rng = np.random.default_rng(seed)
    if name == "request-stream":
        slots = np.arange(STREAM_SIZES.size)
        picks = 2 * slots + rng.integers(2, size=slots.size)
        resolutions = STREAM_RESOLUTIONS
    elif name in POOLS:
        pool, per_run = POOLS[name]
        picks = rng.choice(pool, size=per_run, replace=False)
        resolutions = (1.0,)  # the paper's
    else:
        raise ValueError(f"unknown workload {name!r}")
    pairs = [(g, r) for g in range(len(picks)) for r in resolutions]
    order = rng.permutation(len(pairs))

    out: dict[str, np.ndarray] = {
        "req_graph": np.array([pairs[i][0] for i in order], dtype=np.int64),
        "req_resolution": np.array([pairs[i][1] for i in order], dtype=np.float64),
    }
    for i, p in enumerate(picks):
        graph, truth = _pool_graph(name, int(p))
        src, dst = _edge_arrays(graph)
        out[f"g{i}_n"] = np.array(graph.n_vertices, dtype=np.int64)
        out[f"g{i}_src"] = src
        out[f"g{i}_dst"] = dst
        if truth is not None:
            out[f"g{i}_truth"] = np.asarray(truth, dtype=np.int64)
    return out

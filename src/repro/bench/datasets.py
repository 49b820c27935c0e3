"""Dataset registry: synthetic analogues for the paper's Table I.

The paper evaluates nine real-world graphs (up to UK-2007's 3.78 B edges)
plus LFR / R-MAT / BA synthetics.  The real crawls and social networks
cannot be downloaded in this offline environment and would not fit a
single-core Python simulation anyway, so each gets a *structure-matched
synthetic analogue* at ~100-10,000x reduced scale (DESIGN.md section 2):

* social / co-purchase / co-authorship graphs (Amazon, DBLP, YouTube,
  LiveJournal, Friendster) -> LFR benchmarks whose mixing parameter ``mu``
  encodes how crisp the paper-reported community structure is, and which
  carry ground truth (needed for Table II);
* web crawls (ND-Web, UK-2005, WebBase-2001, UK-2007) -> copying-model web
  graphs with heavy-tailed in-degree hubs;
* the paper's own synthetics (LFR, R-MAT, BA) -> the same generators at
  reduced scale.

The relative size *ordering* of Table I is preserved so that every
"bigger datasets scale better / 1D fails on UK-2005+" claim can be checked
against the same ladder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.generators import barabasi_albert, lfr_graph, rmat_graph
from repro.graph.generators.webgraph import add_portals

__all__ = ["DatasetSpec", "LoadedDataset", "DATASETS", "load_dataset"]


@dataclass(frozen=True)
class DatasetSpec:
    """One Table I row: the paper's dataset and our analogue recipe."""

    name: str
    description: str
    paper_vertices: str  # as printed in Table I
    paper_edges: str
    generator: Callable[[], "LoadedDataset"]
    family: str  # "social" | "web" | "synthetic"


@dataclass(frozen=True)
class LoadedDataset:
    """A generated analogue, with ground truth where the model plants one."""

    name: str
    graph: CSRGraph
    ground_truth: np.ndarray | None = None


def _lfr(
    name: str,
    n: int,
    mu: float,
    seed: int,
    min_degree: int = 4,
    max_degree: int | None = None,
) -> LoadedDataset:
    res = lfr_graph(n, mu=mu, seed=seed, min_degree=min_degree, max_degree=max_degree)
    return LoadedDataset(name=name, graph=res.graph, ground_truth=res.ground_truth)


def _crawl(
    name: str,
    n: int,
    mu: float,
    seed: int,
    n_portals: int,
    portal_fraction: float,
    min_degree: int = 5,
) -> LoadedDataset:
    """Large-crawl analogue: crisp host-community structure (LFR) overlaid
    with portal super-hubs.  Real crawls have both — Louvain finds Q ~ 0.9+
    on UK-2005/2007 while their hub pages link constant fractions of the
    crawl — and each property drives a different claim of the paper
    (coarsening/stage-1 dominance vs partitioning balance).  No ground
    truth is exposed: the portal overlay perturbs the planted partition.
    """
    res = lfr_graph(n, mu=mu, seed=seed, min_degree=min_degree)
    graph = add_portals(res.graph, n_portals, portal_fraction, seed=seed + 7)
    return LoadedDataset(name=name, graph=graph, ground_truth=None)


_REGISTRY: dict[str, DatasetSpec] = {}


def _register(spec: DatasetSpec) -> None:
    _REGISTRY[spec.name] = spec


_register(
    DatasetSpec(
        name="amazon",
        description="Frequently co-purchased products from Amazon",
        paper_vertices="0.34M",
        paper_edges="0.93M",
        generator=lambda: _lfr("amazon", 4000, mu=0.25, seed=101),
        family="social",
    )
)
_register(
    DatasetSpec(
        name="dblp",
        description="A co-authorship network from DBLP",
        paper_vertices="0.32M",
        paper_edges="1.05M",
        generator=lambda: _lfr("dblp", 4000, mu=0.2, seed=102),
        family="social",
    )
)
_register(
    DatasetSpec(
        name="nd-web",
        description="A web network of University of Notre Dame",
        paper_vertices="0.33M",
        paper_edges="1.50M",
        # the real ND-Web is a crawl with BOTH heavy-tailed hub degrees and
        # very crisp host communities (Louvain finds Q ~ 0.93 on it); a pure
        # copying model lacks the community structure Table II measures, so
        # this analogue is an LFR benchmark with a web-like degree tail
        generator=lambda: _lfr(
            "nd-web", 4000, mu=0.08, seed=103, min_degree=3, max_degree=400
        ),
        family="web",
    )
)
_register(
    DatasetSpec(
        name="youtube",
        description="YouTube friendship network",
        paper_vertices="1.13M",
        paper_edges="2.99M",
        generator=lambda: _lfr("youtube", 6000, mu=0.45, seed=104, min_degree=3),
        family="social",
    )
)
_register(
    DatasetSpec(
        name="livejournal",
        description="A virtual-community social site",
        paper_vertices="3.99M",
        paper_edges="34.68M",
        generator=lambda: _lfr("livejournal", 8000, mu=0.3, seed=105, min_degree=6),
        family="social",
    )
)
_register(
    DatasetSpec(
        name="uk-2005",
        description="Web crawl of the .uk domain in 2005",
        paper_vertices="39.36M",
        paper_edges="936.36M",
        generator=lambda: _crawl(
            "uk-2005", 8000, mu=0.12, seed=106, n_portals=2,
            portal_fraction=0.5,
        ),
        family="web",
    )
)
_register(
    DatasetSpec(
        name="webbase-2001",
        description="A crawl graph by WebBase",
        paper_vertices="118.14M",
        paper_edges="1.01B",
        generator=lambda: _crawl(
            "webbase-2001", 10000, mu=0.15, seed=107, n_portals=2,
            portal_fraction=0.4,
        ),
        family="web",
    )
)
_register(
    DatasetSpec(
        name="friendster",
        description="An on-line gaming network",
        paper_vertices="65.61M",
        paper_edges="1.81B",
        generator=lambda: _lfr("friendster", 10000, mu=0.4, seed=108, min_degree=7),
        family="social",
    )
)
_register(
    DatasetSpec(
        name="uk-2007",
        description="Web crawl of the .uk domain in 2007",
        paper_vertices="105.9M",
        paper_edges="3.78B",
        generator=lambda: _crawl(
            "uk-2007", 12000, mu=0.1, seed=109, n_portals=3,
            portal_fraction=0.6, min_degree=6,
        ),
        family="web",
    )
)
_register(
    DatasetSpec(
        name="lfr",
        description="A synthetic graph with built-in community structure",
        paper_vertices="0.1M",
        paper_edges="1.6M",
        generator=lambda: _lfr("lfr", 2000, mu=0.1, seed=110),
        family="synthetic",
    )
)
_register(
    DatasetSpec(
        name="rmat",
        description="A R-MAT graph satisfying Graph 500 specification",
        paper_vertices="2^SCALE",
        paper_edges="2^(SCALE+4)",
        generator=lambda: LoadedDataset("rmat", rmat_graph(12, 8, seed=111)),
        family="synthetic",
    )
)
_register(
    DatasetSpec(
        name="ba",
        description="A synthetic scale-free graph (Barabasi-Albert model)",
        paper_vertices="2^SCALE",
        paper_edges="2^(SCALE+4)",
        generator=lambda: LoadedDataset("ba", barabasi_albert(4096, 8, seed=112)),
        family="synthetic",
    )
)

DATASETS: dict[str, DatasetSpec] = dict(_REGISTRY)

_CACHE: dict[str, LoadedDataset] = {}


def load_dataset(name: str) -> LoadedDataset:
    """Generate (or fetch from the per-process cache) a dataset analogue."""
    if name not in DATASETS:
        raise KeyError(f"unknown dataset {name!r}; choose from {sorted(DATASETS)}")
    if name not in _CACHE:
        _CACHE[name] = DATASETS[name].generator()
    return _CACHE[name]

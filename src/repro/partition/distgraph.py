"""Per-rank distributed graph views.

The vertex *layout* of a :class:`LocalGraph` is fixed and relied on by every
algorithm in :mod:`repro.core`:

``[0, n_owned)``
    low-degree vertices owned by this rank (sorted by global id);
``[n_owned, n_owned + n_hubs)``
    delegate rows for the global hub set (identical order on all ranks);
``[n_owned + n_hubs, n_local)``
    ghost vertices — row neighbours that are neither owned nor hubs.

CSR rows exist only for the first two groups.  Under delegate partitioning a
hub's row holds just the slice of its edges assigned to this rank; under 1D
partitioning ``n_hubs == 0`` and every owned row is complete.

Ownership is round-robin by global id (``owner_of``), matching the paper's
"round-robin 1D partitioning".  Hubs are *resident* everywhere but for
aggregation purposes are owned by ``hub_id % p`` like any other vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["LocalGraph", "Partition", "owner_of", "build_local_graphs"]


def owner_of(global_ids: np.ndarray | int, size: int) -> np.ndarray | int:
    """Round-robin owner rank of each global vertex id."""
    return global_ids % size


@dataclass
class LocalGraph:
    """One rank's view of a partitioned graph.  See module docstring."""

    rank: int
    size: int
    n_global: int
    m_global: float  # total weight of the global graph
    global_ids: np.ndarray  # local id -> global id
    n_owned: int
    n_hubs: int
    indptr: np.ndarray  # CSR over the first n_owned + n_hubs local vertices
    indices: np.ndarray  # local ids (may point at ghosts)
    weights: np.ndarray
    row_weighted_degree: np.ndarray  # GLOBAL weighted degree of each row vertex
    hub_global_ids: np.ndarray  # identical on all ranks (sorted)
    send_to: dict[int, np.ndarray] = field(default_factory=dict)
    recv_from: dict[int, np.ndarray] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def n_local(self) -> int:
        return int(self.global_ids.size)

    @property
    def n_rows(self) -> int:
        return self.n_owned + self.n_hubs

    @property
    def n_ghosts(self) -> int:
        return self.n_local - self.n_rows

    @property
    def n_local_entries(self) -> int:
        """Directed CSR entries stored on this rank (the paper's
        "local edge number", Fig. 6(a))."""
        return int(self.indices.size)

    def validate(self) -> None:
        """Internal consistency checks (tests call this on every partition)."""
        if self.indptr.size != self.n_rows + 1:
            raise ValueError("indptr must cover exactly the row vertices")
        if self.indices.size != self.weights.size:
            raise ValueError("indices/weights length mismatch")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.n_local
        ):
            raise ValueError("local neighbour index out of range")
        if self.row_weighted_degree.size != self.n_rows:
            raise ValueError("row_weighted_degree must cover row vertices")
        owned = self.global_ids[: self.n_owned]
        if owned.size and not np.array_equal(
            owner_of(owned, self.size), np.full(owned.size, self.rank)
        ):
            raise ValueError("owned vertex with foreign owner")
        hubs = self.global_ids[self.n_owned : self.n_rows]
        if not np.array_equal(hubs, self.hub_global_ids):
            raise ValueError("hub rows must match the global hub list")


@dataclass
class Partition:
    """A complete partition: one :class:`LocalGraph` per rank."""

    kind: str  # "1d" or "delegate"
    size: int
    d_high: int | None
    hub_global_ids: np.ndarray
    locals: list[LocalGraph]

    def validate(self) -> None:
        for lg in self.locals:
            lg.validate()


def build_local_graphs(
    graph: CSRGraph,
    size: int,
    entry_rank: np.ndarray,
    hub_global_ids: np.ndarray,
    kind: str,
    d_high: int | None,
) -> Partition:
    """Assemble per-rank :class:`LocalGraph` views from an assignment of
    every directed CSR entry to a rank.

    Parameters
    ----------
    graph:
        The global graph.
    entry_rank:
        ``int64`` array parallel to ``graph.indices``: destination rank of
        each directed entry.
    hub_global_ids:
        Sorted global ids of delegated hubs (empty for 1D).
    """
    # imported here, not at module top: repro.core's __init__ eagerly pulls
    # in the distributed driver, which imports this module back
    from repro.core import native
    from repro.core.pack import pack_bounds, pack_by_owner

    n = graph.n_vertices
    rows_global = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    cols_global = graph.indices
    wts = graph.weights
    wdeg = graph.weighted_degrees
    is_hub = np.zeros(n, dtype=bool)
    is_hub[hub_global_ids] = True

    owners = owner_of(np.arange(n, dtype=np.int64), size)

    locals_: list[LocalGraph] = []
    # ghost subscription lists: for each owner rank, which peers need which
    # of its vertices (built globally here; the runtime rebuilds these
    # distributedly after each merge)
    send_to_all: list[dict[int, np.ndarray]] = [dict() for _ in range(size)]
    recv_from_all: list[dict[int, np.ndarray]] = [dict() for _ in range(size)]

    # one stable bucketing pass over all E entries instead of a boolean
    # scan per rank; within a bucket the original entry order is preserved
    entry_order, entry_bounds = pack_bounds(entry_rank, size)

    for r in range(size):
        sel = entry_order[entry_bounds[r] : entry_bounds[r + 1]]
        e_src = rows_global[sel]
        e_dst = cols_global[sel]
        e_w = wts[sel]

        # round-robin owned ids are just arange(r, n, size), hubs excluded
        cand = np.arange(r, n, size, dtype=np.int64)
        owned = cand[~is_hub[cand]]
        # ghosts: entry endpoints that are neither owned here nor hubs, in
        # ascending order (a mask over the vertices: np.unique would hash)
        seen = np.zeros(n, dtype=bool)
        seen[e_src] = True
        seen[e_dst] = True
        endpoints = np.flatnonzero(seen)
        ghost_mask = (owners[endpoints] != r) & ~is_hub[endpoints]
        ghosts = endpoints[ghost_mask]
        # a source endpoint can only be owned-low or hub by construction of
        # both partitioners; ghosts therefore only ever appear as targets
        global_ids = np.concatenate([owned, hub_global_ids, ghosts])
        local_of = np.full(n, -1, dtype=np.int64)
        local_of[global_ids] = np.arange(global_ids.size)

        n_rows = owned.size + hub_global_ids.size
        # bucket entries by local source row
        src_local = local_of[e_src]
        if src_local.size and src_local.max() >= n_rows:
            raise AssertionError("entry sourced at a ghost vertex")
        # stable sort in (source row, target) order
        dst_local = local_of[e_dst]
        order, indptr = native.pair_sort(
            src_local, dst_local, n_rows, global_ids.size
        )

        lg = LocalGraph(
            rank=r,
            size=size,
            n_global=n,
            m_global=graph.total_weight,
            global_ids=global_ids,
            n_owned=int(owned.size),
            n_hubs=int(hub_global_ids.size),
            indptr=indptr,
            indices=dst_local[order],
            weights=e_w[order],
            row_weighted_degree=wdeg[global_ids[:n_rows]].copy(),
            hub_global_ids=hub_global_ids,
        )
        locals_.append(lg)

        # record ghost subscriptions (ghosts is sorted, the stable pack
        # keeps each per-peer bucket sorted too)
        if ghosts.size:
            buckets = pack_by_owner(owner_of(ghosts, size), size, ghosts)
            for peer, ids in enumerate(buckets):
                if ids.size:
                    recv_from_all[r][peer] = ids
                    send_to_all[peer][r] = ids

    for r in range(size):
        locals_[r].recv_from = recv_from_all[r]
        locals_[r].send_to = send_to_all[r]

    return Partition(
        kind=kind,
        size=size,
        d_high=d_high,
        hub_global_ids=hub_global_ids,
        locals=locals_,
    )

"""Distributed graph merging (paper Algorithm 3).

Collapses the converged communities of one clustering level into the
vertices of a coarser graph, redistributed by 1D round-robin partitioning
(Alg. 1 line 8): community labels are densified to ``0 .. k-1`` and coarse
vertex ``c`` lands on rank ``c % p``.

Weight bookkeeping: every rank aggregates its directed entries into
``D[c][d] = sum of w over entries (u -> v), u in c, v in d`` with self-loop
entries doubled.  Summed across ranks this gives ``D[c][d] = w(c, d)`` for
``c != d`` and ``D[c][c] = sigma_in(c)``; the coarse CSR stores off-diagonal
entries at full weight and the self-loop at ``D[c][c] / 2``, preserving both
``m`` and all community degrees (see :mod:`repro.core.coarsen` for the
sequential equivalent).

The local assembly step (building the coarse CSR from the received pair
aggregates) remaps labels with ``searchsorted`` arithmetic and scatters
degrees with ``np.add.at``, which applies its updates sequentially in
stream order; ``tests/core/agg_oracle.py`` holds the dict-based reference
it is pinned against, field by field.
"""

from __future__ import annotations

import numpy as np

from repro.core.pack import pack_by_owner
from repro.partition.distgraph import LocalGraph
from repro.runtime.comm import SimComm

__all__ = ["merge_level"]

_EMPTY_I64 = np.zeros(0, dtype=np.int64)
_EMPTY_F64 = np.zeros(0, dtype=np.float64)

# largest n_global for which cu * n_global + cv cannot overflow int64
# (floor(sqrt(2**63 - 1))); beyond it the keyed path would silently wrap
# and merge unrelated pairs, so aggregation switches to the lexsort path
_PAIR_KEY_LIMIT = 3_037_000_499


def _aggregate_pairs_sorted(
    cu: np.ndarray, cv: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair aggregation without forming ``cu * n + cv`` keys.

    Lexsort is stable, so each ``(cu, cv)`` group keeps its entries in
    original order; the unbuffered ``np.add.at`` scatter then accumulates
    each group with the same strictly sequential additions as the keyed
    path (``reduceat`` would not do: it sums long segments pairwise).
    """
    order = np.lexsort((cv, cu))
    cu_s, cv_s, w_s = cu[order], cv[order], w[order]
    boundary = np.empty(cu_s.size, dtype=bool)
    boundary[0] = True
    boundary[1:] = (cu_s[1:] != cu_s[:-1]) | (cv_s[1:] != cv_s[:-1])
    starts = np.flatnonzero(boundary)
    w_sum = np.zeros(starts.size)
    np.add.at(w_sum, np.cumsum(boundary) - 1, w_s)
    return cu_s[starts], cv_s[starts], w_sum


def _aggregate_pairs(
    cu: np.ndarray, cv: np.ndarray, w: np.ndarray, n_global: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum ``w`` over identical ``(cu, cv)`` pairs."""
    if cu.size == 0:
        return _EMPTY_I64, _EMPTY_I64, _EMPTY_F64
    if n_global > _PAIR_KEY_LIMIT:
        return _aggregate_pairs_sorted(cu, cv, w)
    key = cu * np.int64(n_global) + cv
    uniq, inv = np.unique(key, return_inverse=True)
    w_sum = np.zeros(uniq.size)
    np.add.at(w_sum, inv, w)
    return (uniq // n_global).astype(np.int64), (uniq % n_global).astype(np.int64), w_sum


def _assemble(
    rank: int, size: int, k: int, ncu: np.ndarray, ncv: np.ndarray, nw: np.ndarray
):
    """Assemble one rank's coarse rows from its aggregated pair stream.

    Returns ``(owned, wdeg, ghosts, global_ids, src_local, dst_local,
    stored_w)``; the caller finishes the CSR (sort + indptr).  This rank's
    owned coarse ids are ``rank, rank + size, ...``, so an owned id's
    position is ``(c - rank) // size`` and ghost positions are
    ``searchsorted`` into the sorted ghost array.  Degree accumulation via
    ``np.add.at`` runs in stream order.
    """
    owned = np.arange(rank, k, size, dtype=np.int64)
    src_local = (ncu - rank) // size
    wdeg = np.zeros(owned.size)
    np.add.at(wdeg, src_local, nw)

    ghost_mask = (ncv % size) != rank
    ghosts = np.unique(ncv[ghost_mask])
    global_ids = np.concatenate([owned, ghosts])

    stored_w = np.where(ncu == ncv, nw / 2.0, nw)
    dst_local = np.where(
        ghost_mask,
        owned.size + np.searchsorted(ghosts, ncv),
        (ncv - rank) // size,
    )
    return owned, wdeg, ghosts, global_ids, src_local, dst_local, stored_w


def merge_level(
    comm: SimComm,
    lg: LocalGraph,
    comm_of: np.ndarray,
) -> tuple[LocalGraph, np.ndarray, np.ndarray]:
    """Merge communities into a new 1D-partitioned :class:`LocalGraph`.

    Parameters
    ----------
    comm_of:
        Final community label per local vertex from the converged level.

    Returns
    -------
    (new_local_graph, fine_ids, coarse_ids)
        ``fine_ids[i]`` is a global vertex id of the *current* level that
        this rank is authoritative for (owned low vertices and designated
        hubs) and ``coarse_ids[i]`` its dense community id in the new graph.
    """
    size = comm.size
    n_global = lg.n_global

    # --- 1. directed aggregation, keyed to the community owner ----------
    entry_rows = np.repeat(np.arange(lg.n_rows, dtype=np.int64), np.diff(lg.indptr))
    cu = comm_of[entry_rows]
    cv = comm_of[lg.indices]
    w = np.where(lg.indices == entry_rows, 2.0 * lg.weights, lg.weights)
    acu, acv, aw = _aggregate_pairs(cu, cv, w, n_global)

    # marker entries keep edgeless communities alive
    mem_local = np.arange(lg.n_owned, dtype=np.int64)
    if lg.n_hubs:
        designated = lg.hub_global_ids % size == comm.rank
        mem_local = np.concatenate(
            [mem_local, lg.n_owned + np.flatnonzero(designated)]
        )
    mem_labels = np.unique(comm_of[mem_local]) if mem_local.size else _EMPTY_I64
    acu = np.concatenate([acu, mem_labels])
    acv = np.concatenate([acv, mem_labels])
    aw = np.concatenate([aw, np.zeros(mem_labels.size)])

    payloads = pack_by_owner(acu % size, size, acu, acv, aw)
    received = comm.alltoall(payloads)

    rcu = np.concatenate([p[0] for p in received])
    rcv = np.concatenate([p[1] for p in received])
    rw = np.concatenate([p[2] for p in received])
    rcu, rcv, rw = _aggregate_pairs(rcu, rcv, rw, n_global)

    # --- 2. dense global relabelling ------------------------------------
    my_labels = np.unique(rcu)
    all_labels = comm.allgather(my_labels)
    global_labels = np.sort(np.concatenate(all_labels))  # disjoint by owner
    k = int(global_labels.size)
    dense_cu = np.searchsorted(global_labels, rcu)
    dense_cv = np.searchsorted(global_labels, rcv)

    # authoritative level mapping for composition later
    fine_ids = lg.global_ids[mem_local]
    coarse_ids = np.searchsorted(global_labels, comm_of[mem_local])

    # --- 3. redistribute rows to the coarse graph's 1D owners -----------
    payloads = pack_by_owner(dense_cu % size, size, dense_cu, dense_cv, rw)
    received = comm.alltoall(payloads)
    ncu = np.concatenate([p[0] for p in received])
    ncv = np.concatenate([p[1] for p in received])
    nw = np.concatenate([p[2] for p in received])
    ncu, ncv, nw = _aggregate_pairs(ncu, ncv, nw, max(k, 1))

    # --- 4. assemble the new LocalGraph ---------------------------------
    # degrees come for free: wdeg(c) = sum_d D[c][d] (diagonal pre-doubled)
    keep = nw > 0.0
    ncu, ncv, nw = ncu[keep], ncv[keep], nw[keep]
    owned, wdeg, ghosts, global_ids, src_local, dst_local, stored_w = _assemble(
        comm.rank, size, k, ncu, ncv, nw
    )

    order = np.lexsort((dst_local, src_local))
    src_local, dst_local, stored_w = (
        src_local[order],
        dst_local[order],
        stored_w[order],
    )
    counts = np.zeros(owned.size, dtype=np.int64)
    np.add.at(counts, src_local, 1)
    indptr = np.zeros(owned.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])

    new_lg = LocalGraph(
        rank=comm.rank,
        size=size,
        n_global=k,
        m_global=lg.m_global,
        global_ids=global_ids,
        n_owned=int(owned.size),
        n_hubs=0,
        indptr=indptr,
        indices=dst_local,
        weights=stored_w,
        row_weighted_degree=wdeg,
        hub_global_ids=_EMPTY_I64,
    )

    # --- 5. rebuild ghost-exchange maps distributedly -------------------
    requests = pack_by_owner(ghosts % size, size, ghosts)
    incoming = comm.alltoall(requests)
    new_lg.recv_from = {
        r: requests[r] for r in range(size) if requests[r].size
    }
    new_lg.send_to = {
        r: ids for r, ids in enumerate(incoming) if ids.size
    }
    return new_lg, fine_ids, coarse_ids

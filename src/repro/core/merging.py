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

Every sort here is linear, by the C kernels of :mod:`repro.core.native`:
pair aggregation compacts the labels with the label hash and merges equal
pairs with a counting sort and a run sum, the dense relabel looks labels
up in a :class:`~repro.core.native.LabelTable`, and the coarse CSR comes
from the same counting sort.  Every float sum runs sequentially in stream
order from 0.0, the order of the numpy references in
``tests/core/numpy_kernels.py``.  The local assembly step (building the
coarse rows from the received pair aggregates) has a dict-based reference
in ``tests/core/agg_oracle.py`` that it is pinned against, field by
field.
"""

from __future__ import annotations

import numpy as np

from repro.core import native
from repro.core.pack import pack_by_owner
from repro.partition.distgraph import LocalGraph
from repro.runtime.comm import SimComm

__all__ = ["merge_level"]

_EMPTY_I64 = np.zeros(0, dtype=np.int64)
_EMPTY_F64 = np.zeros(0, dtype=np.float64)


def _aggregate_ids(
    a: np.ndarray, b: np.ndarray, w: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum ``w`` over identical pairs of compact ids ``(a, b)``, in input
    order from 0.0, and return the distinct pairs as ``labels`` (ascending,
    so id order is label order) in ascending order.  The sort counts, with
    scratch sized by the number of labels."""
    if a.size == 0:
        return _EMPTY_I64, _EMPTY_I64, _EMPTY_F64
    k = labels.size
    order, _ = native.pair_sort(a, b, k, k)
    ra, rb, rw = native.run_sums(order, a, b, w)
    return labels[ra], labels[rb], rw


def _aggregate_pairs(
    cu: np.ndarray, cv: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum ``w`` over identical label pairs ``(cu, cv)``, in input order
    from 0.0; the pairs come out in ascending ``(cu, cv)`` order.  The
    labels are compacted first (:func:`repro.core.native.unique_inverse`),
    so nothing is sized or keyed by the label range."""
    if cu.size == 0:
        return _EMPTY_I64, _EMPTY_I64, _EMPTY_F64
    n = cu.size
    labels, ids = native.unique_inverse(np.concatenate([cu, cv]))
    return _aggregate_ids(ids[:n], ids[n:], w, labels)


def _aggregate_owned_rows(
    rank: int, size: int, k: int, ncu: np.ndarray, ncv: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_aggregate_pairs` of merge step 3, whose ``ncu`` are this
    rank's own dense ids ``rank, rank + size, ...`` below ``k``: their
    positions ``(ncu - rank) // size`` are already compact and in label
    order, so only ``ncv`` is hashed.  The pairs come out in the same
    ascending ``(ncu, ncv)`` order, with the same sums."""
    if ncu.size == 0:
        return _EMPTY_I64, _EMPTY_I64, _EMPTY_F64
    rows = (ncu - rank) // size
    labels, cols = native.unique_inverse(ncv)
    order, _ = native.pair_sort(rows, cols, len(range(rank, k, size)), labels.size)
    ra, rb, rw = native.run_sums(order, rows, cols, w)
    return ra * size + rank, labels[rb], rw


def _assemble(
    rank: int, size: int, k: int, ncu: np.ndarray, ncv: np.ndarray, nw: np.ndarray
):
    """Assemble one rank's coarse rows from its aggregated pair stream.

    Returns ``(owned, wdeg, ghosts, global_ids, src_local, dst_local,
    stored_w)``; the caller finishes the CSR (sort + indptr).  This rank's
    owned coarse ids are ``rank, rank + size, ...``, so an owned id's
    position is ``(c - rank) // size``; ghost positions come from the
    sorted ghost index (:func:`repro.core.native.unique_inverse`).  Degrees
    are summed in stream order by ``np.bincount``.
    """
    owned = np.arange(rank, k, size, dtype=np.int64)
    src_local = (ncu - rank) // size
    wdeg = np.bincount(src_local, weights=nw, minlength=owned.size)

    ghost_mask = (ncv % size) != rank
    ghosts, ghost_pos = native.unique_inverse(ncv[ghost_mask])
    global_ids = np.concatenate([owned, ghosts])

    stored_w = np.where(ncu == ncv, nw / 2.0, nw)
    dst_local = (ncv - rank) // size
    dst_local[ghost_mask] = owned.size + ghost_pos
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

    # --- 1. directed aggregation, keyed to the community owner ----------
    # on the compact index of the rank's labels
    labels, cidx = native.unique_inverse(comm_of)
    entry_rows = np.repeat(np.arange(lg.n_rows, dtype=np.int64), np.diff(lg.indptr))
    w = np.where(lg.indices == entry_rows, 2.0 * lg.weights, lg.weights)
    acu, acv, aw = _aggregate_ids(cidx[entry_rows], cidx[lg.indices], w, labels)

    # marker entries keep edgeless communities alive
    mem_local = np.arange(lg.n_owned, dtype=np.int64)
    if lg.n_hubs:
        designated = lg.hub_global_ids % size == comm.rank
        mem_local = np.concatenate(
            [mem_local, lg.n_owned + np.flatnonzero(designated)]
        )
    present = np.zeros(labels.size, dtype=bool)
    present[cidx[mem_local]] = True
    mem_labels = labels[present]
    acu = np.concatenate([acu, mem_labels])
    acv = np.concatenate([acv, mem_labels])
    aw = np.concatenate([aw, np.zeros(mem_labels.size)])

    payloads = pack_by_owner(acu % size, size, acu, acv, aw)
    received = comm.alltoall(payloads)

    rcu = np.concatenate([p[0] for p in received])
    rcv = np.concatenate([p[1] for p in received])
    rw = np.concatenate([p[2] for p in received])
    rcu, rcv, rw = _aggregate_pairs(rcu, rcv, rw)

    # --- 2. dense global relabelling ------------------------------------
    # the aggregated pairs come in (cu, cv) order: one label per run of rcu
    run_start = np.ones(rcu.size, dtype=bool)
    run_start[1:] = rcu[1:] != rcu[:-1]
    all_labels = comm.allgather(rcu[run_start])
    global_labels = np.sort(np.concatenate(all_labels))  # disjoint by owner
    k = int(global_labels.size)
    # a label's dense id is its position in the sorted labels, which the C
    # label hash finds in O(1): first-arrival ids of distinct sorted keys
    dense_of = native.LabelTable(global_labels).find
    dense_cu = dense_of(rcu)
    dense_cv = dense_of(rcv)

    # authoritative level mapping for composition later
    fine_ids = lg.global_ids[mem_local]
    coarse_ids = dense_of(comm_of[mem_local])

    # --- 3. redistribute rows to the coarse graph's 1D owners -----------
    payloads = pack_by_owner(dense_cu % size, size, dense_cu, dense_cv, rw)
    received = comm.alltoall(payloads)
    ncu = np.concatenate([p[0] for p in received])
    ncv = np.concatenate([p[1] for p in received])
    nw = np.concatenate([p[2] for p in received])
    ncu, ncv, nw = _aggregate_owned_rows(comm.rank, size, k, ncu, ncv, nw)

    # --- 4. assemble the new LocalGraph ---------------------------------
    # degrees come for free: wdeg(c) = sum_d D[c][d] (diagonal pre-doubled)
    keep = nw > 0.0
    ncu, ncv, nw = ncu[keep], ncv[keep], nw[keep]
    owned, wdeg, ghosts, global_ids, src_local, dst_local, stored_w = _assemble(
        comm.rank, size, k, ncu, ncv, nw
    )

    # rows in (source, target) order
    order, indptr = native.pair_sort(
        src_local, dst_local, owned.size, global_ids.size
    )
    dst_local, stored_w = dst_local[order], stored_w[order]

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

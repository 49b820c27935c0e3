"""Dict-based references for the aggregate sync and the merge assembly.

The product has one aggregate-sync path
(:meth:`repro.core.local_clustering.LocalClustering.sync_aggregates`, on
the C owner phase of :class:`repro.core.native.LevelKernels`) and one
merge assembly (``repro.core.merging._assemble``).  This module keeps the
seed's dict-accumulator versions of both as a test oracle:

* :class:`DictOwnerReference` — the owner-side accumulator;
* :class:`ScalarSyncClustering` — a ``LocalClustering`` whose
  ``sync_aggregates`` is the dict path;
* :func:`assemble_scalar` — the dict-based merge assembly;
* :func:`canonical_pairs` — a snapshot's neighbour-community pairs in an
  order that does not depend on which scan built them;
* :func:`scalar_reference` — a context manager that swaps both into
  :mod:`repro.core.distributed` and :mod:`repro.core.merging` for one run
  and counts the calls.

The swap patches module attributes of the calling interpreter, so it only
reaches ranks that run there: pass ``backend="thread"`` to every run under
it (process-backend ranks import fresh modules and never see it), and
assert that the yielded counts are non-zero.
"""

import threading
from contextlib import contextmanager
from unittest import mock

import numpy as np

from repro.core import distributed, merging
from repro.core.community_table import CommunitySnapshot
from repro.core.local_clustering import LocalClustering
from tests.core.numpy_kernels import neighbour_pairs

__all__ = [
    "DictOwnerReference",
    "ScalarSyncClustering",
    "assemble_scalar",
    "canonical_pairs",
    "scalar_reference",
]


class DictOwnerReference:
    """Owner-side aggregates in a ``dict[int, list[float]]``: the seed's
    scalar owner-aggregation loop."""

    def __init__(self):
        self.own = {}

    def merge(self, labels, tot, cnt, s_in):
        for lab, t, c, i in zip(
            labels.tolist(), tot.tolist(), cnt.tolist(), s_in.tolist()
        ):
            acc = self.own.get(lab)
            if acc is None:
                acc = self.own[lab] = [0.0, 0.0, 0.0]
            acc[0] += t
            acc[1] += c
            acc[2] += i

    def answer(self, req):
        """``(sigma_tot, size)`` rows for the requested labels; a label
        this owner holds no aggregate for raises ``KeyError``."""
        vals = np.empty((req.size, 2))
        for i, lab in enumerate(req.tolist()):
            acc = self.own[lab]
            vals[i, 0] = acc[0]
            vals[i, 1] = acc[1]
        return vals

    def partial_modularity(self, two_m, resolution):
        q = 0.0
        for acc in self.own.values():  # dict preserves insertion order
            q += acc[2] / two_m - resolution * (acc[0] / two_m) ** 2
        return q


class ScalarSyncClustering(LocalClustering):
    """``LocalClustering`` with the seed's dict-based aggregate sync."""

    def _scalar_contributions(self):
        """(labels, sigma_tot, size, sigma_in) facts this rank must report,
        pre-aggregated per label with ``np.add.at``."""
        lg = self.lg
        # member facts: owned low vertices + designated hubs
        mem_local = np.arange(lg.n_owned, dtype=np.int64)
        if lg.n_hubs:
            hub_rows = lg.n_owned + np.flatnonzero(self._hub_designated)
            mem_local = np.concatenate([mem_local, hub_rows])
        mem_labels = self.comm_of[mem_local]
        mem_w = lg.row_weighted_degree[mem_local]

        # edge facts: directed entries internal to a community
        entry_rows = np.repeat(
            np.arange(lg.n_rows, dtype=np.int64), np.diff(lg.indptr)
        )
        cu = self.comm_of[entry_rows]
        cv = self.comm_of[lg.indices]
        internal = cu == cv
        is_self = lg.indices == entry_rows
        w_in = np.where(is_self, 2.0 * lg.weights, lg.weights)[internal]
        in_labels = cu[internal]

        labels = np.concatenate([mem_labels, in_labels])
        tot = np.concatenate([mem_w, np.zeros(in_labels.size)])
        cnt = np.concatenate([np.ones(mem_labels.size), np.zeros(in_labels.size)])
        s_in = np.concatenate([np.zeros(mem_labels.size), w_in])
        uniq, inv = np.unique(labels, return_inverse=True)
        tot_a = np.zeros(uniq.size)
        cnt_a = np.zeros(uniq.size)
        in_a = np.zeros(uniq.size)
        np.add.at(tot_a, inv, tot)
        np.add.at(cnt_a, inv, cnt)
        np.add.at(in_a, inv, s_in)
        return uniq, tot_a, cnt_a, in_a

    def sync_aggregates(self):
        comm = self.comm
        labels, tot, cnt, s_in = self._scalar_contributions()
        owner = labels % comm.size
        payloads = []
        for r in range(comm.size):
            m = owner == r
            payloads.append((labels[m], tot[m], cnt[m], s_in[m]))
        own = DictOwnerReference()
        for payload in comm.alltoall(payloads):
            own.merge(*payload)
        self.snapshot = self._dict_pull(own)
        q_part = own.partial_modularity(self.two_m, self.resolution)
        return float(comm.allreduce(q_part))

    def _dict_pull(self, own):
        """Request (sigma_tot, size) for every referenced community, collect
        the replies and an owned-vertex census in dicts, and fill the
        snapshot from them, with the neighbour-community pairs the next
        vectorized sweep reads."""
        comm = self.comm
        needed, cidx = np.unique(self.comm_of, return_inverse=True)
        need_owner = needed % comm.size
        requests = [needed[need_owner == r] for r in range(comm.size)]
        replies = [(req, own.answer(req)) for req in comm.alltoall(requests)]
        sigma_tot, csize = {}, {}
        for req, vals in comm.alltoall(replies):
            for lab, (t, c) in zip(req.tolist(), vals.tolist()):
                sigma_tot[lab] = t
                csize[lab] = round(c)
        # local membership census over owned vertices only
        local_members = {}
        for lab in self.comm_of[: self.lg.n_owned].tolist():
            local_members[lab] = local_members.get(lab, 0) + 1
        labs = needed.tolist()
        lg = self.lg
        return CommunitySnapshot(
            needed,
            cidx,
            np.array([sigma_tot[lab] for lab in labs], dtype=np.float64),
            np.array([csize[lab] for lab in labs], dtype=np.int64),
            np.array([local_members.get(lab, 0) for lab in labs], dtype=np.int64),
            # the sweep's input, from the numpy reference of the sync's scan
            *neighbour_pairs(lg.indptr, lg.indices, lg.weights, cidx, needed.size),
        )


def canonical_pairs(pairs):
    """Neighbour-community pairs ``(pair_ptr, pair_id, pair_w)`` with each
    row's pairs in ascending id order.  The C scan lists them in order of
    first appearance and the numpy one by id; the sums are the same."""
    pair_ptr, pair_id, pair_w = pairs
    rows = np.repeat(np.arange(pair_ptr.size - 1), np.diff(pair_ptr))
    order = np.lexsort((pair_id, rows))
    return pair_ptr, pair_id[order], pair_w[order]


def assemble_scalar(rank, size, k, ncu, ncv, nw):
    """Dict-based assembly of one rank's coarse rows; same signature and
    result tuple as ``repro.core.merging._assemble``."""
    owned = np.arange(rank, k, size, dtype=np.int64)
    wdeg = np.zeros(owned.size)
    owned_pos = {int(c): i for i, c in enumerate(owned)}
    for c, ww in zip(ncu.tolist(), nw.tolist()):
        wdeg[owned_pos[c]] += ww

    ghosts = np.unique(ncv[(ncv % size) != rank])
    global_ids = np.concatenate([owned, ghosts])
    local_of = {}
    for i, g in enumerate(global_ids.tolist()):
        local_of[g] = i

    # store the self-loop at half its aggregated (doubled) weight
    stored_w = np.where(ncu == ncv, nw / 2.0, nw)
    src_local = np.fromiter(
        (local_of[c] for c in ncu.tolist()), dtype=np.int64, count=ncu.size
    )
    dst_local = np.fromiter(
        (local_of[c] for c in ncv.tolist()), dtype=np.int64, count=ncv.size
    )
    return owned, wdeg, ghosts, global_ids, src_local, dst_local, stored_w


@contextmanager
def scalar_reference():
    """Run the dict-based sync and assembly in place of the product's for
    the duration of the block; yields ``{"sync": n, "assemble": n}`` call
    counts.  Thread backend only (see the module docstring)."""
    calls = {"sync": 0, "assemble": 0}
    lock = threading.Lock()

    def count(key):
        with lock:
            calls[key] += 1

    class CountingClustering(ScalarSyncClustering):
        def sync_aggregates(self):
            count("sync")
            return super().sync_aggregates()

    def assemble(*args):
        count("assemble")
        return assemble_scalar(*args)

    with mock.patch.object(
        distributed, "LocalClustering", CountingClustering
    ), mock.patch.object(merging, "_assemble", assemble):
        yield calls

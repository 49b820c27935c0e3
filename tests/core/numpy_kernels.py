"""The numpy references of the C kernels (``repro.core.native``).

The product has one implementation of every kernel: the C one in
``src/repro/core/_kernels.c``.  The numpy forms below are the references it
reproduces bit for bit (same summation order, same operand order, no fused
multiply-add).  Their bodies are the numpy twins the product used to run
where no C compiler was found, moved here unchanged:

* :class:`NumpyLevelKernels` — :class:`repro.core.native.LevelKernels`:
  the label index, the fused scan (:func:`internal_weight`,
  :func:`neighbour_pairs` over :func:`aggregate_neighbor_communities`), the
  gain pass and the four phases of the inner iteration (``send``,
  ``owner``, ``place``, ``sweep``).  Its contributions and replies are
  tuples of columns; the C kernels ship the same bytes packed into one
  int64 buffer, which :func:`packed` builds from a tuple;
* :class:`SortedLabelTable` — :class:`repro.core.native.LabelTable`;
* :class:`OwnerTable` — the owner phase's table, in first-arrival order;
* :func:`_pair_sort_numpy`, :func:`_run_sums_numpy`, :func:`unique_inverse`
  and :func:`_symmetric_csr_numpy` — :func:`repro.core.native.pair_sort`,
  ``run_sums``, ``unique_inverse`` and ``symmetric_csr``;
* :func:`_aggregate_pairs_numpy` and :func:`_aggregate_pairs_sorted` — the
  merge's pair aggregation by one int64 key over the labels' span, and by
  lexsort where that key would overflow.

Tests compare the C kernels against these directly.  Where a whole run has
to go through them, :func:`numpy_path` substitutes them for the kernels of
:mod:`repro.core.native` that the product calls.  The substitution patches
module attributes of the calling interpreter, so it only reaches ranks that
run there: pass ``backend="thread"`` to every run under it.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np

from repro.core import native
from repro.core.native import _out_of_range
from repro.core.pack import pack_bounds, pack_by_owner

__all__ = [
    "NumpyLevelKernels",
    "OwnerTable",
    "SortedLabelTable",
    "aggregate_neighbor_communities",
    "internal_weight",
    "neighbour_pairs",
    "numpy_path",
    "packed",
    "unique_inverse",
]

_I64_MAX = np.iinfo(np.int64).max


def packed(columns: tuple) -> np.ndarray:
    """The packed form of a tuple payload of :class:`NumpyLevelKernels`
    (a contribution ``(labels, sigma_tot, size, sigma_in)`` or a reply
    ``(req, vals)``), as :class:`repro.core.native.LevelKernels` ships it:
    the bytes of every column in order, as one int64 array of 8-byte
    words."""
    return np.concatenate(
        [np.ascontiguousarray(c).reshape(-1).view(np.int64) for c in columns]
    )


def aggregate_neighbor_communities(
    entry_rows: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    cidx: np.ndarray,
    n_labels: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-(row, neighbour-community) link weights over a CSR.

    ``cidx`` is the compact community index of every local vertex: ids in
    ``[0, n_labels)`` that order like the labels they stand for, e.g. the
    inverse of ``np.unique(comm_of, return_inverse=True)``, or the labels
    themselves when they already lie in ``[0, n_labels)``.  Self-edges are
    excluded, matching the scalar sweep.  Returns ``(rows, ids, w)`` with
    ``rows`` ascending, ``ids`` ascending within a row, each ``(row, id)``
    pair unique, and ``w`` summed left to right in CSR entry order.
    """
    mask = indices != entry_rows
    # one stable argsort of a combined int64 key groups the pairs in
    # (row, id) order.  row < n_rows and id < n_labels are both at most the
    # local vertex count, so the key stays below 2**63 for fewer than about
    # 3.03e9 local vertices.
    k = np.int64(max(n_labels, 1))
    key = entry_rows[mask] * k + cidx[indices[mask]]
    w = weights[mask]
    del mask
    if key.size == 0:
        empty_i = np.zeros(0, dtype=np.int64)
        return empty_i, empty_i, np.zeros(0, dtype=np.float64)
    order = np.argsort(key, kind="stable")
    key = key[order]
    w = w[order]
    del order
    boundary = np.empty(key.size, dtype=bool)
    boundary[0] = True
    np.not_equal(key[1:], key[:-1], out=boundary[1:])
    # np.bincount adds its weights one by one in stream order, so each
    # pair's sum is the sequential one (a segmented ufunc reduceat is not)
    pair_w = np.bincount(np.cumsum(boundary) - 1, weights=w)
    pair_key = key[boundary]
    del key, boundary
    return pair_key // k, pair_key % k, pair_w


def _segment_starts(sorted_rows: np.ndarray) -> np.ndarray:
    """Start offsets of the per-row segments of an ascending row array."""
    if sorted_rows.size == 0:
        return np.zeros(0, dtype=np.int64)
    boundary = np.empty(sorted_rows.size, dtype=bool)
    boundary[0] = True
    boundary[1:] = sorted_rows[1:] != sorted_rows[:-1]
    return np.flatnonzero(boundary)


class NumpyLevelKernels:
    """The numpy reference of
    :class:`repro.core.native.LevelKernels`: the same methods with the same
    answers, bit for bit.  Its pairs list each row's ids in ascending
    order, the C scan's in order of first appearance; the gain pass does
    not depend on that order.  ``send`` keeps the sync's compact index,
    pairs and request order until ``place`` reads them."""

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        row_wdeg: np.ndarray,
        n_local: int,
        spec: native.SyncSpec | None = None,
    ) -> None:
        self._csr = (indptr, indices, weights)
        self._row_wdeg = row_wdeg
        self.n_rows = int(indptr.size) - 1
        self._spec = spec
        # the compact index, pairs and request order of the sync in progress
        self._sent: tuple | None = None

    def index(self, comm_of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.unique(comm_of, return_inverse=True)

    def scan(
        self, cidx: np.ndarray, n_labels: int
    ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        s_in, has_in = internal_weight(*self._csr, cidx, n_labels)
        return s_in, has_in, neighbour_pairs(*self._csr, cidx, n_labels)

    def gains(
        self,
        pairs: tuple[np.ndarray, np.ndarray, np.ndarray],
        cidx: np.ndarray,
        comm_of: np.ndarray,
        labels: np.ndarray,
        lookup: tuple[np.ndarray, np.ndarray, np.ndarray],
        *,
        two_m: float,
        resolution: float,
        theta: float,
        heuristic_name: str,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The gain pass over each row's neighbour-community sums: the
        reference the C ``pair_gains`` kernel reproduces bit for bit.
        ``lookup`` holds the ``(sigma_tot, size, is_local)`` columns of
        the compact ids.  The pairs of a row may
        come in any order: the winner is the minimum of an injective key
        among the candidates within ``theta`` of the row's maximum gain.
        Returns ``(chosen, chosen_gain, stay_gain, chosen_id)``, the last
        the compact id of each chosen label."""
        native.heuristic_code(heuristic_name)
        pair_ptr, pid, pw = pairs
        n_rows = self.n_rows
        pr = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(pair_ptr))
        row_wdeg = self._row_wdeg[:n_rows]
        cu = comm_of[:n_rows].astype(np.int64, copy=False)
        cu_id = cidx[:n_rows]
        st, sz, loc = lookup

        # stay gain: links into the own community minus the Eq. 4 penalty
        # against sigma_tot(cu) without u
        stay_w = np.zeros(n_rows)
        is_stay = pid == cu_id[pr]
        stay_w[pr[is_stay]] = pw[is_stay]
        st_cu = st[cu_id] - row_wdeg
        stay_gain = stay_w - resolution * st_cu * row_wdeg / two_m

        chosen = cu.copy()
        chosen_id = cu_id.astype(np.int64, copy=True)
        chosen_gain = stay_gain.copy()

        cand = ~is_stay
        cpr = pr[cand]
        cid = pid[cand]
        cgain = pw[cand] - resolution * st[cid] * row_wdeg[cpr] / two_m
        del pr, pid, pw, is_stay, cand
        if cpr.size == 0:
            return chosen, chosen_gain, stay_gain, chosen_id

        starts = _segment_starts(cpr)
        improving = cgain > stay_gain[cpr] + theta
        gains_masked = np.where(improving, cgain, -np.inf)
        row_best = np.full(n_rows, -np.inf)
        row_best[cpr[starts]] = np.maximum.reduceat(gains_masked, starts)
        top = improving & (cgain >= row_best[cpr] - theta)

        # strategy _pick as an integer sort key: smaller key == preferred.
        # Compact ids order like labels, so greedy/minlabel pick the minimum
        # id; enhanced prefixes the id with its category (local=0, remote
        # multi-member=1, remote singleton=2)
        if heuristic_name == "enhanced":
            category = np.where(loc[cid], 0, np.where(sz[cid] > 1, 1, 2))
            key = category.astype(np.int64) * labels.size + cid
        else:
            key = cid
        key_masked = np.where(top, key, _I64_MAX)
        row_min = np.full(n_rows, _I64_MAX, dtype=np.int64)
        row_min[cpr[starts]] = np.minimum.reduceat(key_masked, starts)
        # (row, id) pairs are unique and the key is injective in the id, so
        # each moving row matches exactly one winning candidate
        winner = np.flatnonzero(top & (key_masked == row_min[cpr]))

        wrow = cpr[winner]
        wid = cid[winner]
        wlab = labels[wid]
        wloc = loc[wid]
        wsz = sz[wid]

        # strategy _veto on the winning candidate
        if heuristic_name == "minlabel":
            veto = ~wloc & (wlab > cu[wrow])
        elif heuristic_name == "enhanced":
            veto = ~wloc & (wsz == 1) & (wlab > cu[wrow])
        else:  # greedy
            veto = np.zeros(wrow.size, dtype=bool)

        keep = ~veto
        chosen[wrow[keep]] = wlab[keep]
        chosen_id[wrow[keep]] = wid[keep]
        chosen_gain[wrow[keep]] = cgain[winner][keep]
        return chosen, chosen_gain, stay_gain, chosen_id


    # ------------------------------------------------------------------
    # The phases of the inner iteration
    # ------------------------------------------------------------------
    def _sync_spec(self) -> native.SyncSpec:
        if self._spec is None:
            raise RuntimeError("these kernels were bound without a sync spec")
        return self._spec

    def send(self, comm_of: np.ndarray) -> tuple[list, list]:
        """``(contributions, requests)``: this rank's
        ``(labels, sigma_tot, size, sigma_in)`` facts, pre-aggregated per
        label and split by owner, and the labels it references, split the
        same way.

        Member facts come from the spec's member rows (owned low vertices
        and designated hubs), edge facts from the directed entries internal
        to a community (self entries doubled, :func:`internal_weight`).
        ``np.bincount`` adds its weights one by one in stream order, so
        every sum is reproducible bit for bit.  Keeps the compact index,
        the scan's pairs and the request order for :meth:`place`.
        """
        spec = self._sync_spec()
        size = spec.size
        labels_all, cidx = self.index(comm_of)
        k = labels_all.size
        mem_ids = cidx[spec.members]
        s_in, present, pairs = self.scan(cidx, k)
        present[mem_ids] = True
        weights = self._row_wdeg[spec.members]
        tot = np.bincount(mem_ids, weights=weights, minlength=k)[present]
        cnt = np.bincount(mem_ids, minlength=k)[present]
        labels = labels_all[present]
        contributions = pack_by_owner(
            labels % size,
            size,
            labels,
            # an empty bincount is int64 even with weights
            tot.astype(np.float64, copy=False),
            cnt.astype(np.float64),
            s_in[present],
        )
        order, bounds = pack_bounds(labels_all % size, size)
        staged = labels_all[order]
        requests = [staged[bounds[r] : bounds[r + 1]] for r in range(size)]
        self._sent = (labels_all, cidx, pairs, order)
        return contributions, requests

    def owner(self, received: list, incoming: list) -> tuple[float, list]:
        """``(q_part, replies)``: the owner table of the ``received``
        contributions (:class:`OwnerTable`,
        fed in rank-arrival order), its partial modularity, and each
        peer's ``(req, vals)`` answer.  A request for a community this
        owner holds no aggregate for breaks the protocol: ``RuntimeError``
        names the rank and the label."""
        spec = self._sync_spec()
        own = OwnerTable(
            *(np.concatenate([p[i] for p in received]) for i in range(4))
        )
        q_part = own.partial_modularity(spec.two_m, spec.resolution)
        replies = []
        for req in incoming:
            vals = np.empty((req.size, 2))
            try:
                vals[:, 0], vals[:, 1] = own.lookup(req)
            except KeyError as exc:
                raise RuntimeError(
                    f"rank {spec.rank}: no aggregate for community {exc.args[0]}"
                ) from None
            replies.append((req, vals))
        return q_part, replies

    def place(self, answered: list) -> tuple:
        """The snapshot columns ``(labels, cidx, sigma_tot, size, local,
        pair_ptr, pair_id, pair_w)`` of the sync.

        The requests were ``labels[order]``, so the rank-order
        concatenation of the replies must repeat them exactly; anything
        else raises ``RuntimeError``.  The local-member census counts the
        owned vertices only: hub delegates are resident everywhere, which
        does not make their communities' aggregates any fresher here.
        """
        spec = self._sync_spec()
        if self._sent is None:
            raise RuntimeError("place needs a send first")
        labels, cidx, pairs, order = self._sent
        replied = np.concatenate([a[0] for a in answered])
        values = np.concatenate([a[1] for a in answered])
        if not np.array_equal(replied, labels[order]):
            raise RuntimeError("the pull's replies do not match its requests")
        sigma_tot = np.empty(labels.size)
        sigma_tot[order] = values[:, 0]
        size = np.empty(labels.size, dtype=np.int64)
        size[order] = np.rint(values[:, 1])
        local = np.bincount(cidx[: spec.n_owned], minlength=labels.size)
        self._sent = None
        return (labels, cidx, sigma_tot, size, local, *pairs)

    def sweep(
        self, snap, comm_of: np.ndarray, down_only: bool
    ) -> tuple[int, np.ndarray, np.ndarray]:
        """One Jacobi sweep over the snapshot ``snap``: the gain pass, then
        the owned moves written into ``comm_of`` in place.  Returns
        ``(moves, hub_gain, hub_target)``.

        Two dampers keep synchronous application from mass-oscillating
        (whole communities trading labels every iteration, the Jacobi
        failure mode Gauss-Seidel ordering never exhibits):

        * Lu et al.'s singleton swap gate: a singleton may merge into
          another singleton only toward the smaller label;
        * a direction gate: with ``down_only`` only label-decreasing moves
          apply; gated moves are *deferred* (still counted, so the level
          cannot falsely report convergence) and get their chance on the
          next, unrestricted iteration.  A two-community swap cycle then
          executes only its down-label half, after which the re-evaluated
          state has nothing to swap back.
        """
        spec = self._sync_spec()
        n_owned = spec.n_owned
        chosen, gain, stay, chosen_id = self.gains(
            snap.pairs,
            snap.cidx,
            comm_of,
            snap.labels,
            snap.lookup(),
            two_m=spec.two_m,
            resolution=spec.resolution,
            theta=spec.theta,
            heuristic_name=spec.heuristic,
        )
        cu = comm_of[: self.n_rows]
        movers = np.flatnonzero(chosen[:n_owned] != cu[:n_owned])
        # gate decisions read the synced sizes, by compact id
        m_old = cu[movers]
        m_tgt = chosen[movers]
        sz_old = snap.size[snap.cidx[movers]]
        sz_tgt = snap.size[chosen_id[movers]]
        gate = (sz_old == 1) & (sz_tgt == 1) & (m_tgt > m_old)
        defer = down_only & (m_tgt > m_old) & ~gate
        take = ~gate & ~defer
        comm_of[movers[take]] = m_tgt[take]
        moves = int(np.count_nonzero(take)) + int(np.count_nonzero(defer))

        n_hubs = self.n_rows - n_owned
        hub_gain = np.zeros(n_hubs)
        hub_target = cu[n_owned:].astype(np.float64)
        if n_hubs:
            hub_choice = chosen[n_owned:]
            prop = hub_choice != cu[n_owned:]
            hub_gain[prop] = (gain - stay)[n_owned:][prop]
            hub_target[prop] = hub_choice[prop].astype(np.float64)
        return moves, hub_gain, hub_target


def _entry_rows(indptr: np.ndarray) -> np.ndarray:
    """The source row of every CSR entry."""
    return np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))


def neighbour_pairs(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    cidx: np.ndarray,
    n_labels: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every row's neighbour-community sums as ``(pair_ptr, pair_id,
    pair_w)``: row ``u``'s pairs are ``pair_ptr[u]:pair_ptr[u + 1]``, in
    ascending id order (:func:`aggregate_neighbor_communities` on the
    CSR)."""
    rows, ids, w = aggregate_neighbor_communities(
        _entry_rows(indptr), indices, weights, cidx, n_labels
    )
    pair_ptr = np.zeros(indptr.size, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=indptr.size - 1), out=pair_ptr[1:])
    return pair_ptr, ids, w


def internal_weight(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    cidx: np.ndarray,
    n_labels: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Intra-community edge weight per compact id: ``(s_in, has_in)``.

    Every directed entry whose endpoints share a compact id adds its
    weight (twice for a self entry) to ``s_in[cidx[row]]``, in CSR entry
    order; ``has_in`` marks the ids that received at least one entry.
    The numpy reference of the C ``neighbour_scan``'s internal weights.
    """
    entry_rows = _entry_rows(indptr)
    cu = cidx[entry_rows]
    internal = cu == cidx[indices]
    in_ids = cu[internal]
    del cu
    w_in = weights[internal]
    w_in = np.where(indices[internal] == entry_rows[internal], 2.0 * w_in, w_in)
    # np.bincount adds in stream order, so the sums are reproducible (it
    # returns integers for an empty stream, hence the cast)
    s_in = np.bincount(in_ids, weights=w_in, minlength=n_labels).astype(
        np.float64, copy=False
    )
    has_in = np.zeros(n_labels, dtype=bool)
    has_in[in_ids] = True
    return s_in, has_in


class SortedLabelTable:
    """First-arrival ids of int64 keys, as :class:`repro.core.native.LabelTable`
    numbers them, from ``np.unique`` and sorted search."""

    __slots__ = ("ids", "labels", "_sorted", "_rank")

    def __init__(self, keys: np.ndarray) -> None:
        self._sorted, first, inv = np.unique(
            keys, return_index=True, return_inverse=True
        )
        # sorted position -> first-arrival id
        self._rank = np.empty(first.size, dtype=np.int64)
        self._rank[np.argsort(first)] = np.arange(first.size, dtype=np.int64)
        self.ids = self._rank[inv]
        self.labels = np.empty_like(self._sorted)
        self.labels[self._rank] = self._sorted

    def find(self, queries: np.ndarray) -> np.ndarray:
        """The id of every query; :class:`KeyError` names the first query
        the table does not hold."""
        pos = np.searchsorted(self._sorted, queries)
        pos = np.minimum(pos, max(self._sorted.size - 1, 0))
        if self._sorted.size:
            found = self._sorted[pos] == queries
        else:
            found = np.zeros(queries.size, dtype=bool)
        if not found.all():
            raise KeyError(int(queries[np.argmin(found)]))
        return self._rank[pos]


def _sums(ids: np.ndarray, values: np.ndarray, k: int) -> np.ndarray:
    """Per-id sums in stream order (``np.bincount`` returns integers for
    an empty stream, hence the cast)."""
    return np.bincount(ids, weights=values, minlength=k).astype(
        np.float64, copy=False
    )


class OwnerTable:
    """Owner-side per-community aggregates (``sigma_tot``, size, ``sigma_in``)
    of one synchronisation round.

    Dense replacement for the seed's per-round ``dict[int, list[float]]``.
    Built from the round's received stream: ``labels`` is the rank-order
    concatenation of every peer's payload (each label at most once per
    peer).  The labels are numbered in order of first arrival, which is
    the dict's insertion order, and ``np.bincount`` over those ids
    hits each community in exactly the order the scalar loop visited it.
    """

    __slots__ = ("labels", "tot", "cnt", "s_in", "_index")

    def __init__(
        self,
        labels: np.ndarray,
        tot: np.ndarray,
        cnt: np.ndarray,
        s_in: np.ndarray,
    ) -> None:
        self._index = SortedLabelTable(labels)
        self.labels = self._index.labels
        ids, k = self._index.ids, self.labels.size
        self.tot = _sums(ids, tot, k)
        self.cnt = _sums(ids, cnt, k)
        self.s_in = _sums(ids, s_in, k)

    def __len__(self) -> int:
        return int(self.labels.size)

    def lookup(self, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(sigma_tot, size)`` for every requested label, from one sorted
        search per request.

        Raises :class:`KeyError` naming the first unknown label — the
        protocol guarantees owners hold an aggregate for every community a
        subscriber references, exactly like the dict path's hard failure.
        """
        pos = self._index.find(labels)
        return self.tot[pos], self.cnt[pos]

    def partial_modularity(self, two_m: float, resolution: float) -> float:
        """Sum of per-community Q terms, accumulated in id order (dict
        insertion order) with a strictly sequential ``cumsum`` so the
        result is bit-identical to the scalar ``+=`` loop."""
        if self.labels.size == 0:
            return 0.0
        terms = self.s_in / two_m - resolution * (self.tot / two_m) ** 2
        return float(np.cumsum(terms)[-1])


def _pair_sort_numpy(
    a: np.ndarray, b: np.ndarray, na: int, nb: int
) -> tuple[np.ndarray, np.ndarray]:
    """The numpy reference of :func:`repro.core.native.pair_sort`."""
    if a.size and (a.min() < 0 or a.max() >= na or b.min() < 0 or b.max() >= nb):
        bad = (a < 0) | (a >= na) | (b < 0) | (b >= nb)
        _out_of_range(a, b, na, nb, int(np.argmax(bad)))
    if na * nb < 2**63:
        order = np.argsort(a * np.int64(nb) + b, kind="stable")
    else:
        order = np.lexsort((b, a))
    indptr = np.zeros(na + 1, dtype=np.int64)
    np.cumsum(np.bincount(a, minlength=na), out=indptr[1:])
    return order, indptr


def _run_sums_numpy(
    order: np.ndarray, a: np.ndarray, b: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The numpy reference of :func:`repro.core.native.run_sums`: ``np.bincount`` adds each
    weight into its run's bin in stream order, from 0.0."""
    a, b = a[order], b[order]
    start = np.ones(a.size, dtype=bool)
    start[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    sums = np.bincount(np.cumsum(start) - 1, weights=w[order])
    # an empty bincount is int64 even with weights
    return a[start], b[start], sums.astype(np.float64, copy=False)


def unique_inverse(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The numpy reference of :func:`repro.core.native.unique_inverse`:
    ``np.unique`` itself, which sorts (with ``return_inverse`` it never
    takes numpy's hash path)."""
    return np.unique(np.asarray(keys, dtype=np.int64), return_inverse=True)


def _symmetric_csr_numpy(
    n_vertices: int, lo: np.ndarray, hi: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The numpy reference of
    :func:`repro.core.native.symmetric_csr`: the CSR arrays of the edges
    ``(lo, hi)``, ``lo <= hi``, duplicates merged in input order."""
    key = lo * np.int64(n_vertices if n_vertices > 0 else 1) + hi
    order = np.argsort(key, kind="stable")
    lo, hi, w = lo[order], hi[order], weights[order]
    if lo.size:
        boundary = np.empty(lo.size, dtype=bool)
        boundary[0] = True
        boundary[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        group = np.cumsum(boundary) - 1
        n_unique = int(group[-1]) + 1
        merged_w = np.zeros(n_unique, dtype=np.float64)
        np.add.at(merged_w, group, w)
        lo, hi, w = lo[boundary], hi[boundary], merged_w
    # Expand to both directions (self-loops once).
    loops = lo == hi
    s = np.concatenate([lo, hi[~loops]])
    d = np.concatenate([hi, lo[~loops]])
    ww = np.concatenate([w, w[~loops]])
    # Counting sort into CSR.
    counts = np.zeros(n_vertices, dtype=np.int64)
    np.add.at(counts, s, 1)
    indptr = np.zeros(n_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    # stable sort on one int64 key, in (row, neighbour) order; this key and
    # the canonicalisation key above stay below 2**63 for n_vertices up to
    # about 3.03e9 (the C path forms no keys)
    order = np.argsort(s * np.int64(max(n_vertices, 1)) + d, kind="stable")
    return indptr, d[order], ww[order]


def _aggregate_pairs_sorted(
    cu: np.ndarray, cv: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair aggregation by lexsort, for labels too far apart to key.

    Lexsort is stable, so each ``(cu, cv)`` group keeps its entries in
    original order, and :func:`~repro.core.native.run_sums` accumulates
    each group with strictly sequential additions from 0.0 (``reduceat``
    would not do: it sums long segments pairwise).  No ``cu * n + cv`` key
    is formed, so no value range can overflow.
    """
    return native.run_sums(np.lexsort((cv, cu)), cu, cv, w)


def _aggregate_pairs_numpy(
    cu: np.ndarray, cv: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The numpy pair aggregation: one int64 key per pair over the labels'
    span, ``np.unique`` (sort-based with ``return_inverse``) and
    ``np.bincount``, which adds each weight into its pair's bin in stream
    order from 0.0.  Spans whose square would overflow int64 take the
    lexsort path."""
    lo = min(int(cu.min()), int(cv.min()))
    span = max(int(cu.max()), int(cv.max())) - lo + 1
    if span * span >= 2**63:
        return _aggregate_pairs_sorted(cu, cv, w)
    uniq, inv = np.unique((cu - lo) * span + (cv - lo), return_inverse=True)
    w_sum = np.bincount(inv, weights=w, minlength=uniq.size)
    return uniq // span + lo, uniq % span + lo, w_sum


@contextmanager
def numpy_path():
    """Run the product on these references: every kernel of
    :mod:`repro.core.native` that ``src/`` calls is replaced by its numpy
    form for the duration of the context (thread ranks only)."""
    with mock.patch.multiple(
        native,
        LevelKernels=NumpyLevelKernels,
        LabelTable=SortedLabelTable,
        pair_sort=_pair_sort_numpy,
        run_sums=_run_sums_numpy,
        unique_inverse=unique_inverse,
        symmetric_csr=_symmetric_csr_numpy,
    ):
        yield

"""Vectorized (Jacobi-style) local-sweep kernels.

The per-vertex Python loop in
:meth:`repro.core.local_clustering.LocalClustering._evaluate_vertex` scans
one CSR row at a time, which makes the stage-1/stage-2 sweep the dominant
cost of the whole simulation.  This module expresses the identical Eq. 4
move evaluation as *bulk* NumPy array operations over all rows at once:

1. **Pair aggregation** — a compact index ``labels_all, cidx =
   np.unique(comm_of, return_inverse=True)`` numbers the rank's
   communities ``0..K-1`` in label order.  The per-(row, neighbour-
   community) link weights ``w(u -> c)`` are computed for every row
   simultaneously by one stable argsort of the int64 key
   ``row * K + cidx[v]`` and one ``np.bincount`` over the pair ids.  The
   pairs come out in (row, label) order and each sum runs left to right
   in CSR entry order, exactly like the scalar evaluator's;
2. **Gain evaluation** — the ``sigma_tot`` / size / local-member columns
   (for the distributed sweep those of the sync's
   :class:`~repro.core.community_table.CommunitySnapshot`) are indexed by
   the same compact id, so each pair gathers its community's values
   directly; Eq. 4 gains are then one broadcasted expression over the
   aggregated pairs;
3. **Heuristic-gated argmax** — the greedy / minlabel / enhanced
   tie-breaking rules of :mod:`repro.core.heuristics` are expressed as
   vectorized sort keys (the enhanced rule's local > remote-multi >
   remote-singleton preference becomes an integer ``category * K + id``
   key) reduced per row with :func:`numpy.minimum.reduceat`, followed by
   the same anti-swap vetoes applied to the winning candidate.

Semantics: one bulk pass evaluates *every* row against a frozen snapshot
of the community state — Jacobi iteration — whereas the scalar loop
applies owned moves immediately so later vertices see them — Gauss–Seidel.
Both converge to equivalent modularity (the outer loop's stall patience and
best-state tracking absorb Jacobi oscillation), but trajectories differ;
see ``docs/ALGORITHM.md``.  To keep within-rank Jacobi updates from
ping-ponging, bulk application adds Lu et al.'s singleton swap gate (a
singleton may merge into another singleton only toward a smaller label) —
the same rule the shared-memory baseline uses, and a no-op under
Gauss–Seidel ordering.

:func:`level_kernels` binds the three steps (label index, scan, gain pass)
to one level's CSR: the C kernels of :mod:`repro.core.native` when they
could be built, which scan each row once with a row-local accumulator in
place of the global sort, else :class:`NumpyLevelKernels`.  The scan yields
both the internal weights (:func:`internal_weight`) and every row's
neighbour-community sums (:func:`neighbour_pairs`); the sweep is a gain
pass over those sums.  Every Jacobi sweep of the package runs on these
bound kernels: the distributed sweep takes its pairs from the sync's
snapshot (possibly stale aggregates), and the shared-memory baseline
(:mod:`repro.core.shared_memory`) scans its labels, already in ``[0, n)``
and so their own compact index, against exact ``np.bincount`` columns.

Bound with a rank's :class:`~repro.core.native.SyncSpec`, the kernels
also run the phases of the distributed inner iteration, one method per
stretch between two collectives: ``send``, ``owner`` and ``place`` for
the aggregate sync, ``sweep`` for the vectorized sweep with its dampers.
:class:`NumpyLevelKernels` holds the numpy form of each, the reference
that the C phases reproduce and the path that runs without a compiler.
The numpy code here is the reference and the fallback, and both give
bit-identical answers.
"""

from __future__ import annotations

import numpy as np

from repro.core import native
from repro.core.community_table import OwnerTable
from repro.core.native import VECTOR_HEURISTICS
from repro.core.pack import pack_bounds, pack_by_owner

__all__ = [
    "VECTOR_HEURISTICS",
    "NumpyLevelKernels",
    "aggregate_neighbor_communities",
    "internal_weight",
    "level_kernels",
    "neighbour_pairs",
]

_I64_MAX = np.iinfo(np.int64).max


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


def level_kernels(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    row_wdeg: np.ndarray,
    n_local: int,
    spec: native.SyncSpec | None = None,
) -> native.LevelKernels | NumpyLevelKernels:
    """The inner-iteration kernels bound to one level's CSR: the C ones
    when :mod:`repro.core.native` could build them, else numpy.  The phase
    methods (``send``, ``owner``, ``place``, ``sweep``) need the rank's
    ``spec``."""
    kind = native.LevelKernels if native.available() else NumpyLevelKernels
    return kind(indptr, indices, weights, row_wdeg, n_local, spec)


class NumpyLevelKernels:
    """The numpy reference and fallback of
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
        reference the C ``pair_gains`` kernel reproduces bit for bit, and
        its fallback.  ``lookup`` holds the ``(sigma_tot, size,
        is_local)`` columns of the compact ids.  The pairs of a row may
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
        contributions (:class:`~repro.core.community_table.OwnerTable`,
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


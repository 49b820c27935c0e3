"""Community-aggregate tables of the synchronisation hot path.

The seed implementation of Algorithm 2's "other" phase kept every
per-community aggregate in Python dicts (``dict[int, list[float]]`` on the
owner side, ``dict[int, float]`` caches on the subscriber side) and walked
them with ``zip(...tolist())`` loops at every iteration.  This module holds
the numpy-native replacement for both sides:

* :class:`OwnerTable` — the owner's aggregates of one round: the labels
  in first-arrival order of the received stream, which is the seed dict's
  insertion order, plus value columns aligned to them, summed with
  ``np.bincount`` over the first-arrival label ids of
  :class:`SortedLabelTable`.  It is the numpy reference of the owner phase
  (:meth:`repro.core.sweep_kernel.NumpyLevelKernels.owner`); the C owner
  phase (``sync_owner`` in ``_kernels.c``) builds the same table in the
  label hash;
* :class:`CommunitySnapshot` — the subscriber's view after the pull: the
  sync's compact label index ``labels, cidx`` (equal to ``np.unique(comm_of,
  return_inverse=True)``) plus ``sigma_tot`` / size / local-member columns
  indexed by compact id, and every row's neighbour-community sums from the
  sync's CSR scan, which the next vectorized sweep turns into gains.  The
  sync is its only writer, and any write to ``comm_of`` invalidates it, so
  a reader gathers by compact id and never searches for a label.

Exactness contract: each kernel reproduces the seed's dict loops *bitwise*.
Accumulations run in the same order the dict loops used (``np.bincount``
adds its weights sequentially in stream order, matching per-rank arrival
order), every label starts from an exact ``0.0``, and
:meth:`OwnerTable.partial_modularity` sums in id order, which is dict
*insertion* order, so the floating-point reduction order of the seed's
``for lab, acc in own.items()`` loop is preserved.  The dict-based sync
survives only as a test oracle (``tests/core/agg_oracle.py``);
``tests/core/test_agg_equivalence.py`` pins the owner side against it and
``tests/core/test_local_clustering.py`` pins the snapshot against its dict
pull.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["OwnerTable", "CommunitySnapshot", "SortedLabelTable"]


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


class CommunitySnapshot(NamedTuple):
    """One rank's community state after a sync, on the sync's compact
    label index.

    ``labels`` is ``np.unique(comm_of)`` and ``cidx`` the compact id of
    every local vertex (``labels[cidx] == comm_of``); ``sigma_tot`` and
    ``size`` are the owners' replies and ``local`` the number of owned
    vertices in each community, all indexed by compact id.  ``pair_ptr``,
    ``pair_id`` and ``pair_w`` are every row's neighbour-community sums
    from the sync's CSR scan (row ``u``'s pairs are ``pair_ptr[u] :
    pair_ptr[u + 1]``; see :meth:`repro.core.native.LevelKernels.scan`).
    The sync's ``place`` phase (:meth:`repro.core.native.LevelKernels.place`
    or its numpy reference) builds its columns.  It describes ``comm_of``
    as the sync saw it, so every write to ``comm_of`` drops it.  None of
    its arrays is kernel scratch, so a snapshot held across later syncs
    stays as it was.
    """

    labels: np.ndarray
    cidx: np.ndarray
    sigma_tot: np.ndarray
    size: np.ndarray
    local: np.ndarray
    pair_ptr: np.ndarray
    pair_id: np.ndarray
    pair_w: np.ndarray

    @property
    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(pair_ptr, pair_id, pair_w)``, the gain pass's input."""
        return self.pair_ptr, self.pair_id, self.pair_w

    def lookup(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(sigma_tot, size, is_local)`` per compact id, the lookup
        columns of the sweep's gain pass."""
        return self.sigma_tot, self.size, self.local > 0

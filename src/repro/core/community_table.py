"""Community-aggregate tables of the synchronisation hot path.

The seed implementation of Algorithm 2's "other" phase kept every
per-community aggregate in Python dicts (``dict[int, list[float]]`` on the
owner side, ``dict[int, float]`` caches on the subscriber side) and walked
them with ``zip(...tolist())`` loops at every iteration.  This module holds
the numpy-native replacement for both sides:

* :class:`OwnerTable` — the owner's aggregates of one round, a
  sorted-unique ``int64`` label array plus value columns aligned to it,
  accumulated from the received contributions with one ``np.unique`` and
  ``np.add.at`` pass;
* :class:`CommunitySnapshot` — the subscriber's view after the pull: the
  sync's compact label index ``labels, cidx = np.unique(comm_of,
  return_inverse=True)`` plus ``sigma_tot`` / size / local-member columns
  indexed by compact id.  The sync is its only writer, and any write to
  ``comm_of`` invalidates it, so a reader gathers by compact id and never
  searches for a label.

Exactness contract: each kernel reproduces the seed's dict loops *bitwise*.
Accumulations run in the same order the dict loops used (``np.add.at``
applies its updates sequentially in stream order, matching per-rank arrival
order), every label starts from an exact ``0.0``, and
:meth:`OwnerTable.partial_modularity` sums in dict *insertion* order via the
``seq`` column so the floating-point reduction order of the seed's
``for lab, acc in own.items()`` loop is preserved.  The dict-based sync
survives only as a test oracle (``tests/core/agg_oracle.py``);
``tests/core/test_agg_equivalence.py`` pins the owner side against it and
``tests/core/test_local_clustering.py`` pins the snapshot against its dict
pull.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["OwnerTable", "CommunitySnapshot"]

def _member_positions(
    sorted_labels: np.ndarray, query: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(positions, found)`` of ``query`` in a sorted-unique label array."""
    pos = np.searchsorted(sorted_labels, query)
    pos_c = np.minimum(pos, max(sorted_labels.size - 1, 0))
    if sorted_labels.size:
        found = sorted_labels[pos_c] == query
    else:
        found = np.zeros(query.size, dtype=bool)
    return pos_c, found


class OwnerTable:
    """Owner-side per-community aggregates (``sigma_tot``, size, ``sigma_in``)
    of one synchronisation round.

    Dense replacement for the seed's per-round ``dict[int, list[float]]``.
    Built from the round's received stream: ``labels`` is the rank-order
    concatenation of every peer's payload (each label at most once per
    peer), so ``np.add.at`` hits each community in exactly the order the
    scalar loop visited it.  ``seq`` is each label's first position in the
    stream — dict-insertion order, which is the float accumulation order of
    the scalar partial-modularity loop.
    """

    __slots__ = ("labels", "tot", "cnt", "s_in", "seq")

    def __init__(
        self,
        labels: np.ndarray,
        tot: np.ndarray,
        cnt: np.ndarray,
        s_in: np.ndarray,
    ) -> None:
        self.labels, self.seq, pos = np.unique(
            labels, return_index=True, return_inverse=True
        )
        self.tot = np.zeros(self.labels.size)
        self.cnt = np.zeros(self.labels.size)
        self.s_in = np.zeros(self.labels.size)
        np.add.at(self.tot, pos, tot)
        np.add.at(self.cnt, pos, cnt)
        np.add.at(self.s_in, pos, s_in)

    def __len__(self) -> int:
        return int(self.labels.size)

    def lookup(self, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(sigma_tot, size)`` for every requested label.

        Raises :class:`KeyError` naming the first unknown label — the
        protocol guarantees owners hold an aggregate for every community a
        subscriber references, exactly like the dict path's hard failure.
        """
        pos, found = _member_positions(self.labels, labels)
        if not found.all():
            missing = labels[~found]
            raise KeyError(int(missing[0]))
        return self.tot[pos], self.cnt[pos]

    def partial_modularity(self, two_m: float, resolution: float) -> float:
        """Sum of per-community Q terms, accumulated in dict-insertion
        order (``seq``) with a strictly sequential ``cumsum`` so the result
        is bit-identical to the scalar ``+=`` loop."""
        if self.labels.size == 0:
            return 0.0
        terms = self.s_in / two_m - resolution * (self.tot / two_m) ** 2
        return float(np.cumsum(terms[np.argsort(self.seq, kind="stable")])[-1])


class CommunitySnapshot(NamedTuple):
    """One rank's community state after a sync, on the sync's compact
    label index.

    ``labels`` is ``np.unique(comm_of)`` and ``cidx`` the compact id of
    every local vertex (``labels[cidx] == comm_of``); ``sigma_tot`` and
    ``size`` are the owners' replies and ``local`` the number of owned
    vertices in each community, all indexed by compact id.  It describes
    ``comm_of`` as the sync saw it, so every write to ``comm_of`` drops it.
    """

    labels: np.ndarray
    cidx: np.ndarray
    sigma_tot: np.ndarray
    size: np.ndarray
    local: np.ndarray

    @classmethod
    def from_replies(
        cls,
        labels: np.ndarray,
        cidx: np.ndarray,
        order: np.ndarray,
        replied: np.ndarray,
        values: np.ndarray,
        n_owned: int,
    ) -> CommunitySnapshot:
        """Place the pull's replies on the compact index.

        The requests were ``labels[order]`` (the owner-bucketing
        permutation of :func:`~repro.core.pack.pack_bounds`), so the
        rank-order concatenation of the replies, ``replied`` with its
        ``(sigma_tot, size)`` rows ``values``, must repeat them exactly;
        anything else breaks the protocol and raises ``RuntimeError``.
        The local-member census counts the first ``n_owned`` vertices:
        hub delegates are resident everywhere, which does not make their
        communities' aggregates any fresher here.
        """
        if not np.array_equal(replied, labels[order]):
            raise RuntimeError("the pull's replies do not match its requests")
        sigma_tot = np.empty(labels.size)
        sigma_tot[order] = values[:, 0]
        size = np.empty(labels.size, dtype=np.int64)
        size[order] = np.rint(values[:, 1])
        local = np.bincount(cidx[:n_owned], minlength=labels.size)
        return cls(labels, cidx, sigma_tot, size, local)

    def lookup(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(sigma_tot, known, size, is_local)`` per compact id, the lookup
        columns of :func:`~repro.core.sweep_kernel.bulk_best_moves`; every
        label of the snapshot is known."""
        return (
            self.sigma_tot,
            np.ones(self.labels.size, dtype=bool),
            self.size,
            self.local > 0,
        )

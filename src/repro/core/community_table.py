"""Dense community-aggregate tables for the synchronisation hot path.

The seed implementation of Algorithm 2's "other" phase kept every
per-community aggregate in Python dicts (``dict[int, list[float]]`` on the
owner side, ``dict[int, float]`` caches on the subscriber side) and walked
them with ``zip(...tolist())`` loops at every iteration.  This module holds
the numpy-native replacement: a *table* is a sorted-unique ``int64`` label
array plus value columns aligned to it, and every operation the sync
protocol needs — accumulating the owners' received contributions, answering
pulls, rebuilding the subscriber cache — is one ``np.unique``,
``searchsorted`` or ``np.add.at`` pass.

Exactness contract: each kernel reproduces the seed's dict loops *bitwise*.
Accumulations run in the same order the dict loops used (``np.add.at``
applies its updates sequentially in stream order, matching per-rank arrival
order), every label starts from an exact ``0.0``, and
:meth:`OwnerTable.partial_modularity` sums in dict *insertion* order via the
``seq`` column so the floating-point reduction order of the seed's
``for lab, acc in own.items()`` loop is preserved.  The dict-based owner
side survives only as a test oracle (``tests/core/agg_oracle.py``);
``tests/core/test_agg_equivalence.py`` pins this module against it, and
pins :class:`CommunityTable` against a literal dict transcription of the
subscriber cache it replaced.
"""

from __future__ import annotations

import numpy as np

__all__ = ["OwnerTable", "CommunityTable"]

_EMPTY_I64 = np.zeros(0, dtype=np.int64)
_EMPTY_F64 = np.zeros(0, dtype=np.float64)


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


class CommunityTable:
    """Subscriber-side cache: ``sigma_tot`` / community size / local-member
    count per referenced community, as dense label-aligned columns.

    The one subscriber-side cache of :class:`LocalClustering`, for every
    sweep, aggregate and ghost mode: both pull implementations rebuild
    it, the bulk sweep reads it directly, and the Gauss-Seidel sweep loads
    dict views from it once per pass.  Lookup defaults mirror the dict
    ``get`` defaults of the scalar sweep: missing ``sigma_tot`` is 0.0
    (with a separate "known" mask for the stay-gain special case), missing
    size is 1, missing local count is 0.
    """

    __slots__ = ("labels", "sigma_tot", "size", "local")

    def __init__(self) -> None:
        self.labels = _EMPTY_I64
        self.sigma_tot = _EMPTY_F64
        self.size = _EMPTY_I64
        self.local = _EMPTY_I64

    def __len__(self) -> int:
        return int(self.labels.size)

    def rebuild(
        self, labels: np.ndarray, sigma_tot: np.ndarray, size: np.ndarray
    ) -> None:
        """Replace the cache wholesale (full-pull semantics).  ``labels``
        need not be sorted; local counts reset to zero."""
        order = np.argsort(labels, kind="stable")
        self.labels = labels[order]
        self.sigma_tot = sigma_tot[order]
        self.size = size[order]
        self.local = np.zeros(self.labels.size, dtype=np.int64)

    def set_local_census(self, labels: np.ndarray, counts: np.ndarray) -> None:
        """Reset the local-member column from a fresh census over owned
        vertices.  Every census label must already be cached (the pull
        protocol guarantees it); a miss would silently corrupt a neighbour
        row, so it is a hard error instead."""
        self.local[:] = 0
        if labels.size:
            pos, found = _member_positions(self.labels, labels)
            if not found.all():
                raise KeyError(int(labels[~found][0]))
            self.local[pos] = counts

    def lookup_eval(
        self, labels: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(sigma_tot, sigma_known, size, is_local)`` with dict-``get``
        defaults, for the bulk sweep kernel."""
        pos, found = _member_positions(self.labels, labels)
        st = np.where(found, self.sigma_tot[pos] if self.labels.size else 0.0, 0.0)
        sz = np.where(found, self.size[pos] if self.labels.size else 1, 1)
        loc = found & (self.local[pos] > 0) if self.labels.size else found
        return st, found, sz.astype(np.int64, copy=False), loc

    def scatter_add(
        self,
        labels: np.ndarray,
        d_sigma: np.ndarray,
        d_size: np.ndarray,
        d_local: np.ndarray,
    ) -> None:
        """Apply optimistic move deltas (``np.add.at``, sequential in
        stream order), inserting zero rows for labels not yet cached —
        the dict path's ``get(label, 0)`` bootstrap."""
        if labels.size == 0:
            return
        uniq = np.unique(labels)
        _pos, found = _member_positions(self.labels, uniq)
        new_labels = uniq[~found]
        if new_labels.size:
            merged = np.concatenate([self.labels, new_labels])
            take = np.argsort(merged, kind="stable")
            zeros = np.zeros(new_labels.size, dtype=np.int64)
            self.labels = merged[take]
            self.sigma_tot = np.concatenate(
                [self.sigma_tot, np.zeros(new_labels.size)]
            )[take]
            self.size = np.concatenate([self.size, zeros])[take]
            self.local = np.concatenate([self.local, zeros])[take]
        pos = np.searchsorted(self.labels, labels)
        np.add.at(self.sigma_tot, pos, d_sigma)
        np.add.at(self.size, pos, d_size)
        np.add.at(self.local, pos, d_local)

    def as_dicts(self) -> tuple[dict[int, float], dict[int, int]]:
        """``(sigma_tot, csize)`` dict mirrors, for the Gauss-Seidel
        sweep's per-pass loader; one C-level pass, values identical to the
        columns."""
        return (
            dict(zip(self.labels.tolist(), self.sigma_tot.tolist())),
            dict(zip(self.labels.tolist(), self.size.tolist())),
        )


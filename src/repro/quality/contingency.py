"""Contingency-table machinery shared by all quality metrics."""

from __future__ import annotations

import numpy as np

from repro.core import native

__all__ = ["contingency_table", "pair_counts"]


def contingency_table(
    labels_a: np.ndarray, labels_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense contingency matrix between two labelings.

    Returns ``(table, sizes_a, sizes_b)`` where ``table[i, j]`` counts
    vertices in community ``i`` of ``a`` and ``j`` of ``b`` (labels are
    compacted internally, so arbitrary integers are fine).
    """
    a = np.asarray(labels_a, dtype=np.int64)
    b = np.asarray(labels_b, dtype=np.int64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("labelings must be 1-D arrays of equal length")
    if a.size == 0:
        return np.zeros((0, 0), dtype=np.int64), np.zeros(0, np.int64), np.zeros(0, np.int64)
    _, ai = native.unique_inverse(a)
    _, bi = native.unique_inverse(b)
    ka = int(ai.max()) + 1
    kb = int(bi.max()) + 1
    table = np.bincount(ai * kb + bi, minlength=ka * kb).reshape(ka, kb)
    return table, table.sum(axis=1), table.sum(axis=0)


def pair_counts(
    labels_a: np.ndarray, labels_b: np.ndarray
) -> tuple[float, float, float, float]:
    """Pairwise agreement counts ``(n11, n10, n01, n00)``.

    ``n11`` — pairs together in both partitions; ``n10`` — together in ``a``
    only; ``n01`` — together in ``b`` only; ``n00`` — separated in both.
    """
    table, sa, sb = contingency_table(labels_a, labels_b)
    n = float(sa.sum())
    if n < 2:
        return 0.0, 0.0, 0.0, 0.0

    def c2(x):
        x = x.astype(np.float64)
        return float((x * (x - 1) / 2.0).sum())

    pairs_both = c2(table.ravel())
    pairs_a = c2(sa)
    pairs_b = c2(sb)
    total = n * (n - 1) / 2.0
    n11 = pairs_both
    n10 = pairs_a - pairs_both
    n01 = pairs_b - pairs_both
    n00 = total - pairs_a - pairs_b + pairs_both
    return n11, n10, n01, n00

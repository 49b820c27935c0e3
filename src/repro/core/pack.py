"""Shared owner-bucketing pack kernel.

Every distributed phase in this codebase at some point splits a batch of
facts by the rank that owns them — community contributions by ``label % p``,
aggregate pull requests by community owner, merged coarse edges by their new
1D owner, ghost ids by vertex owner.  The idiomatic-but-slow form is

    payloads = [arr[owner == r] for r in range(size)]

which scans ``owner`` once *per rank*: O(n * p) work and ``p`` temporary
boolean masks per split site, at every one of the ~10 ``alltoall`` sites of
one clustering iteration.  :func:`pack_by_owner` replaces that pattern with
a single stable argsort pass: O(n log n) once, after which every per-rank
payload is a zero-copy slice of the sorted staging array.

Equivalence guarantee: because the sort is *stable*, the entries of bucket
``r`` appear in exactly the order the boolean mask would have produced, so
payload contents (and therefore the wire format, byte counts, and every
downstream float accumulation order) are bit-identical to the masked form.
The equivalence suite (``tests/core/test_pack.py``) pins this.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pack_by_owner", "pack_bounds"]


def pack_bounds(owner: np.ndarray, n_buckets: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable bucketing permutation and bucket boundaries.

    Returns ``(order, bounds)`` where ``order`` stably sorts by ``owner``
    and bucket ``r`` occupies ``order[bounds[r]:bounds[r + 1]]``.  Every
    owner must lie in ``[0, n_buckets)``: the sort key is then narrowed to
    ``uint8`` (up to 256 buckets) or ``uint16`` (up to 65536), which numpy
    sorts stably by radix sort, with the same permutation.
    """
    if n_buckets <= 1 << 8:
        key = owner.astype(np.uint8)
    elif n_buckets <= 1 << 16:
        key = owner.astype(np.uint16)
    else:
        key = owner
    order = np.argsort(key, kind="stable")
    counts = (
        np.bincount(owner, minlength=n_buckets)
        if owner.size
        else np.zeros(n_buckets, dtype=np.int64)
    )
    bounds = np.zeros(n_buckets + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    return order, bounds


def pack_by_owner(owner: np.ndarray, n_buckets: int, *arrays: np.ndarray) -> list:
    """Split parallel ``arrays`` into per-owner payloads in one pass.

    Parameters
    ----------
    owner:
        ``int`` array of bucket ids in ``[0, n_buckets)``, parallel to every
        array in ``arrays``.
    arrays:
        One or more arrays to split.  With a single array the result is a
        plain ``list[np.ndarray]`` (one payload per bucket); with several it
        is a ``list[tuple[np.ndarray, ...]]`` — exactly the payload shapes
        the ``alltoall`` sites ship.

    Within each bucket the original relative order is preserved (stable
    sort), so the payloads are bit-identical to the masked
    ``arr[owner == r]`` form they replace.
    """
    if not arrays:
        raise ValueError("pack_by_owner needs at least one array to split")
    order, bounds = pack_bounds(owner, n_buckets)
    staged = [np.take(arr, order, axis=0) for arr in arrays]
    if len(staged) == 1:
        s = staged[0]
        return [s[bounds[r] : bounds[r + 1]] for r in range(n_buckets)]
    return [
        tuple(s[bounds[r] : bounds[r + 1]] for s in staged)
        for r in range(n_buckets)
    ]

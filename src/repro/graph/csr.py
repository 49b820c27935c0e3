"""Symmetric CSR graph storage.

The :class:`CSRGraph` is the single graph type used by every algorithm in
this repository.  It is immutable after construction, which lets partitioners
and the distributed runtime share it freely between simulated ranks without
copies (the NumPy arrays are marked read-only).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["CSRGraph", "build_symmetric_csr"]


class CSRGraph:
    """An undirected, weighted graph in symmetric CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; the adjacency list of vertex
        ``u`` occupies ``indices[indptr[u]:indptr[u + 1]]``.
    indices:
        ``int64`` array of neighbour ids.  Every undirected edge ``{u, v}``
        with ``u != v`` must appear in both adjacency lists; a self-loop
        appears once.
    weights:
        ``float64`` array parallel to ``indices``.  The two directed copies
        of an undirected edge must carry the same weight.

    Notes
    -----
    Use :func:`build_symmetric_csr` or one of the ``from_*`` constructors
    rather than calling ``__init__`` with hand-rolled arrays; the constructor
    only performs cheap shape checks (full structural validation is in
    :meth:`validate`).
    """

    __slots__ = (
        "indptr",
        "indices",
        "weights",
        "_degrees",
        "_weighted_degrees",
        "_total_weight",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        if indptr.ndim != 1 or indices.ndim != 1 or weights.ndim != 1:
            raise ValueError("indptr, indices and weights must be 1-D arrays")
        if indptr.size == 0:
            raise ValueError("indptr must have at least one entry")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("indptr must start at 0 and end at len(indices)")
        if indices.size != weights.size:
            raise ValueError("indices and weights must have equal length")
        for arr in (indptr, indices, weights):
            arr.setflags(write=False)
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self._degrees: np.ndarray | None = None
        self._weighted_degrees: np.ndarray | None = None
        self._total_weight: float | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        n_vertices: int,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
    ) -> "CSRGraph":
        """Build a graph from an iterable of undirected edges.

        Each edge should be listed once (either orientation); parallel edges
        are merged by summing their weights.  ``weights`` defaults to 1.0 per
        edge.
        """
        edge_arr = np.asarray(
            edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64
        )
        if edge_arr.size == 0:
            edge_arr = edge_arr.reshape(0, 2)
        if edge_arr.ndim != 2 or edge_arr.shape[1] != 2:
            raise ValueError("edges must be an (m, 2) array-like")
        if weights is None:
            w = np.ones(edge_arr.shape[0], dtype=np.float64)
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (edge_arr.shape[0],):
                raise ValueError("weights must match the number of edges")
        return build_symmetric_csr(n_vertices, edge_arr[:, 0], edge_arr[:, 1], w)

    @classmethod
    def from_networkx(cls, g) -> "CSRGraph":
        """Build from a :class:`networkx.Graph` (test / example convenience).

        Vertices must be integers ``0 .. n-1``; edge attribute ``weight``
        defaults to 1.0.
        """
        n = g.number_of_nodes()
        src, dst, w = [], [], []
        for u, v, data in g.edges(data=True):
            src.append(u)
            dst.append(v)
            w.append(float(data.get("weight", 1.0)))
        return build_symmetric_csr(
            n,
            np.asarray(src, dtype=np.int64),
            np.asarray(dst, dtype=np.int64),
            np.asarray(w, dtype=np.float64),
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return self.indptr.size - 1

    @property
    def n_directed_entries(self) -> int:
        """Number of CSR entries (2x undirected edges + 1x self-loops)."""
        return self.indices.size

    @property
    def n_edges(self) -> int:
        """Number of undirected edges, counting each self-loop once."""
        n_loops = int(np.count_nonzero(self.indices == self._row_of_entries()))
        return (self.indices.size - n_loops) // 2 + n_loops

    def _row_of_entries(self) -> np.ndarray:
        """Row (source vertex) of every CSR entry."""
        return np.repeat(
            np.arange(self.n_vertices, dtype=np.int64), np.diff(self.indptr)
        )

    @property
    def degrees(self) -> np.ndarray:
        """Unweighted degree: adjacency-list length of each vertex."""
        if self._degrees is None:
            d = np.diff(self.indptr)
            d.setflags(write=False)
            self._degrees = d
        return self._degrees

    @property
    def weighted_degrees(self) -> np.ndarray:
        """Louvain weighted degree: ``sum_{v != u} w(u,v) + 2 w(u,u)``."""
        if self._weighted_degrees is None:
            wd = np.zeros(self.n_vertices, dtype=np.float64)
            np.add.at(wd, self._row_of_entries(), self.weights)
            # self-loops appear once in the CSR but count twice in the degree
            rows = self._row_of_entries()
            loop_mask = self.indices == rows
            np.add.at(wd, rows[loop_mask], self.weights[loop_mask])
            wd.setflags(write=False)
            self._weighted_degrees = wd
        return self._weighted_degrees

    @property
    def total_weight(self) -> float:
        """Total edge weight ``m`` (self-loops counted once)."""
        if self._total_weight is None:
            self._total_weight = float(self.weighted_degrees.sum()) / 2.0
        return self._total_weight

    @property
    def self_loop_weights(self) -> np.ndarray:
        """Per-vertex self-loop weight (0 where absent)."""
        out = np.zeros(self.n_vertices, dtype=np.float64)
        rows = self._row_of_entries()
        loop_mask = self.indices == rows
        np.add.at(out, rows[loop_mask], self.weights[loop_mask])
        return out

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def neighbors(self, u: int) -> np.ndarray:
        """Neighbour ids of ``u`` (read-only view)."""
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def neighbor_weights(self, u: int) -> np.ndarray:
        """Edge weights parallel to :meth:`neighbors` (read-only view)."""
        return self.weights[self.indptr[u] : self.indptr[u + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(np.any(self.neighbors(u) == v))

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``{u, v}``; 0.0 if absent."""
        nbrs = self.neighbors(u)
        mask = nbrs == v
        if not mask.any():
            return 0.0
        return float(self.neighbor_weights(u)[mask].sum())

    def iter_edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield each undirected edge once as ``(u, v, w)`` with ``u <= v``."""
        rows = self._row_of_entries()
        for u, v, w in zip(rows, self.indices, self.weights):
            if u <= v:
                yield int(u), int(v), float(w)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Undirected edge list as ``(src, dst, weight)`` with ``src <= dst``."""
        rows = self._row_of_entries()
        mask = rows <= self.indices
        return rows[mask], self.indices[mask].copy(), self.weights[mask].copy()

    # ------------------------------------------------------------------
    # Structural checks / equality
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise ``ValueError`` if the CSR is not a valid symmetric graph."""
        n = self.n_vertices
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= n
        ):
            raise ValueError("neighbour index out of range")
        # nan slips past ``< 0``, so finiteness is checked on its own
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("non-finite edge weight")
        if np.any(self.weights < 0):
            raise ValueError("negative edge weight")
        # symmetry: the multiset of (u, v, w) off-diagonal entries must equal
        # the multiset of (v, u, w) entries
        rows = self._row_of_entries()
        off = rows != self.indices
        fwd = np.stack([rows[off], self.indices[off]], axis=1)
        bwd = np.stack([self.indices[off], rows[off]], axis=1)
        fw = self.weights[off]
        order_f = np.lexsort((fw, fwd[:, 1], fwd[:, 0]))
        order_b = np.lexsort((fw, bwd[:, 1], bwd[:, 0]))
        if not (
            np.array_equal(fwd[order_f], bwd[order_b])
            and np.allclose(fw[order_f], fw[order_b])
        ):
            raise ValueError("CSR is not symmetric")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.allclose(self.weights, other.weights)
        )

    def __hash__(self) -> int:  # immutable, but cheap identity hash suffices
        return id(self)

    def __repr__(self) -> str:
        return (
            f"CSRGraph(n_vertices={self.n_vertices}, n_edges={self.n_edges}, "
            f"total_weight={self.total_weight:.6g})"
        )

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes + self.weights.nbytes


def build_symmetric_csr(
    n_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray | None = None,
) -> CSRGraph:
    """Build a :class:`CSRGraph` from one-directional edge arrays.

    Each undirected edge should appear once in ``(src, dst)`` (either
    orientation).  Parallel edges (including reversed duplicates) are merged
    by summing weights.  Self-loops are kept as single CSR entries.
    """
    if n_vertices < 0:
        raise ValueError("n_vertices must be non-negative")
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape or src.ndim != 1:
        raise ValueError("src and dst must be 1-D arrays of equal length")
    if weights is None:
        weights = np.ones(src.size, dtype=np.float64)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != src.shape:
            raise ValueError("weights must match edge arrays")
    if src.size and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n_vertices):
        raise ValueError("edge endpoint out of range")

    # Canonicalise: (min, max) so duplicates in either orientation merge.
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    # deferred: repro.core's __init__ pulls in modules that import this one
    from repro.core import native

    if native.available():
        return CSRGraph(*native.symmetric_csr(n_vertices, lo, hi, weights))
    return CSRGraph(*_symmetric_csr_numpy(n_vertices, lo, hi, weights))


def _symmetric_csr_numpy(
    n_vertices: int, lo: np.ndarray, hi: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The numpy reference (and fallback) of
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

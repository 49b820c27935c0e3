"""Edge-list IO.

The format is the plain whitespace-separated edge list used by SNAP and the
WebGraph-exported datasets the paper evaluates: one ``u v [w]`` triple per
line, ``#``-prefixed comment lines ignored.  Vertices are non-negative
integers; ids need not be contiguous (they are compacted on read unless
``n_vertices`` is given).  Weights must be finite and non-negative.
"""

from __future__ import annotations

import io
import math
from pathlib import Path

import numpy as np

from repro.graph.csr import CSRGraph, build_symmetric_csr

__all__ = ["read_edge_list", "write_edge_list"]


def read_edge_list(
    path: str | Path | io.TextIOBase,
    n_vertices: int | None = None,
    compact_ids: bool = True,
) -> CSRGraph:
    """Read an undirected edge list into a :class:`CSRGraph`.

    Parameters
    ----------
    path:
        File path or an open text stream.
    n_vertices:
        If given, vertex ids are used as-is and must lie in
        ``[0, n_vertices)``; otherwise the vertex count is inferred.
    compact_ids:
        When ``n_vertices`` is ``None`` and this is true, arbitrary ids are
        remapped to consecutive integers ordered by original id.
    """
    close = False
    if isinstance(path, (str, Path)):
        fh = open(path, "r", encoding="utf-8")
        close = True
    else:
        fh = path
    src: list[int] = []
    dst: list[int] = []
    wts: list[float] = []
    try:
        for lineno, line in enumerate(fh, start=1):
            s = line.strip()
            if not s or s.startswith(("#", "%")):
                continue
            parts = s.split()
            if len(parts) < 2:
                raise ValueError(f"line {lineno}: expected 'u v [w]', got {s!r}")
            src.append(int(parts[0]))
            dst.append(int(parts[1]))
            w = float(parts[2]) if len(parts) >= 3 else 1.0
            # modularity is undefined for these; nan would also slip past
            # every later ``< 0`` check
            if not (math.isfinite(w) and w >= 0):
                raise ValueError(
                    f"line {lineno}: edge weight must be finite and >= 0, "
                    f"got {parts[2]!r}"
                )
            wts.append(w)
    finally:
        if close:
            fh.close()

    s_arr = np.asarray(src, dtype=np.int64)
    d_arr = np.asarray(dst, dtype=np.int64)
    w_arr = np.asarray(wts, dtype=np.float64)
    if n_vertices is None:
        if compact_ids:
            uniq, inv = np.unique(np.concatenate([s_arr, d_arr]), return_inverse=True)
            s_arr = inv[: s_arr.size].astype(np.int64)
            d_arr = inv[s_arr.size :].astype(np.int64)
            n_vertices = int(uniq.size)
        else:
            n_vertices = int(max(s_arr.max(initial=-1), d_arr.max(initial=-1)) + 1)
    return build_symmetric_csr(n_vertices, s_arr, d_arr, w_arr)


def write_edge_list(
    graph: CSRGraph, path: str | Path | io.TextIOBase, write_weights: bool = True
) -> None:
    """Write each undirected edge once as ``u v [w]`` (``u <= v``)."""
    close = False
    if isinstance(path, (str, Path)):
        fh = open(path, "w", encoding="utf-8")
        close = True
    else:
        fh = path
    try:
        fh.write(f"# undirected graph: {graph.n_vertices} vertices, {graph.n_edges} edges\n")
        src, dst, w = graph.edge_arrays()
        if write_weights:
            for u, v, ww in zip(src, dst, w):
                fh.write(f"{u} {v} {ww:.10g}\n")
        else:
            for u, v in zip(src, dst):
                fh.write(f"{u} {v}\n")
    finally:
        if close:
            fh.close()

"""Modularity and modularity gain (paper Eqs. 2-4).

Conventions (identical to Blondel et al. and to
:func:`networkx.algorithms.community.modularity`):

* ``m`` — total edge weight, self-loops counted once;
* ``sigma_in(c)  = sum_{u, v in c} A_uv`` — internal weight with both
  directions counted and self-loops counted twice (``A_uu = 2 w_uu``);
* ``sigma_tot(c) = sum_{u in c} k_u`` — total weighted degree of members;
* ``Q = sum_c [ sigma_in(c) / 2m - (sigma_tot(c) / 2m)^2 ]``.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.core import native
from repro.graph.csr import CSRGraph

__all__ = [
    "modularity",
    "modularity_gain",
    "community_aggregates",
    "neighbor_community_weights",
]


def _community_sums(
    graph: CSRGraph, assignment: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(labels, sigma_in, sigma_tot)``: the sorted distinct labels and
    their two sums, each summed in CSR entry (vertex) order from 0.0."""
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (graph.n_vertices,):
        raise ValueError("assignment must have one label per vertex")
    labels, inverse = native.unique_inverse(assignment)
    k = labels.size

    rows = np.repeat(
        np.arange(graph.n_vertices, dtype=np.int64), np.diff(graph.indptr)
    )
    cols = graph.indices
    w = graph.weights
    internal = inverse[rows] == inverse[cols]
    loops = rows == cols
    # directed entries count both directions; double self-loop entries so
    # that sigma_in uses A_uu = 2 w_uu
    contrib = np.where(loops, 2.0 * w, w)
    in_arr = np.bincount(
        inverse[rows[internal]], weights=contrib[internal], minlength=k
    )
    tot_arr = np.bincount(inverse, weights=graph.weighted_degrees, minlength=k)
    return labels, in_arr, tot_arr


def community_aggregates(
    graph: CSRGraph, assignment: np.ndarray
) -> tuple[dict[int, float], dict[int, float]]:
    """Compute ``(sigma_in, sigma_tot)`` per community label.

    ``assignment[v]`` is the community label of vertex ``v`` (labels are
    arbitrary integers).
    """
    labels, in_arr, tot_arr = _community_sums(graph, assignment)
    labels = labels.tolist()
    return dict(zip(labels, in_arr.tolist())), dict(zip(labels, tot_arr.tolist()))


def modularity(
    graph: CSRGraph, assignment: np.ndarray, resolution: float = 1.0
) -> float:
    """Modularity ``Q`` of a flat community assignment (paper Eq. 2).

    ``resolution`` is the Reichardt–Bornholdt gamma multiplying the null
    model: values above 1 favour more, smaller communities; below 1 fewer,
    larger ones.  ``resolution=1`` is the paper's (standard) modularity.
    """
    m = graph.total_weight
    if m <= 0:
        return 0.0
    _, in_arr, tot_arr = _community_sums(graph, assignment)
    two_m = 2.0 * m
    # Python's float ** 2 (libm pow) and numpy's x * x round differently
    # about once in a thousand values, and the built-in sum adds in label
    # order (compensated from Python 3.12 on), so the squares and the sum
    # stay Python's: Q is the same to the last bit as the per-label
    # Python expression it replaces
    squares = np.fromiter(
        map(pow, (tot_arr / two_m).tolist(), repeat(2)), dtype=np.float64,
        count=tot_arr.size,
    )
    return float(sum((in_arr / two_m - resolution * squares).tolist()))


def modularity_gain(
    w_u_to_c: float,
    sigma_tot_c: float,
    w_u: float,
    m: float,
    resolution: float = 1.0,
) -> float:
    """Exact gain of moving isolated vertex ``u`` into community ``c``:

    ``delta Q = (1 / m) * (w_{u->c} - sigma_tot(c) * w(u) / 2m)``

    ``sigma_tot_c`` must *exclude* ``u`` itself.

    Note on the paper's Eq. 4: the paper (following Blondel et al.'s
    well-known formulation) writes ``delta Q = (1/2m)(w_{u->c} -
    sigma_tot * w(u) / m)``, which under-counts the new internal links —
    joining ``c`` raises ``sigma_in(c)`` by ``2 w_{u->c}`` (both directed
    entries), not ``w_{u->c}``.  The version here is the exact difference
    ``Q(after) - Q(before)`` (property-tested against Eq. 2), and it is the
    quantity all Louvain passes in this package maximise; the two formulas
    can rank candidate communities differently, and only the exact one
    keeps the distributed algorithm consistent with sequential Louvain.
    """
    if m <= 0:
        return 0.0
    return (w_u_to_c - resolution * sigma_tot_c * w_u / (2.0 * m)) / m


def neighbor_community_weights(
    graph: CSRGraph, assignment: np.ndarray, u: int
) -> dict[int, float]:
    """``w_{u->c}`` for every community adjacent to ``u`` (self-loops are
    excluded: a self-loop is not a link to another member)."""
    nbrs = graph.neighbors(u)
    wts = graph.neighbor_weights(u)
    out: dict[int, float] = {}
    for v, w in zip(nbrs.tolist(), wts.tolist()):
        if v == u:
            continue
        c = int(assignment[v])
        out[c] = out.get(c, 0.0) + w
    return out

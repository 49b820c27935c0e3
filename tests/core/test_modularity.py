"""Tests for modularity (Eqs. 2-4) — validated against networkx."""

import networkx as nx
import numpy as np
import pytest

from repro.core.modularity import (
    community_aggregates,
    modularity,
    modularity_gain,
    neighbor_community_weights,
)
from repro.graph.csr import CSRGraph


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_assignments_on_karate(self, karate, seed):
        nxg = nx.karate_club_graph()
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 5, karate.n_vertices)
        comms = [
            set(np.flatnonzero(a == c).tolist())
            for c in range(5)
            if np.any(a == c)
        ]
        assert np.isclose(
            modularity(karate, a),
            nx.community.modularity(nxg, comms, weight=None),
        )

    def test_weighted_graph(self):
        nxg = nx.Graph()
        nxg.add_weighted_edges_from(
            [(0, 1, 2.0), (1, 2, 0.5), (2, 3, 4.0), (3, 0, 1.0)]
        )
        g = CSRGraph.from_networkx(nxg)
        a = np.array([0, 0, 1, 1])
        expected = nx.community.modularity(
            nxg, [{0, 1}, {2, 3}], weight="weight"
        )
        assert np.isclose(modularity(g, a), expected)

    def test_self_loops(self):
        nxg = nx.Graph()
        nxg.add_edges_from([(0, 1), (1, 2), (2, 0), (3, 4)])
        nxg.add_edge(1, 1, weight=2.0)
        nxg.add_edge(3, 3)
        g = CSRGraph.from_networkx(nxg)
        a = np.array([0, 0, 0, 1, 1])
        expected = nx.community.modularity(nxg, [{0, 1, 2}, {3, 4}])
        assert np.isclose(modularity(g, a), expected)


class TestKnownValues:
    def test_all_singletons(self, triangles):
        # Q = -sum (k_i / 2m)^2 for singletons on a loopless graph
        q = modularity(triangles, np.arange(6))
        wdeg = triangles.weighted_degrees
        expected = -np.sum((wdeg / (2 * triangles.total_weight)) ** 2)
        assert np.isclose(q, expected)

    def test_one_community_is_zero(self, karate):
        assert np.isclose(modularity(karate, np.zeros(34, dtype=np.int64)), 0.0)

    def test_two_triangles_optimal(self, triangles):
        q = modularity(triangles, np.array([0, 0, 0, 1, 1, 1]))
        # m = 7; sigma_in = 6 each; sigma_tot = 7 each
        expected = 2 * (6 / 14 - (7 / 14) ** 2)
        assert np.isclose(q, expected)

    def test_empty_graph(self):
        g = CSRGraph.from_edges(3, [])
        assert modularity(g, np.zeros(3, dtype=np.int64)) == 0.0

    def test_bounds(self, karate, web_graph):
        rng = np.random.default_rng(0)
        for g in (karate, web_graph):
            for k in (1, 2, 10):
                a = rng.integers(0, k, g.n_vertices)
                q = modularity(g, a)
                assert -0.5 <= q <= 1.0


class TestAggregates:
    def test_sigma_tot_sums_to_2m(self, karate):
        a = np.arange(34) % 3
        _, sigma_tot = community_aggregates(karate, a)
        assert np.isclose(sum(sigma_tot.values()), 2 * karate.total_weight)

    def test_sigma_in_all_edges_internal(self, karate):
        sigma_in, _ = community_aggregates(karate, np.zeros(34, dtype=np.int64))
        assert np.isclose(sigma_in[0], 2 * karate.total_weight)

    def test_bad_shape_rejected(self, karate):
        with pytest.raises(ValueError):
            community_aggregates(karate, np.zeros(3, dtype=np.int64))


class TestModularityGain:
    def test_gain_matches_q_difference(self, karate):
        """Eq. 4 must equal the actual Q difference of the move."""
        m = karate.total_weight
        a = (np.arange(34) % 4).astype(np.int64)
        for u in (0, 5, 33):
            # isolate u
            iso = a.copy()
            iso[u] = 99
            q_iso = modularity(karate, iso)
            for c in range(4):
                moved = iso.copy()
                moved[u] = c
                _, sigma_tot = community_aggregates(karate, iso)
                w_uc = neighbor_community_weights(karate, iso, u).get(c, 0.0)
                gain = modularity_gain(
                    w_uc, sigma_tot.get(c, 0.0), karate.weighted_degrees[u], m
                )
                actual = modularity(karate, moved) - q_iso
                assert np.isclose(gain, actual, atol=1e-12), (u, c)

    def test_zero_m(self):
        assert modularity_gain(1.0, 1.0, 1.0, 0.0) == 0.0


class TestNeighborCommunityWeights:
    def test_self_loop_excluded(self):
        g = CSRGraph.from_edges(3, [(0, 0), (0, 1), (0, 2)], weights=[5.0, 1.0, 2.0])
        a = np.array([0, 1, 1])
        w = neighbor_community_weights(g, a, 0)
        assert w == {1: 3.0}

    def test_aggregation(self, karate):
        a = np.zeros(34, dtype=np.int64)
        w = neighbor_community_weights(karate, a, 0)
        assert w == {0: float(karate.degrees[0])}


def _dict_modularity(graph, assignment, resolution=1.0):
    """The per-label dict form of Eq. 2 that ``modularity`` replaced:
    ``np.unique`` + ``np.add.at`` sums, then a generator sum in label
    order.  ``modularity`` must give the same bits."""
    m = graph.total_weight
    if m <= 0:
        return 0.0, {}, {}
    labels, inverse = np.unique(np.asarray(assignment, dtype=np.int64),
                                return_inverse=True)
    rows = np.repeat(np.arange(graph.n_vertices), np.diff(graph.indptr))
    internal = inverse[rows] == inverse[graph.indices]
    contrib = np.where(rows == graph.indices, 2.0 * graph.weights, graph.weights)
    in_arr = np.zeros(labels.size)
    np.add.at(in_arr, inverse[rows[internal]], contrib[internal])
    tot_arr = np.zeros(labels.size)
    np.add.at(tot_arr, inverse, graph.weighted_degrees)
    sigma_in = {int(c): float(v) for c, v in zip(labels, in_arr)}
    sigma_tot = {int(c): float(v) for c, v in zip(labels, tot_arr)}
    two_m = 2.0 * m
    q = float(sum(
        sigma_in[c] / two_m - resolution * (sigma_tot[c] / two_m) ** 2
        for c in sigma_tot
    ))
    return q, sigma_in, sigma_tot


def _float_web_graph():
    from repro.graph.csr import build_symmetric_csr
    from repro.graph.generators import copying_web_graph

    g = copying_web_graph(400, seed=3)
    src, dst, _w = g.edge_arrays()
    w = np.random.default_rng(5).uniform(0.01, 3.0, src.size)
    return build_symmetric_csr(g.n_vertices, src, dst, w)


class TestExactAgainstDictForm:
    """``modularity`` and ``community_aggregates`` keep the bits of the
    dict-based code they replaced, on both kernel paths."""

    @pytest.mark.parametrize("force_numpy", [False, True], ids=["auto", "numpy"])
    @pytest.mark.parametrize("resolution", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("graph_name", ["karate", "web_float"])
    def test_bitwise(self, karate, graph_name, resolution, force_numpy):
        from unittest import mock

        from repro.core import native

        graph = karate if graph_name == "karate" else _float_web_graph()
        rng = np.random.default_rng(11)
        assignments = [
            np.arange(graph.n_vertices),
            rng.integers(0, 7, graph.n_vertices) * 1_000_003 - 50,
            rng.integers(0, graph.n_vertices // 3, graph.n_vertices),
        ]
        patch = (
            mock.patch.object(native, "available", lambda: False)
            if force_numpy
            else mock.patch.object(native, "available", native.available)
        )
        with patch:
            for a in assignments:
                q_ref, in_ref, tot_ref = _dict_modularity(graph, a, resolution)
                assert repr(modularity(graph, a, resolution)) == repr(q_ref)
                sigma_in, sigma_tot = community_aggregates(graph, a)
                assert list(sigma_in.items()) == list(in_ref.items())
                assert list(sigma_tot.items()) == list(tot_ref.items())

    def test_squares_round_like_python_pow(self, karate):
        """On these weights ``x * x`` in place of Python's ``x ** 2``
        shifts Q by a few ulps, so the bits pin the squaring too."""
        from repro.graph.csr import build_symmetric_csr

        src, dst, _w = karate.edge_arrays()
        w = np.random.default_rng(226).uniform(0.01, 3.0, src.size)
        graph = build_symmetric_csr(karate.n_vertices, src, dst, w)
        a = np.arange(graph.n_vertices) % 3
        q_ref, _in, _tot = _dict_modularity(graph, a)
        assert repr(modularity(graph, a)) == repr(q_ref) == "0.013344596136638236"

    def test_zero_vertex_graph(self):
        g = CSRGraph.from_edges(0, [])
        empty = np.zeros(0, dtype=np.int64)
        assert modularity(g, empty) == 0.0
        assert community_aggregates(g, empty) == ({}, {})

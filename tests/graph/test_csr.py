"""Unit tests for the CSR graph core."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph, build_symmetric_csr


class TestConstruction:
    def test_from_edges_basic(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2)])
        assert g.n_vertices == 3
        assert g.n_edges == 2
        assert g.n_directed_entries == 4

    def test_from_edges_merges_duplicates(self):
        g = CSRGraph.from_edges(2, [(0, 1), (1, 0), (0, 1)])
        assert g.n_edges == 1
        assert g.edge_weight(0, 1) == 3.0

    def test_from_edges_with_weights(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2)], weights=[2.0, 0.5])
        assert g.edge_weight(0, 1) == 2.0
        assert g.edge_weight(1, 2) == 0.5
        assert g.edge_weight(0, 2) == 0.0

    def test_empty_graph(self):
        g = CSRGraph.from_edges(4, [])
        assert g.n_vertices == 4
        assert g.n_edges == 0
        assert g.total_weight == 0.0
        g.validate()

    def test_zero_vertex_graph(self):
        g = build_symmetric_csr(0, np.zeros(0, np.int64), np.zeros(0, np.int64))
        assert g.n_vertices == 0
        g.validate()

    def test_self_loop_stored_once(self):
        g = CSRGraph.from_edges(2, [(0, 0), (0, 1)])
        assert g.n_edges == 2
        assert list(g.neighbors(0)) == [0, 1]

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(2, [(0, 2)])
        with pytest.raises(ValueError):
            CSRGraph.from_edges(2, [(-1, 0)])

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(2, np.zeros((3, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            CSRGraph.from_edges(2, [(0, 1)], weights=[1.0, 2.0])

    def test_indptr_consistency_enforced(self):
        with pytest.raises(ValueError):
            CSRGraph(
                np.array([0, 2]), np.array([1]), np.array([1.0])
            )

    def test_arrays_are_readonly(self):
        g = CSRGraph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            g.indices[0] = 0
        with pytest.raises(ValueError):
            g.weights[0] = 5.0


class TestDegrees:
    def test_degrees_karate(self, karate):
        assert karate.degrees[0] == 16
        assert karate.degrees[33] == 17
        assert karate.degrees.sum() == 2 * karate.n_edges

    def test_weighted_degree_unweighted_graph(self, karate):
        assert np.array_equal(karate.weighted_degrees, karate.degrees.astype(float))

    def test_weighted_degree_counts_self_loop_twice(self):
        g = CSRGraph.from_edges(2, [(0, 0), (0, 1)], weights=[3.0, 1.0])
        assert g.weighted_degrees[0] == 2 * 3.0 + 1.0
        assert g.weighted_degrees[1] == 1.0

    def test_total_weight_with_self_loops(self):
        g = CSRGraph.from_edges(2, [(0, 0), (0, 1)], weights=[3.0, 1.0])
        assert g.total_weight == 4.0

    def test_self_loop_weights_accessor(self):
        g = CSRGraph.from_edges(3, [(0, 0), (1, 2)], weights=[2.5, 1.0])
        assert list(g.self_loop_weights) == [2.5, 0.0, 0.0]


class TestAccessors:
    def test_neighbors_sorted(self, karate):
        for u in range(karate.n_vertices):
            nbrs = karate.neighbors(u)
            assert np.all(np.diff(nbrs) >= 0)

    def test_has_edge_symmetric(self, karate):
        for u, v in [(0, 1), (32, 33), (0, 31)]:
            assert karate.has_edge(u, v)
            assert karate.has_edge(v, u)
        assert not karate.has_edge(0, 33)

    def test_iter_edges_each_once(self, karate):
        edges = list(karate.iter_edges())
        assert len(edges) == karate.n_edges
        assert all(u <= v for u, v, _ in edges)

    def test_edge_arrays_roundtrip(self, karate):
        src, dst, w = karate.edge_arrays()
        g2 = build_symmetric_csr(karate.n_vertices, src, dst, w)
        assert g2 == karate

    def test_repr(self, karate):
        assert "n_vertices=34" in repr(karate)
        assert "n_edges=78" in repr(karate)

    def test_nbytes_positive(self, karate):
        assert karate.nbytes() > 0


class TestValidate:
    def test_valid_graph_passes(self, karate, web_graph, ba_graph):
        karate.validate()
        web_graph.validate()
        ba_graph.validate()

    def test_asymmetric_graph_rejected(self):
        # one-directional entry only
        g = CSRGraph(
            np.array([0, 1, 1]), np.array([1]), np.array([1.0])
        )
        with pytest.raises(ValueError, match="symmetric"):
            g.validate()

    def test_negative_weight_rejected(self):
        g = CSRGraph(
            np.array([0, 1, 2]), np.array([1, 0]), np.array([-1.0, -1.0])
        )
        with pytest.raises(ValueError, match="negative"):
            g.validate()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, bad):
        g = CSRGraph(np.array([0, 1, 2]), np.array([1, 0]), np.array([bad, bad]))
        with pytest.raises(ValueError, match="non-finite"):
            g.validate()

    def test_out_of_range_index_rejected(self):
        g = CSRGraph(np.array([0, 1]), np.array([5]), np.array([1.0]))
        with pytest.raises(ValueError, match="range"):
            g.validate()


class TestEquality:
    def test_equal_graphs(self):
        a = CSRGraph.from_edges(3, [(0, 1), (1, 2)])
        b = CSRGraph.from_edges(3, [(1, 2), (0, 1)])
        assert a == b

    def test_unequal_weights(self):
        a = CSRGraph.from_edges(2, [(0, 1)], weights=[1.0])
        b = CSRGraph.from_edges(2, [(0, 1)], weights=[2.0])
        assert a != b

    def test_not_a_graph(self):
        a = CSRGraph.from_edges(2, [(0, 1)])
        assert a != "graph"

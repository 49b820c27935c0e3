"""Tests for edge-list IO."""

import io

import pytest

from repro.graph.io import read_edge_list, write_edge_list


class TestRead:
    def test_basic(self):
        g = read_edge_list(io.StringIO("0 1\n1 2\n"))
        assert g.n_vertices == 3
        assert g.n_edges == 2

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\n% matrix-market style\n0 1\n"
        g = read_edge_list(io.StringIO(text))
        assert g.n_edges == 1

    def test_weights_parsed(self):
        g = read_edge_list(io.StringIO("0 1 2.5\n"))
        assert g.edge_weight(0, 1) == 2.5

    def test_compact_ids(self):
        g = read_edge_list(io.StringIO("100 200\n200 300\n"))
        assert g.n_vertices == 3

    def test_no_compact_ids(self):
        g = read_edge_list(io.StringIO("0 4\n"), compact_ids=False)
        assert g.n_vertices == 5

    def test_explicit_n_vertices(self):
        g = read_edge_list(io.StringIO("0 1\n"), n_vertices=10)
        assert g.n_vertices == 10

    def test_malformed_line_raises(self):
        with pytest.raises(ValueError, match="line 1"):
            read_edge_list(io.StringIO("0\n"))

    @pytest.mark.parametrize("weight", ["nan", "-5", "inf", "-inf"])
    def test_bad_weight_rejected_with_line_number(self, weight):
        text = f"# header\n0 1 2.0\n1 2 {weight}\n"
        with pytest.raises(ValueError, match="line 3: edge weight"):
            read_edge_list(io.StringIO(text))

    def test_zero_weight_accepted(self):
        g = read_edge_list(io.StringIO("0 1 0\n1 2\n"))
        assert g.edge_weight(0, 1) == 0.0


class TestRoundtrip:
    def test_weighted_roundtrip(self, karate, tmp_path):
        path = tmp_path / "karate.txt"
        write_edge_list(karate, path)
        g2 = read_edge_list(path, n_vertices=34)
        assert g2 == karate

    def test_unweighted_roundtrip(self, web_graph, tmp_path):
        path = tmp_path / "web.txt"
        write_edge_list(web_graph, path, write_weights=False)
        g2 = read_edge_list(path, n_vertices=web_graph.n_vertices)
        assert g2 == web_graph

    def test_stream_roundtrip(self, triangles):
        buf = io.StringIO()
        write_edge_list(triangles, buf)
        buf.seek(0)
        g2 = read_edge_list(buf, n_vertices=6)
        assert g2 == triangles

    def test_self_loops_roundtrip(self, tmp_path):
        from repro.graph.csr import CSRGraph

        g = CSRGraph.from_edges(3, [(0, 0), (0, 1)], weights=[2.0, 1.0])
        path = tmp_path / "loops.txt"
        write_edge_list(g, path)
        g2 = read_edge_list(path, n_vertices=3)
        assert g2 == g

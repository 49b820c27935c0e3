"""End-to-end tests for the distributed Louvain algorithm (Algorithm 1)."""

import numpy as np
import pytest

from repro.core import (
    DistributedConfig,
    distributed_louvain,
    modularity,
    sequential_louvain,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators import ring_of_cliques


CFG = DistributedConfig(d_high=40)


class TestSelfConsistency:
    """The algorithm's own Q must equal independent recomputation — this
    exercises every protocol: delegates, ghosts, aggregates, merging."""

    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_q_matches_assignment_karate(self, karate, p):
        res = distributed_louvain(karate, p, CFG)
        assert np.isclose(res.modularity, modularity(karate, res.assignment))

    @pytest.mark.parametrize("p", [2, 4])
    def test_q_matches_assignment_web(self, web_graph, p):
        res = distributed_louvain(web_graph, p, CFG)
        assert np.isclose(res.modularity, modularity(web_graph, res.assignment))

    @pytest.mark.parametrize("heuristic", ["greedy", "minlabel", "enhanced"])
    def test_q_matches_for_all_heuristics(self, web_graph, heuristic):
        cfg = DistributedConfig(d_high=40, heuristic=heuristic, max_inner=30)
        res = distributed_louvain(web_graph, 4, cfg)
        assert np.isclose(res.modularity, modularity(web_graph, res.assignment))

    def test_assignment_complete_and_dense_labels(self, web_graph):
        res = distributed_louvain(web_graph, 4, CFG)
        assert res.assignment.shape == (web_graph.n_vertices,)
        assert res.assignment.min() >= 0
        assert res.n_communities >= 1


class TestQuality:
    def test_near_sequential_on_lfr(self, lfr_small):
        seq = sequential_louvain(lfr_small.graph)
        res = distributed_louvain(lfr_small.graph, 4, CFG)
        assert res.modularity > seq.modularity - 0.05

    def test_ring_of_cliques_recovered(self):
        g = ring_of_cliques(8, 5)
        res = distributed_louvain(g, 4, CFG)
        from repro.graph.ops import relabel_communities

        expected = np.repeat(np.arange(8), 5)
        assert np.array_equal(
            relabel_communities(res.assignment), relabel_communities(expected)
        )

    def test_ground_truth_recovered_on_lfr(self, lfr_small):
        from repro.quality import normalized_mutual_information

        res = distributed_louvain(lfr_small.graph, 4, CFG)
        nmi = normalized_mutual_information(res.assignment, lfr_small.ground_truth)
        assert nmi > 0.8

    def test_enhanced_at_least_as_good_as_greedy(self, web_graph):
        enh = distributed_louvain(
            web_graph, 8, DistributedConfig(d_high=40, heuristic="enhanced")
        )
        grd = distributed_louvain(
            web_graph, 8, DistributedConfig(d_high=40, heuristic="greedy", max_inner=25)
        )
        assert enh.modularity >= grd.modularity - 0.02


class TestDeterminism:
    def test_repeated_runs_identical(self, web_graph):
        a = distributed_louvain(web_graph, 4, CFG)
        b = distributed_louvain(web_graph, 4, CFG)
        assert np.array_equal(a.assignment, b.assignment)
        assert a.modularity == b.modularity
        assert a.modularity_per_level == b.modularity_per_level


class TestConfig:
    def test_partitioning_1d(self, web_graph):
        res = distributed_louvain(
            web_graph, 4, DistributedConfig(partitioning="1d")
        )
        assert res.partition.kind == "1d"
        assert np.isclose(res.modularity, modularity(web_graph, res.assignment))

    def test_unknown_partitioning(self, karate):
        with pytest.raises(ValueError):
            distributed_louvain(karate, 2, DistributedConfig(partitioning="2d"))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("heuristic", "enhance"),
            ("partitioning", "2d"),
            ("sweep_mode", "vectorised"),
            ("ghost_mode", "zip"),
            ("backend", "proces"),
            ("max_inner", 0),
            ("max_inner", -3),
            ("timeout", 0.0),
            ("timeout", -1.0),
            ("timeout", float("nan")),
            ("timeout", float("inf")),
            ("stall_patience", 0),
            ("max_levels", 0),
            ("theta", -1.0),
            ("theta", float("nan")),
            ("theta", float("inf")),
            ("resolution", float("nan")),
            ("resolution", float("inf")),
            ("min_q_gain", float("nan")),
            ("min_q_gain", float("-inf")),
            ("checkpoint_every_level", -2),
        ],
    )
    def test_bad_choice_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            DistributedConfig(**{field: value})

    def test_sync_mode_is_gone(self):
        with pytest.raises(TypeError):
            DistributedConfig(sync_mode="delta")

    def test_agg_mode_is_gone(self):
        with pytest.raises(TypeError):
            DistributedConfig(agg_mode="dense")

    def test_default_config_used_when_none(self, karate):
        res = distributed_louvain(karate, 2)
        assert res.modularity > 0

    def test_level_reports_populated(self, web_graph):
        res = distributed_louvain(web_graph, 4, CFG)
        assert res.n_levels == len(res.levels)
        assert res.levels[0].with_delegates == (
            res.partition.hub_global_ids.size > 0
        )
        for r in res.levels:
            assert r.n_iterations == len(r.q_history) == len(r.moves_history)

    def test_stats_and_timings_populated(self, web_graph):
        res = distributed_louvain(web_graph, 4, CFG)
        assert res.stats.size == 4
        assert res.wall_time > 0
        assert res.partition_time > 0
        assert res.stats.compute_per_rank().sum() > 0


class TestEdgeCases:
    def test_empty_graph(self):
        g = CSRGraph.from_edges(4, [])
        res = distributed_louvain(g, 2, CFG)
        assert res.assignment.shape == (4,)
        assert res.modularity == 0.0

    def test_single_edge(self):
        g = CSRGraph.from_edges(2, [(0, 1)])
        res = distributed_louvain(g, 2, CFG)
        assert res.assignment[0] == res.assignment[1]

    def test_disconnected_graph(self):
        g = CSRGraph.from_edges(8, [(0, 1), (1, 2), (4, 5), (5, 6)])
        res = distributed_louvain(g, 3, CFG)
        assert res.assignment[0] == res.assignment[2]
        assert res.assignment[4] == res.assignment[6]
        assert res.assignment[0] != res.assignment[4]

    def test_more_ranks_than_vertices(self):
        from repro.graph.generators import path_graph

        res = distributed_louvain(path_graph(4), 8, CFG)
        assert np.isclose(
            res.modularity, modularity(path_graph(4), res.assignment)
        )

    def test_weighted_graph(self):
        g = CSRGraph.from_edges(
            4, [(0, 1), (1, 2), (2, 3), (3, 0)], weights=[10.0, 0.1, 10.0, 0.1]
        )
        res = distributed_louvain(g, 2, CFG)
        assert res.assignment[0] == res.assignment[1]
        assert res.assignment[2] == res.assignment[3]

    def test_self_loop_graph(self):
        g = CSRGraph.from_edges(4, [(0, 0), (0, 1), (2, 3)], weights=[2.0, 1.0, 1.0])
        res = distributed_louvain(g, 2, CFG)
        assert np.isclose(res.modularity, modularity(g, res.assignment))

    def test_star_graph_with_delegated_hub(self):
        from repro.graph.generators import star_graph

        g = star_graph(32)
        res = distributed_louvain(g, 4, DistributedConfig(d_high=8))
        assert res.partition.hub_global_ids.size == 1
        assert np.isclose(res.modularity, modularity(g, res.assignment))


class TestModularityPerLevel:
    """A level rejected by min_q_gain is discarded (never merged), so it
    must not leak into modularity_per_level — whose last entry must equal
    the Q of the assignment actually returned (refine=False)."""

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_last_entry_equals_result_modularity(self, web_graph, p):
        res = distributed_louvain(web_graph, p, CFG)
        assert res.modularity_per_level[-1] == pytest.approx(res.modularity)

    def test_last_entry_equals_result_modularity_lfr(self, lfr_small):
        res = distributed_louvain(lfr_small.graph, 4, CFG)
        assert res.modularity_per_level[-1] == pytest.approx(res.modularity)

    def test_discarded_levels_flagged_and_excluded(self, web_graph):
        res = distributed_louvain(web_graph, 4, CFG)
        kept = [
            r for r in res.levels if r.q_history and not r.discarded
        ]
        assert len(res.modularity_per_level) == len(kept)
        for r in res.levels:
            if r.discarded:
                # a discarded level is always the last report of the run
                assert r.level == res.levels[-1].level

    def test_vectorized_mode_agrees(self, web_graph):
        cfg = DistributedConfig(d_high=40, sweep_mode="vectorized")
        res = distributed_louvain(web_graph, 4, cfg)
        assert res.modularity_per_level[-1] == pytest.approx(res.modularity)

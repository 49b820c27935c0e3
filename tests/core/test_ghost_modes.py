"""Tests for the ghost label exchange modes (full vs delta)."""

import numpy as np
import pytest

from repro.core import DistributedConfig, distributed_louvain
from repro.core.modularity import modularity
from repro.graph.generators import lfr_graph


class TestGhostDelta:
    def test_ghost_delta_bit_identical(self, web_graph):
        """Delta ghost exchange is pure compression: results must be
        EXACTLY the full protocol's."""
        a = distributed_louvain(web_graph, 4, DistributedConfig(d_high=40))
        b = distributed_louvain(
            web_graph, 4, DistributedConfig(d_high=40, ghost_mode="delta")
        )
        assert np.array_equal(a.assignment, b.assignment)
        assert a.modularity == b.modularity

    def test_ghost_delta_reduces_traffic(self):
        bench = lfr_graph(800, mu=0.15, seed=23)
        a = distributed_louvain(bench.graph, 8, DistributedConfig(d_high=64))
        b = distributed_louvain(
            bench.graph, 8, DistributedConfig(d_high=64, ghost_mode="delta")
        )
        assert (
            b.stats.bytes_sent_per_rank().sum()
            < a.stats.bytes_sent_per_rank().sum()
        )

    def test_ghost_delta_with_hubs(self, web_graph):
        res = distributed_louvain(
            web_graph, 4, DistributedConfig(d_high=20, ghost_mode="delta")
        )
        assert res.partition.hub_global_ids.size > 0
        assert np.isclose(res.modularity, modularity(web_graph, res.assignment))

    def test_invalid_ghost_mode_rejected(self, karate):
        from repro.core.heuristics import get_heuristic
        from repro.core.local_clustering import LocalClustering
        from repro.partition import oned_partition
        from repro.runtime import SPMDError, run_spmd

        part = oned_partition(karate, 1)

        def worker(comm):
            LocalClustering(
                comm, part.locals[0], get_heuristic("enhanced"), ghost_mode="zip"
            )

        with pytest.raises(SPMDError):
            run_spmd(1, worker, timeout=5)

"""Tests for the Lu et al. shared-memory parallel Louvain baseline."""

from unittest import mock

import numpy as np
import pytest

from repro.core import native
from repro.core.modularity import modularity
from repro.core.shared_memory import shared_memory_louvain
from repro.core import sequential_louvain
from repro.graph.csr import CSRGraph
from repro.graph.generators import lfr_graph, ring_of_cliques
from tests.core.test_sweep_equivalence import _float_weighted


class TestSharedMemoryLouvain:
    def test_self_consistent_q(self, karate):
        res = shared_memory_louvain(karate)
        assert np.isclose(res.modularity, modularity(karate, res.assignment))

    def test_quality_near_sequential(self, karate):
        seq = sequential_louvain(karate)
        res = shared_memory_louvain(karate)
        assert res.modularity > seq.modularity - 0.05

    def test_ring_of_cliques_exact(self):
        from repro.graph.ops import relabel_communities

        g = ring_of_cliques(6, 5)
        res = shared_memory_louvain(g)
        expected = np.repeat(np.arange(6), 5)
        assert np.array_equal(
            relabel_communities(res.assignment), relabel_communities(expected)
        )

    def test_lfr_recovery(self, lfr_small):
        from repro.quality import normalized_mutual_information

        res = shared_memory_louvain(lfr_small.graph)
        assert (
            normalized_mutual_information(res.assignment, lfr_small.ground_truth)
            > 0.8
        )

    def test_thread_count_only_scales_time(self, karate):
        a = shared_memory_louvain(karate, n_threads=1)
        b = shared_memory_louvain(karate, n_threads=8)
        assert np.array_equal(a.assignment, b.assignment)
        assert a.work_units == b.work_units
        assert np.isclose(a.simulated_time, 8 * b.simulated_time)

    def test_jacobi_bouncing_pair_gated(self):
        """The two-vertex swap case (Fig. 3) must converge thanks to the
        min-label gate — the scenario Lu et al. designed the rule for."""
        from repro.graph.csr import CSRGraph

        g = CSRGraph.from_edges(2, [(0, 1)])
        res = shared_memory_louvain(g)
        assert res.assignment[0] == res.assignment[1]

    def test_deterministic(self, web_graph):
        a = shared_memory_louvain(web_graph)
        b = shared_memory_louvain(web_graph)
        assert np.array_equal(a.assignment, b.assignment)

    def test_invalid_threads(self, karate):
        with pytest.raises(ValueError):
            shared_memory_louvain(karate, n_threads=0)

    def test_empty_graph(self):
        from repro.graph.csr import CSRGraph

        res = shared_memory_louvain(CSRGraph.from_edges(3, []))
        assert res.assignment.shape == (3,)

    def test_q_monotone_levels(self):
        bench = lfr_graph(400, mu=0.2, seed=9)
        res = shared_memory_louvain(bench.graph)
        qs = res.modularity_per_level
        assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))

    def test_work_units_match_loop(self, karate):
        """Every sweep scans each directed entry once (one level, so every
        sweep runs over the input graph)."""
        res = shared_memory_louvain(karate, max_levels=1)
        assert res.work_units == sum(res.sweeps_per_level) * karate.indices.size

    def test_invalid_mode_rejected(self, karate):
        """The sweep has one implementation, so there is no mode to pick."""
        with pytest.raises(TypeError):
            shared_memory_louvain(karate, sweep_mode="vectorized")

    @pytest.mark.parametrize("name", ["karate", "lfr_small", "web_graph", "empty"])
    def test_numpy_kernels_match_c(self, request, name):
        """The sweep's gain pass gives the same run on the numpy kernels as
        on the C ones, float weights and a vertex-free graph included."""
        if name == "empty":
            graph = CSRGraph.from_edges(0, [])
        elif name == "lfr_small":
            graph = request.getfixturevalue(name).graph
        elif name == "web_graph":
            graph = _float_weighted(request.getfixturevalue(name))
        else:
            graph = request.getfixturevalue(name)
        ref = shared_memory_louvain(graph)
        with mock.patch.object(native, "available", lambda: False):
            got = shared_memory_louvain(graph)
        assert np.array_equal(got.assignment, ref.assignment)
        assert repr(got.modularity) == repr(ref.modularity)
        assert [repr(q) for q in got.modularity_per_level] == [
            repr(q) for q in ref.modularity_per_level
        ]
        assert got.sweeps_per_level == ref.sweeps_per_level
        assert got.work_units == ref.work_units

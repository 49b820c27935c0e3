"""Tests for run-trace export/import."""

import json

import numpy as np
import pytest

from repro.runtime import run_spmd, simulate_time
from repro.runtime.trace import (
    load_stats,
    save_stats,
    stats_from_dict,
    stats_to_dict,
    summarize,
)


@pytest.fixture()
def sample_stats():
    def prog(comm):
        with comm.phase("work"):
            comm.add_compute(50 * (comm.rank + 1))
            comm.allreduce(comm.rank)
        comm.allgather(np.zeros(4))
        with comm.phase("pull"):
            comm.gather(b"xy", root=1)
        comm.barrier()

    return run_spmd(3, prog, timeout=10).stats


class TestRoundtrip:
    def test_dict_roundtrip_preserves_everything(self, sample_stats):
        restored = stats_from_dict(stats_to_dict(sample_stats))
        assert restored.size == sample_stats.size
        assert np.array_equal(
            restored.compute_per_rank(), sample_stats.compute_per_rank()
        )
        assert np.array_equal(
            restored.bytes_sent_per_rank(), sample_stats.bytes_sent_per_rank()
        )
        assert restored.n_supersteps() == sample_stats.n_supersteps()
        assert sorted(restored.phases()) == sorted(sample_stats.phases())

    def test_cost_model_identical_after_roundtrip(self, sample_stats):
        restored = stats_from_dict(stats_to_dict(sample_stats))
        assert simulate_time(restored).total == simulate_time(sample_stats).total

    def test_file_roundtrip(self, sample_stats, tmp_path):
        path = tmp_path / "trace.json"
        save_stats(sample_stats, path)
        restored = load_stats(path)
        assert restored.size == sample_stats.size
        # file must be plain JSON
        with open(path) as fh:
            data = json.load(fh)
        assert data["format_version"] == 2

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError, match="unsupported"):
            stats_from_dict({"format_version": 99, "ranks": []})


class TestV1Compat:
    def test_v1_file_still_loads(self, sample_stats, tmp_path):
        # a v1 document (no comm matrix, no spans) must load with empty
        # matrix/spans and identical counters
        doc = stats_to_dict(sample_stats)
        doc["format_version"] = 1
        del doc["spans"]
        for rd in doc["ranks"]:
            del rd["sent_to_by_phase"]
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(doc))
        restored = load_stats(path)
        assert restored.size == sample_stats.size
        assert np.array_equal(
            restored.bytes_sent_per_rank(), sample_stats.bytes_sent_per_rank()
        )
        assert restored.spans == []
        assert restored.comm_matrix()[0].sum() == 0


def _rank_strategy(rank: int):
    from hypothesis import strategies as st

    phase = st.sampled_from(["s1:find_best", "s1:other", "s2:merge", "io"])
    amount = st.floats(
        min_value=0, max_value=1e9, allow_nan=False, allow_infinity=False
    )
    return st.fixed_dictionaries(
        {
            "compute": st.dictionaries(phase, amount, max_size=4),
            "sent": st.dictionaries(phase, amount, max_size=4),
            "recv": st.dictionaries(phase, amount, max_size=4),
            "messages": st.dictionaries(
                phase, st.integers(0, 10_000), max_size=4
            ),
            "collectives": st.dictionaries(
                phase, st.integers(0, 1_000), max_size=4
            ),
            "edges": st.lists(
                st.tuples(
                    phase,
                    st.integers(0, 3),
                    amount,
                    st.integers(1, 100),
                ),
                max_size=8,
            ),
            "steps": st.lists(
                st.tuples(amount, amount, amount, st.integers(0, 100), phase),
                max_size=6,
            ),
        }
    )


class TestRoundtripProperty:
    """Property: serialisation is lossless for arbitrary v2 documents."""

    def test_roundtrip_preserves_every_counter(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.runtime.stats import RankStats, RunStats, SpanRecord, Superstep

        span = st.builds(
            SpanRecord,
            name=st.sampled_from(["level 0", "level 1", "s1:swap_ghost"]),
            rank=st.integers(0, 3),
            ts_us=st.floats(0, 1e12, allow_nan=False),
            dur_us=st.floats(0, 1e9, allow_nan=False),
            cat=st.sampled_from(["", "level", "phase"]),
            args=st.dictionaries(
                st.sampled_from(["q", "moves", "bytes"]),
                st.one_of(
                    st.integers(-100, 100),
                    st.floats(-1e6, 1e6, allow_nan=False),
                    st.lists(st.integers(0, 9), max_size=3),
                ),
                max_size=3,
            ),
        )

        @settings(max_examples=40, deadline=None)
        @given(
            ranks=st.lists(
                _rank_strategy(0), min_size=1, max_size=4
            ),
            spans=st.lists(span, max_size=5),
        )
        def check(ranks, spans):
            rs_list = []
            for i, rd in enumerate(ranks):
                rs = RankStats(rank=i)
                rs.compute_by_phase.update(rd["compute"])
                rs.bytes_sent_by_phase.update(rd["sent"])
                rs.bytes_recv_by_phase.update(rd["recv"])
                rs.messages_sent_by_phase.update(rd["messages"])
                rs.collectives_by_phase.update(rd["collectives"])
                for phase, dst, nbytes, msgs in rd["edges"]:
                    rs.add_edge(dst, nbytes, phase, messages=msgs)
                rs.supersteps = [
                    Superstep(
                        compute=c,
                        bytes_sent=bs,
                        bytes_recv=br,
                        messages=m,
                        phase=p,
                    )
                    for c, bs, br, m, p in rd["steps"]
                ]
                rs_list.append(rs)
            stats = RunStats(ranks=rs_list, spans=list(spans))

            restored = stats_from_dict(
                json.loads(json.dumps(stats_to_dict(stats)))
            )

            assert restored.size == stats.size
            for a, b in zip(restored.ranks, stats.ranks):
                assert a.compute_by_phase == b.compute_by_phase
                assert a.bytes_sent_by_phase == b.bytes_sent_by_phase
                assert a.bytes_recv_by_phase == b.bytes_recv_by_phase
                assert a.messages_sent_by_phase == b.messages_sent_by_phase
                assert a.collectives_by_phase == b.collectives_by_phase
                assert a.sent_to_by_phase == b.sent_to_by_phase
                assert a.supersteps == b.supersteps
            assert restored.spans == stats.spans
            assert restored.phases() == stats.phases()

        check()


class TestDiff:
    def test_identical_runs_no_regression(self, sample_stats):
        from repro.runtime.trace import diff_stats

        diff = diff_stats(sample_stats, sample_stats)
        assert not diff.has_regression
        assert all(r.base == r.cand for r in diff.rows)

    def test_inflated_traffic_regresses(self, sample_stats):
        from repro.runtime.trace import diff_stats, format_diff

        inflated = stats_from_dict(stats_to_dict(sample_stats))
        for r in inflated.ranks:
            for phase in list(r.bytes_sent_by_phase):
                r.bytes_sent_by_phase[phase] *= 2
        diff = diff_stats(sample_stats, inflated, threshold=0.05)
        assert diff.has_regression
        assert any(
            r.metric == "bytes_sent" and r.phase == "TOTAL"
            for r in diff.regressions
        )
        assert "REGRESSION" in format_diff(diff)

    def test_within_threshold_passes(self, sample_stats):
        from repro.runtime.trace import diff_stats

        nudged = stats_from_dict(stats_to_dict(sample_stats))
        for r in nudged.ranks:
            for phase in list(r.bytes_sent_by_phase):
                r.bytes_sent_by_phase[phase] *= 1.02
        assert not diff_stats(sample_stats, nudged, threshold=0.05).has_regression

    def test_decrease_never_regresses(self, sample_stats):
        from repro.runtime.trace import diff_stats

        shrunk = stats_from_dict(stats_to_dict(sample_stats))
        for r in shrunk.ranks:
            for phase in list(r.bytes_sent_by_phase):
                r.bytes_sent_by_phase[phase] *= 0.1
        assert not diff_stats(sample_stats, shrunk).has_regression

    def test_new_phase_flags_as_regression(self, sample_stats):
        from repro.runtime.trace import diff_stats

        grown = stats_from_dict(stats_to_dict(sample_stats))
        grown.ranks[0].bytes_sent_by_phase["brand_new"] = 1000.0
        diff = diff_stats(sample_stats, grown)
        new_rows = [r for r in diff.regressions if r.phase == "brand_new"]
        assert new_rows and new_rows[0].rel == float("inf")


class TestSummarize:
    def test_contains_key_fields(self, sample_stats):
        text = summarize(sample_stats)
        assert "ranks            : 3" in text
        assert "simulated time" in text
        assert "work" in text  # phase listed

    def test_summary_on_distributed_run(self, karate):
        from repro.core import DistributedConfig, distributed_louvain

        res = distributed_louvain(karate, 2, DistributedConfig(d_high=40))
        text = summarize(res.stats)
        assert "s1:find_best" in text
        assert "supersteps" in text

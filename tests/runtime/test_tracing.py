"""Tests for the span tracer and Chrome trace-event export."""

import json
import time

import numpy as np
import pytest

from repro.runtime import run_spmd
from repro.runtime.tracing import TraceRecorder, save_trace


class TestRankTracer:
    def test_complete_event_records_duration(self):
        rec = TraceRecorder()
        tr = rec.rank(0)
        t0 = tr.now()
        tr.complete("work", t0, cat="phase", args={"k": 1})
        spans = rec.span_records()
        assert len(spans) == 1
        assert spans[0].name == "work"
        assert spans[0].rank == 0
        assert spans[0].dur_us >= 0
        assert spans[0].args == {"k": 1}

    def test_instant_and_counter_not_in_span_records(self):
        rec = TraceRecorder()
        tr = rec.rank(1)
        tr.instant("tick")
        tr.counter("bytes", {"sent": 10})
        assert rec.span_records() == []
        assert rec.n_events == 2

    def test_span_records_sorted_by_time(self):
        rec = TraceRecorder()
        a, b = rec.rank(0), rec.rank(1)
        t0 = a.now()
        b.complete("late", b.now())
        a.complete("early", t0)
        names = [s.name for s in rec.span_records()]
        assert names == sorted(
            names, key=lambda n: [s.ts_us for s in rec.span_records() if s.name == n][0]
        )

    def test_category_filter(self):
        rec = TraceRecorder()
        tr = rec.rank(0)
        tr.complete("a", tr.now(), cat="level")
        tr.complete("b", tr.now(), cat="phase")
        assert [s.name for s in rec.span_records(cat="level")] == ["a"]


class TestSimCommIntegration:
    def test_phase_blocks_emit_spans(self):
        rec = TraceRecorder()

        def prog(c):
            with c.phase("work"):
                c.add_compute(5)
                c.allreduce(1)

        run_spmd(2, prog, timeout=5, tracer=rec)
        phase_spans = rec.span_records(cat="phase")
        assert {s.name for s in phase_spans} == {"work"}
        assert {s.rank for s in phase_spans} == {0, 1}

    def test_collective_spans_carry_bytes(self):
        rec = TraceRecorder()

        def prog(c):
            c.allreduce(np.zeros(8))

        run_spmd(2, prog, timeout=5, tracer=rec)
        colls = rec.span_records(cat="collective")
        assert {s.name for s in colls} == {"allreduce"}
        assert all(s.args["bytes_sent"] == 64 for s in colls)  # log2(2)*64B

    def test_stats_spans_attached_by_engine(self):
        rec = TraceRecorder()

        def prog(c):
            with c.phase("w"):
                c.barrier()

        res = run_spmd(2, prog, timeout=5, tracer=rec)
        assert res.stats.spans  # engine copied the recorder's spans
        assert any(s.cat == "phase" for s in res.stats.spans)

    def test_no_tracer_records_nothing(self):
        def prog(c):
            with c.phase("w"):
                c.allreduce(1)
            with c.trace_span("custom"):  # must be a no-op, not an error
                c.add_compute(1)
            c.trace_instant("tick")
            assert not c.tracing

        res = run_spmd(2, prog, timeout=5)
        assert res.stats.spans == []

    def test_collective_span_records_wait(self):
        rec = TraceRecorder()

        def prog(c):
            if c.rank == 0:
                time.sleep(0.1)  # the root waits for this late sender
            c.gather(b"abcd", root=1)

        run_spmd(2, prog, timeout=5, tracer=rec)
        (root,) = [s for s in rec.span_records(cat="collective") if s.rank == 1]
        assert root.name == "gather"
        assert root.args["bytes_recv"] == 4
        assert root.dur_us >= 50_000


class TestChromeExport:
    @pytest.fixture()
    def traced_run(self, tmp_path):
        rec = TraceRecorder()

        def prog(c):
            with c.phase("work"):
                c.add_compute(10 * (c.rank + 1))
                c.allreduce(np.zeros(4))
            c.scatter([b"xy"] * c.size if c.rank == 0 else None, root=0)
            c.barrier()

        res = run_spmd(3, prog, timeout=5, tracer=rec)
        path = tmp_path / "trace.json"
        save_trace(path, res.stats, recorder=rec, meta={"note": "test"})
        with open(path) as fh:
            return json.load(fh), res

    def test_top_level_structure(self, traced_run):
        doc, _res = traced_run
        assert isinstance(doc["traceEvents"], list)
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"] == {"note": "test"}
        # the counter document rides along for summarize/diff
        assert doc["repro"]["format_version"] == 2

    def test_metadata_names_every_rank(self, traced_run):
        doc, _res = traced_run
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        named = {
            e["tid"] for e in meta if e["name"] == "thread_name"
        }
        assert named == {0, 1, 2}

    def test_events_well_formed(self, traced_run):
        doc, _res = traced_run
        for e in doc["traceEvents"]:
            assert e["ph"] in ("X", "i", "C", "M")
            assert "name" in e and "pid" in e and "tid" in e
            if e["ph"] == "X":
                assert e["dur"] >= 0 and e["ts"] >= 0
            if e["ph"] == "i":
                assert e["s"] == "t"

    def test_json_is_perfetto_loadable_shape(self, traced_run):
        # Perfetto requires traceEvents to be serialisable and every ts/dur
        # to be numeric; it ignores unknown top-level keys like "repro"
        doc, _res = traced_run
        for e in doc["traceEvents"]:
            if "ts" in e:
                assert isinstance(e["ts"], (int, float))

    def test_loadable_by_trace_tools(self, traced_run, tmp_path):
        from repro.runtime.trace import load_stats, summarize

        doc, res = traced_run
        path = tmp_path / "again.json"
        path.write_text(json.dumps(doc))
        restored = load_stats(path)
        assert restored.size == res.stats.size
        assert np.array_equal(
            restored.bytes_sent_per_rank(), res.stats.bytes_sent_per_rank()
        )
        assert "tracer spans" in summarize(restored)


class TestDistributedTracing:
    """Acceptance: a traced 4-rank run yields level spans with convergence
    telemetry and a full 4x4 communication matrix."""

    @pytest.fixture(scope="class")
    def traced(self, request):
        from repro.core import DistributedConfig, distributed_louvain
        from repro.graph.generators import karate_club

        rec = TraceRecorder()
        res = distributed_louvain(
            karate_club(), 4, DistributedConfig(d_high=40), tracer=rec
        )
        return rec, res

    def test_level_spans_have_telemetry(self, traced):
        _rec, res = traced
        levels = [s for s in res.stats.spans if s.cat == "level"]
        assert levels  # at least one level per rank
        for s in levels:
            assert s.args["q_history"], "level span missing Q trajectory"
            assert len(s.args["moves_history"]) == s.args["n_iterations"]
            assert "ghost_churn" in s.args
            assert "delegate_bytes" in s.args
        # every rank traced every level
        assert {s.rank for s in levels} == {0, 1, 2, 3}

    def test_level_reports_carry_churn(self, traced):
        _rec, res = traced
        assert res.levels[0].ghost_churn  # tracer attached -> churn counted
        assert all(c >= 0 for c in res.levels[0].ghost_churn)

    def test_comm_matrix_full(self, traced):
        _rec, res = traced
        bytes_m, msgs_m = res.stats.comm_matrix()
        assert bytes_m.shape == (4, 4)
        assert np.allclose(bytes_m.sum(axis=1), res.stats.bytes_sent_per_rank())
        assert bytes_m.sum() > 0
        assert np.all(np.diag(bytes_m) == 0)

    def test_churn_not_counted_without_tracer(self):
        from repro.core import DistributedConfig, distributed_louvain
        from repro.graph.generators import karate_club

        res = distributed_louvain(karate_club(), 4, DistributedConfig(d_high=40))
        assert res.levels[0].ghost_churn == []

    def test_same_result_with_and_without_tracer(self, traced):
        from repro.core import DistributedConfig, distributed_louvain
        from repro.graph.generators import karate_club

        _rec, res = traced
        plain = distributed_louvain(karate_club(), 4, DistributedConfig(d_high=40))
        assert plain.modularity == res.modularity
        assert np.array_equal(plain.assignment, res.assignment)
        # accounting identical too: tracing must not perturb the cost model
        assert np.array_equal(
            plain.stats.bytes_sent_per_rank(), res.stats.bytes_sent_per_rank()
        )

"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.graph.io import read_edge_list, write_edge_list


@pytest.fixture()
def graph_file(tmp_path, karate):
    path = tmp_path / "karate.txt"
    write_edge_list(karate, path)
    return path


class TestGenerate:
    @pytest.mark.parametrize(
        "model,extra",
        [
            ("lfr", ["--n", "200", "--mu", "0.1"]),
            ("ba", ["--n", "200", "--degree", "3"]),
            ("rmat", ["--scale", "7"]),
            ("web", ["--n", "200", "--degree", "4"]),
            ("ring", ["--cliques", "4", "--clique-size", "4"]),
        ],
    )
    def test_generate_models(self, tmp_path, model, extra, capsys):
        out = tmp_path / f"{model}.txt"
        rc = main(["generate", model, "--output", str(out), *extra])
        assert rc == 0
        g = read_edge_list(out)
        assert g.n_edges > 0
        assert "wrote" in capsys.readouterr().out

    def test_generate_lfr_with_truth(self, tmp_path):
        out = tmp_path / "g.txt"
        truth = tmp_path / "truth.txt"
        rc = main(
            [
                "generate", "lfr", "--n", "200", "--output", str(out),
                "--truth-output", str(truth),
            ]
        )
        assert rc == 0
        labels = np.loadtxt(truth, dtype=np.int64)
        assert labels.shape == (200,)


class TestCluster:
    def test_distributed(self, graph_file, tmp_path, capsys):
        out = tmp_path / "comms.txt"
        rc = main(
            [
                "cluster", str(graph_file), "--ranks", "2",
                "--d-high", "40", "--output", str(out),
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "Q =" in text
        pairs = np.loadtxt(out, dtype=np.int64)
        assert pairs.shape == (34, 2)

    def test_sequential(self, graph_file, capsys):
        rc = main(["cluster", str(graph_file), "--sequential"])
        assert rc == 0
        assert "sequential Louvain" in capsys.readouterr().out

    def test_with_ground_truth(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        truth = tmp_path / "t.txt"
        main(
            [
                "generate", "lfr", "--n", "300", "--mu", "0.08",
                "--output", str(out), "--truth-output", str(truth),
            ]
        )
        rc = main(
            [
                "cluster", str(out), "--ranks", "2", "--d-high", "64",
                "--ground-truth", str(truth),
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "NMI" in text

    def test_truth_length_mismatch(self, graph_file, tmp_path):
        bad = tmp_path / "bad.txt"
        np.savetxt(bad, np.zeros(3), fmt="%d")
        rc = main(
            ["cluster", str(graph_file), "--ranks", "2", "--ground-truth", str(bad)]
        )
        assert rc == 2

    def test_agg_mode_flag_is_gone(self, graph_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "cluster", str(graph_file), "--ranks", "2",
                    "--agg-mode", "dense",
                ]
            )
        assert exc.value.code == 2
        assert "unrecognized arguments: --agg-mode" in capsys.readouterr().err

    def test_checksums_flag_is_gone(self, graph_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cluster", str(graph_file), "--ranks", "2", "--checksums"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --checksums" in capsys.readouterr().err

    def test_nan_resolution_friendly_error(self, tmp_path, capsys):
        # a 16-vertex ring used to report "Q = 0.0000, 16 communities"
        path = tmp_path / "ring.txt"
        path.write_text("".join(f"{i} {(i + 1) % 16}\n" for i in range(16)))
        rc = main(["cluster", str(path), "--ranks", "2", "--resolution", "nan"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "resolution must be finite" in err

    def test_negative_retry_budget_friendly_error(self, graph_file, capsys):
        rc = main(
            [
                "cluster", str(graph_file), "--ranks", "2", "--recover",
                "--max-retries", "-1",
            ]
        )
        assert rc == 2
        assert "max_retries must be >= 0" in capsys.readouterr().err

    def test_heuristic_and_partitioning_flags(self, graph_file, capsys):
        rc = main(
            [
                "cluster", str(graph_file), "--ranks", "2",
                "--heuristic", "minlabel", "--partitioning", "1d",
            ]
        )
        assert rc == 0
        assert "minlabel" in capsys.readouterr().out


class TestTraceAndSummary:
    def test_trace_written(self, graph_file, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        rc = main(
            [
                "cluster", str(graph_file), "--ranks", "2", "--d-high", "40",
                "--trace", str(trace),
            ]
        )
        assert rc == 0
        from repro.runtime.trace import load_stats

        stats = load_stats(trace)
        assert stats.size == 2

    def test_summary_printed(self, graph_file, capsys):
        rc = main(
            ["cluster", str(graph_file), "--ranks", "2", "--d-high", "40",
             "--summary"]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "simulated time" in text
        assert "communities      :" in text


class TestTraceOut:
    def test_trace_out_writes_chrome_trace(self, graph_file, tmp_path, capsys):
        import json

        trace = tmp_path / "run.json"
        rc = main(
            [
                "cluster", str(graph_file), "--ranks", "4", "--d-high", "40",
                "--trace-out", str(trace),
            ]
        )
        assert rc == 0
        with open(trace) as fh:
            doc = json.load(fh)
        assert doc["traceEvents"]  # Perfetto timeline
        assert doc["repro"]["format_version"] == 2
        assert doc["otherData"]["ranks"] == 4
        # level spans with convergence telemetry made it into the file
        level_events = [
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e.get("cat") == "level"
        ]
        assert level_events
        assert "q_history" in level_events[0]["args"]


class TestTraceVerbs:
    @pytest.fixture()
    def trace_pair(self, graph_file, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            rc = main(
                [
                    "cluster", str(graph_file), "--ranks", "2",
                    "--d-high", "40", "--trace-out", str(path),
                ]
            )
            assert rc == 0
        return a, b

    def test_summarize(self, trace_pair, capsys):
        a, _b = trace_pair
        capsys.readouterr()
        rc = main(["trace", "summarize", str(a)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "ranks            : 2" in text
        assert "comm matrix" in text
        assert "tracer spans" in text

    def test_diff_identical_exits_zero(self, trace_pair, capsys):
        a, b = trace_pair
        capsys.readouterr()
        rc = main(["trace", "diff", str(a), str(b)])
        assert rc == 0
        assert "no regressions" in capsys.readouterr().out

    def test_diff_traffic_inflation_exits_one(self, tmp_path, capsys):
        # ghost_mode=delta only ships changed labels, full reships all of
        # them every iteration: diffing delta (baseline) against full
        # (candidate) must flag the swap_ghost traffic and exit 1
        from repro.core import DistributedConfig, distributed_louvain
        from repro.graph.generators import lfr_graph
        from repro.runtime.trace import save_stats

        graph = lfr_graph(300, mu=0.1, seed=3).graph
        base, cand = tmp_path / "delta.json", tmp_path / "full.json"
        for path, mode in ((base, "delta"), (cand, "full")):
            res = distributed_louvain(
                graph, 4, DistributedConfig(d_high=32, ghost_mode=mode)
            )
            save_stats(res.stats, path)
        rc = main(["trace", "diff", str(base), str(cand), "--threshold", "0.05"])
        assert rc == 1
        text = capsys.readouterr().out
        assert "REGRESSION" in text
        assert "swap_ghost" in text

    def test_diff_threshold_flag(self, trace_pair, capsys):
        a, b = trace_pair
        rc = main(["trace", "diff", str(a), str(b), "--threshold", "0.5"])
        assert rc == 0

    def test_summarize_missing_file_friendly(self, capsys):
        rc = main(["trace", "summarize", "no-such-trace.json"])
        assert rc == 2
        assert "no such file" in capsys.readouterr().err


class TestQuality:
    def test_quality_command(self, tmp_path, capsys):
        import numpy as np

        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        np.savetxt(a, np.array([0, 0, 1, 1]), fmt="%d")
        np.savetxt(b, np.array([5, 5, 9, 9]), fmt="%d")
        rc = main(["quality", str(a), str(b)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "NMI        1.0000" in text
        assert "VI         0.0000" in text

    def test_quality_accepts_pair_format(self, tmp_path, capsys):
        import numpy as np

        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        # "vertex community" pairs, shuffled order
        np.savetxt(a, np.array([[1, 0], [0, 0], [2, 1]]), fmt="%d")
        np.savetxt(b, np.array([0, 0, 1]), fmt="%d")
        rc = main(["quality", str(a), str(b)])
        assert rc == 0
        assert "NMI        1.0000" in capsys.readouterr().out

    def test_quality_length_mismatch(self, tmp_path):
        import numpy as np

        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        np.savetxt(a, np.zeros(3), fmt="%d")
        np.savetxt(b, np.zeros(4), fmt="%d")
        assert main(["quality", str(a), str(b)]) == 2


class TestInfoAndReport:
    def test_info(self, graph_file, capsys):
        rc = main(["info", str(graph_file)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "vertices      : 34" in text
        assert "edges         : 78" in text

    def test_partition_report(self, graph_file, capsys):
        rc = main(["partition-report", str(graph_file), "--ranks", "2", "4"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "W 1D" in text
        assert "W delegate" in text

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_file_friendly_error(self, capsys):
        rc = main(["info", "/nonexistent/graph.txt"])
        assert rc == 2
        assert "no such file" in capsys.readouterr().err

    def test_malformed_graph_friendly_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1\n")
        rc = main(["info", str(bad)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

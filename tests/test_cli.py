"""The `python -m repro.experiments` entry point."""

import io
from contextlib import redirect_stdout

import pytest

from repro.experiments.__main__ import main


class TestCli:
    @pytest.mark.slow
    def test_quick_run_exits_zero(self):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(["--quick"])
        output = buffer.getvalue()
        assert code == 0
        assert "Table 1" in output
        assert "All" in output and "hold" in output
        # Every experiment family appears.
        for token in ("T1-R1", "T1-R5", "T1-R8-GAP", "K-LB", "EX1", "BC"):
            assert token in output

    @pytest.mark.slow
    def test_quick_run_with_trace_and_metrics(self, tmp_path):
        """--trace-out writes a replayable JSONL event stream and
        --metrics prints the aggregate registry; the replay tool must
        reconstruct every run exactly."""
        trace_path = tmp_path / "trace.jsonl"
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(
                ["--quick", "--trace-out", str(trace_path), "--metrics",
                 "--progress", "--profile"]
            )
        output = buffer.getvalue()
        assert code == 0
        assert trace_path.exists()
        assert "== Metrics ==" in output
        assert "== Phase timings ==" in output
        assert "[1/" in output  # progress lines
        import json

        metrics = json.loads(
            output.split("== Metrics ==")[1].split("== Phase timings ==")[0]
        )
        assert metrics["runs"] > 10
        assert metrics["faults"] > 0

        from repro.obs.replay import main as replay_main

        replay_buffer = io.StringIO()
        with redirect_stdout(replay_buffer):
            replay_code = replay_main([str(trace_path), "--check"])
        assert replay_code == 0
        assert "reconstruct exactly" in replay_buffer.getvalue()

    @pytest.mark.slow
    def test_chaos_campaign_ships_telemetry(self, tmp_path):
        """The telemetry-plane acceptance path, end to end through the
        CLI: a chaos-killed multi-process campaign still produces a
        merged trace that replays exactly and a merged metrics
        snapshot (--metrics-out)."""
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.json"
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(
                ["--quick", "--jobs", "2",
                 "--campaign", str(tmp_path / "m.jsonl"),
                 "--chaos-kill-every", "3", "--chaos-seed", "7",
                 "--trace-out", str(trace_path),
                 "--metrics-out", str(metrics_path)]
            )
        assert code == 0
        assert trace_path.exists()
        import json

        metrics = json.loads(metrics_path.read_text())
        assert metrics["runs"] > 10
        assert metrics["faults"] > 0
        assert metrics["campaign_worker_deaths"] >= 1
        assert metrics["campaign_trace_cells"] > 0

        from repro.obs.replay import main as replay_main

        replay_buffer = io.StringIO()
        with redirect_stdout(replay_buffer):
            replay_code = replay_main([str(trace_path), "--check"])
        assert replay_code == 0
        assert "reconstruct exactly" in replay_buffer.getvalue()

    def test_cells_run_in_process_with_profile(self):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(["--quick", "--cells", "grid1d", "--profile"])
        assert code == 0
        assert "table1.grid1d" in buffer.getvalue()

    @pytest.mark.slow
    def test_jobs_without_manifest_leaves_nothing_behind(
        self, tmp_path, monkeypatch
    ):
        """``--jobs N`` without ``--campaign`` is a campaign over a
        throwaway manifest: its merged trace replays exactly, and
        neither the manifest nor its ``.cells`` workdir survives."""
        import tempfile

        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        monkeypatch.chdir(tmp_path)
        trace_path = tmp_path / "trace.jsonl"
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(
                ["--quick", "--cells", "grid1d,example2", "--jobs", "2",
                 "--trace-out", str(trace_path)]
            )
        assert code == 0
        assert list(scratch.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "tmp", "trace.jsonl"
        ]

        from repro.obs.replay import main as replay_main

        replay_buffer = io.StringIO()
        with redirect_stdout(replay_buffer):
            replay_code = replay_main([str(trace_path), "--check"])
        assert replay_code == 0
        assert "reconstruct exactly" in replay_buffer.getvalue()

    def test_help_mentions_quick(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--quick" in out
        assert "--trace-out" in out
        assert "--metrics" in out


class TestResultsIo:
    def test_roundtrip(self, tmp_path):
        from repro.experiments import dump_results, load_results
        from repro.experiments.harness import CheckResult, ExperimentResult

        games = [
            ExperimentResult(
                "T1-R2",
                "demo game",
                params={"B": 64, "s": 1},
                sigma=63.8,
                steady_sigma=64.0,
                min_gap=64.0,
                faults=100,
                steps=6400,
                lower_bound=64.0,
                upper_bound=64.0,
                storage_blowup=1.0,
            )
        ]
        checks = [CheckResult("EX2", "demo check", expected=5.0, measured=5.0)]
        path = tmp_path / "results.json"
        dump_results(path, games, checks)
        loaded_games, loaded_checks = load_results(path)
        assert loaded_games[0].experiment == "T1-R2"
        assert loaded_games[0].sigma == 63.8
        assert loaded_games[0].holds
        assert loaded_games[0].params["B"] == 64
        assert loaded_checks[0].holds

    def test_rejects_unknown_schema(self, tmp_path):
        import json

        import pytest

        from repro.experiments import load_results

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 99, "games": [], "checks": []}))
        with pytest.raises(ValueError):
            load_results(path)

    def test_non_jsonable_params_stringified(self, tmp_path):
        from repro.experiments import dump_results, load_results
        from repro.experiments.harness import ExperimentResult

        games = [
            ExperimentResult(
                "X", "d", params={"shape": (3, 4)}, sigma=1.0, steady_sigma=1.0
            )
        ]
        path = tmp_path / "r.json"
        dump_results(path, games, [])
        loaded, _ = load_results(path)
        assert loaded[0].params["shape"] == "(3, 4)"

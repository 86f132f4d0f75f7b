"""CLI commands (run in-process through main())."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "grit" in output
        assert "gemm" in output
        assert "fig17" in output


class TestRun:
    def test_run_prints_summary(self, capsys):
        assert main(["run", "fir", "grit", "--scale", "0.05"]) == 0
        output = capsys.readouterr().out
        assert "total_cycles" in output
        assert "local_page_faults" in output

    def test_trace_and_metrics_export_an_observed_run(self, tmp_path):
        import json

        from repro.obs.trace_schema import validate_trace_file

        trace = tmp_path / "run.trace.json"
        metrics = tmp_path / "run.metrics.jsonl"
        argv = [
            "run", "fir", "grit", "--gpus", "8", "--topology", "nvswitch",
            "--contention", "queued", "--scale", "0.05",
            "--trace", str(trace), "--metrics", str(metrics),
        ]
        assert main(argv) == 0
        assert validate_trace_file(str(trace)) == []
        rows = [json.loads(line) for line in metrics.read_text().splitlines()]
        switch_waits = [
            row["value"]
            for row in rows
            if row["metric"] == "interconnect.switch.wait_cycles.total"
        ]
        # The flags reach the observed run: only a switched fabric
        # under queued contention makes switch ports wait.
        assert switch_waits[-1] == 12_698

    def test_run_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["run", "nope", "grit"])

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["run", "fir", "grit", "--topology", "mesh"],
             "unknown topology 'mesh'"),
            (["run", "fir", "grit", "--gpus", "0"],
             "need at least one GPU"),
            (["run", "fir", "grit", "--page-size", "3000"],
             "page size must be a positive power of two"),
            (["run", "fir", "grit", "--fault-batch", "0"],
             "fault_batch_size must be >= 1"),
            (["sweep", "--workloads", "fir", "--gpus", "0"],
             "need at least one GPU"),
            (["run", "fir", "grit", "--gpus", "0", "--trace", "out.json"],
             "need at least one GPU"),
            (["run", "fir", "grit", "--scale", "-1"],
             "scale must be a finite positive number, got -1.0"),
            (["run", "fir", "grit", "--scale", "nan"],
             "scale must be a finite positive number, got nan"),
            (["characterize", "fir", "--gpus", "0"],
             "need at least one GPU, got num_gpus=0"),
            (["dump-trace", "fir", "out.npz", "--gpus", "-2"],
             "need at least one GPU, got num_gpus=-2"),
        ],
        ids=["topology", "gpus", "page-size", "fault-batch", "sweep",
             "trace", "scale-negative", "scale-nan", "characterize-gpus",
             "dump-trace-gpus"],
    )
    def test_bad_config_exits_2_naming_it(
        self, argv, message, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == []


class TestFigure:
    def test_single_figure(self, capsys):
        assert main(["figure", "fig04", "--scale", "0.05"]) == 0
        output = capsys.readouterr().out
        assert "fig04" in output
        assert "private_pages" in output

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])


class TestCharacterize:
    def test_characterize_prints_fractions(self, capsys):
        assert main(["characterize", "gemm", "--scale", "0.05"]) == 0
        output = capsys.readouterr().out
        assert "shared_page_fraction" in output


class TestFigureFormats:
    def test_json_output(self, capsys):
        args = ["figure", "fig04", "--scale", "0.05"]
        assert main([*args, "--format", "json"]) == 0
        import json

        data = json.loads(capsys.readouterr().out)
        assert data["name"] == "fig04"
        assert "rows" in data

    def test_csv_output(self, capsys):
        args = ["figure", "fig04", "--scale", "0.05"]
        assert main([*args, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("row,")
        assert len(lines) > 2


class TestReport:
    def test_report_writes_markdown(self, tmp_path, capsys, monkeypatch):
        # Use a figure subset for speed by patching the registry copy
        # the CLI iterates — full-report generation is covered by the
        # benchmark harness.
        from repro.harness import reproduce

        output = tmp_path / "REPORT.md"
        text = reproduce.write_report(output, scale=0.05, figures=["fig09"])
        assert output.exists()
        assert "fig09" in text


class TestDumpTrace:
    def test_dump_and_reload(self, tmp_path, capsys):
        output = tmp_path / "fir.npz"
        assert (
            main(["dump-trace", "fir", str(output), "--scale", "0.05"]) == 0
        )
        assert output.exists()
        from repro.workloads.trace_io import load_trace

        assert load_trace(output).name == "fir"


class TestSweep:
    def test_sweep_prints_matrix(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--workloads",
                    "fir,st",
                    "--policies",
                    "grit",
                    "--scale",
                    "0.05",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "fir" in output and "st" in output
        assert "grit" in output and "on_touch" in output

    def test_sweep_metric_faults(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--workloads",
                    "fir",
                    "--policies",
                    "on_touch",
                    "--metric",
                    "faults",
                    "--scale",
                    "0.05",
                ]
            )
            == 0
        )
        assert "faults" in capsys.readouterr().out

    def test_summary_json_is_the_same_for_any_workers(self, tmp_path):
        import json

        paths = [tmp_path / "par.json", tmp_path / "seq.json"]
        for path, workers in zip(paths, ["2", "1"]):
            argv = [
                "sweep",
                "--workloads",
                "fir,st",
                "--policies",
                "on_touch,grit",
                "--scale",
                "0.05",
                "--workers",
                workers,
                "--summary-json",
                str(path),
            ]
            assert main(argv) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        summary = json.loads(paths[0].read_text())
        assert sorted(summary) == [
            "fir/grit", "fir/on_touch", "st/grit", "st/on_touch"
        ]
        assert set(summary["fir/grit"]) == {"total_cycles", "digest"}

    def test_unknown_workload_fails_before_simulating(
        self, capsys, monkeypatch
    ):
        from repro.harness.experiment import ExperimentRunner

        def no_simulation(self, key):
            raise AssertionError(f"simulated {key}")

        monkeypatch.setattr(ExperimentRunner, "run", no_simulation)
        assert main(["sweep", "--workloads", "fir,nope"]) != 0
        error = capsys.readouterr().err
        assert "'nope'" in error
        assert "choose from" in error and "fir" in error

    @pytest.mark.parametrize("command", ["sweep", "report"])
    def test_failed_pool_run_exits_1_naming_it(
        self, command, tmp_path, capsys, monkeypatch
    ):
        from repro.harness import orchestrator, reproduce
        from repro.harness.orchestrator import SweepError

        def fail(runner, keys, workers=None):
            raise SweepError("fir/grit: ValueError: boom")

        monkeypatch.setattr(orchestrator, "warm_runner_parallel", fail)
        monkeypatch.setattr(reproduce, "warm_runner_parallel", fail)
        report = tmp_path / "REPORT.md"
        argv = {
            "sweep": ["sweep", "--workloads", "fir", "--policies", "grit"],
            "report": ["report", "--output", str(report)],
        }[command]
        assert main([*argv, "--workers", "2", "--scale", "0.05"]) == 1
        assert "error: fir/grit: ValueError: boom" in capsys.readouterr().err
        assert not report.exists()


class TestInspect:
    ARGV = ["inspect", "fir", "grit", "--gpus", "2", "--scale", "0.05"]

    def test_ranking_then_lifecycle_of_the_top_page(self, capsys):
        assert main([*self.ARGV, "--limit", "3"]) == 0
        header, *rows, footer = capsys.readouterr().out.splitlines()
        assert header.startswith("busiest pages of fir/grit (")
        assert header.endswith(" events logged):")
        assert footer == "re-run with --vpn N for a page's full lifecycle"
        ranking = [
            (int(vpn), int(count))
            for _, vpn, count, _ in (row.split() for row in rows)
        ]
        assert len(ranking) == 3
        counts = [count for _, count in ranking]
        assert counts == sorted(counts, reverse=True)
        top, events = ranking[0]
        assert main([*self.ARGV, "--vpn", str(top)]) == 0
        lifecycle = capsys.readouterr().out.splitlines()
        assert lifecycle[0] == f"page {top}: {events} events"
        numbered = [line for line in lifecycle if line.startswith("  #")]
        assert len(numbered) == events

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_limit_below_one_exits_2_before_simulating(
        self, limit, capsys, monkeypatch
    ):
        from repro.sim.engine import Engine

        def no_simulation(self):
            raise AssertionError("simulated")

        monkeypatch.setattr(Engine, "run", no_simulation)
        assert main([*self.ARGV, "--limit", limit]) == 2
        assert capsys.readouterr().err == (
            "error: --limit must be at least 1\n"
        )


class TestLint:
    def test_clean_repo_exits_zero(self, capsys):
        assert main(["lint"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_violating_fixture_exits_nonzero(self, tmp_path, capsys):
        fixture = tmp_path / "fixture.py"
        fixture.write_text("def f(x=[]):\n    return x\n")
        assert main(["lint", str(fixture)]) == 1
        output = capsys.readouterr().out
        assert "GRIT-H001" in output
        assert "fixture.py:1" in output

    def test_json_format(self, tmp_path, capsys):
        import json

        fixture = tmp_path / "fixture.py"
        fixture.write_text("def f(x=[]):\n    return x\n")
        assert main(["lint", str(fixture), "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["errors"] >= 1
        assert data["findings"][0]["rule"] == "GRIT-H001"

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        output = capsys.readouterr().out
        assert "GRIT-D003" in output
        assert "GRIT-C001" in output

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

    def test_run_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["run", "nope", "grit"])


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
                "fir",
                "--policies",
                "grit",
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
        assert sorted(summary) == ["fir/grit", "fir/on_touch"]
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


class TestProfileJson:
    def test_json_export_parses(self, tmp_path, capsys):
        import json

        output = tmp_path / "profile.jsonl"
        assert (
            main(
                [
                    "profile",
                    "fir",
                    "on_touch",
                    "--gpus",
                    "2",
                    "--scale",
                    "0.05",
                    "--json",
                    str(output),
                ]
            )
            == 0
        )
        metrics = {
            row["metric"]
            for row in map(
                json.loads, output.read_text().splitlines()
            )
        }
        assert "profile.total" in metrics
        assert "profile.phase.replay" in metrics


class TestBench:
    def test_write_then_compare_passes_and_slowdown_fails(
        self, tmp_path, capsys
    ):
        import json

        baselines = tmp_path / "baselines"
        common = [
            "bench",
            "--cases",
            "fir-grit",
            "--scale",
            "0.05",
            "--repeats",
            "1",
        ]
        assert main([*common, "--output", str(baselines)]) == 0
        baseline_path = baselines / "BENCH_fir-grit.json"
        assert baseline_path.is_file()
        document = json.loads(baseline_path.read_text())
        assert document["counters"]["total_cycles"] > 0
        # A bit-identical rerun passes the gate (counters match
        # exactly; wall time is compared in counters-only mode to
        # stay deterministic under test-runner noise).
        assert (
            main(
                [
                    *common,
                    "--compare",
                    str(baselines),
                    "--counters-only",
                ]
            )
            == 0
        )
        capsys.readouterr()
        # An injected slowdown must trip the wall-time gate.
        assert (
            main(
                [
                    *common,
                    "--compare",
                    str(baselines),
                    "--inject-slowdown",
                    "30",
                ]
            )
            == 1
        )
        assert "regression [wall]" in capsys.readouterr().err

    def test_unknown_case_is_an_error(self, capsys):
        assert main(["bench", "--cases", "nope"]) == 2
        assert "unknown bench case" in capsys.readouterr().err


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

"""Perf-trajectory benchmarks: baselines and the regression gate."""

from pathlib import Path

import pytest

from repro.obs import bench
from repro.obs import catalog
from repro.obs.bench import (
    BenchCase,
    BenchError,
    compare_case,
    compare_suite,
    load_baseline,
    run_case,
    select_cases,
    write_baseline,
)

SCALE = 0.05
CASE = BenchCase("fir-grit", "fir", "grit")


@pytest.fixture(scope="module")
def measured():
    """One real measurement, shared across the module (runs once)."""
    return run_case(CASE, SCALE, repeats=2)


class TestRunCase:
    def test_counters_are_deterministic_across_repeats(self, measured):
        again = run_case(CASE, SCALE, repeats=1)
        assert again.counters == measured.counters
        assert measured.counters["total_cycles"] > 0
        assert measured.counters["accesses"] > 0

    def test_wall_samples_and_phases_recorded(self, measured):
        assert measured.repeats == 2
        assert all(seconds > 0 for seconds in measured.wall_seconds)
        assert set(measured.phase_seconds) == {
            "generate-trace",
            "build-engine",
            "replay",
            "summarize",
        }
        assert all(
            len(samples) == 2
            for samples in measured.phase_seconds.values()
        )

    def test_registry_counts_runs(self):
        registry = catalog.build_bench_registry()
        run_case(CASE, SCALE, repeats=1, registry=registry)
        assert registry.value(catalog.BENCH_RUNS) == 1

    def test_repeats_must_be_positive(self):
        with pytest.raises(BenchError):
            run_case(CASE, SCALE, repeats=0)


class TestBaselines:
    def test_write_and_load_round_trip(self, measured, tmp_path):
        path = write_baseline(str(tmp_path), measured)
        assert path.endswith("BENCH_fir-grit.json")
        baseline = load_baseline(path)
        assert baseline["counters"] == measured.counters
        assert baseline["scale"] == SCALE
        assert baseline["timings"]["wall_seconds"]["min"] == min(
            measured.wall_seconds
        )
        assert baseline["env"]["cpu_count"] >= 1

    def test_stale_schema_rejected(self, measured, tmp_path):
        import json

        path = write_baseline(str(tmp_path), measured)
        data = json.loads(open(path).read())
        data["schema_version"] = 0
        open(path, "w").write(json.dumps(data))
        with pytest.raises(BenchError, match="schema"):
            load_baseline(path)


class TestCompare:
    def test_identical_rerun_passes(self, measured, tmp_path):
        baseline = measured.to_baseline()
        assert compare_case(measured, baseline) == []

    def test_injected_slowdown_is_flagged(self, measured):
        baseline = measured.to_baseline()
        slow = bench.BenchResult(
            case=measured.case,
            scale=measured.scale,
            wall_seconds=[s + 10.0 for s in measured.wall_seconds],
            phase_seconds=measured.phase_seconds,
            counters=measured.counters,
        )
        findings = compare_case(slow, baseline, threshold=0.25)
        assert [f.kind for f in findings] == ["wall"]

    def test_counter_drift_always_fails(self, measured):
        baseline = measured.to_baseline()
        drifted = bench.BenchResult(
            case=measured.case,
            scale=measured.scale,
            wall_seconds=measured.wall_seconds,
            phase_seconds=measured.phase_seconds,
            counters={
                **measured.counters,
                "total_cycles": measured.counters["total_cycles"] + 1,
            },
        )
        findings = compare_case(drifted, baseline)
        assert [f.kind for f in findings] == ["counter"]
        # Even at an absurd threshold and in counters-only mode.
        findings = compare_case(
            drifted, baseline, threshold=1000.0, counters_only=True
        )
        assert [f.kind for f in findings] == ["counter"]

    def test_counters_only_ignores_wall_time(self, measured):
        baseline = measured.to_baseline()
        slow = bench.BenchResult(
            case=measured.case,
            scale=measured.scale,
            wall_seconds=[s + 10.0 for s in measured.wall_seconds],
            phase_seconds=measured.phase_seconds,
            counters=measured.counters,
        )
        assert compare_case(slow, baseline, counters_only=True) == []

    def test_threshold_boundary_is_exclusive(self, measured):
        baseline = measured.to_baseline()
        base_min = min(measured.wall_seconds)
        at_limit = bench.BenchResult(
            case=measured.case,
            scale=measured.scale,
            wall_seconds=[base_min * 1.25],
            phase_seconds=measured.phase_seconds,
            counters=measured.counters,
        )
        assert compare_case(at_limit, baseline, threshold=0.25) == []

    def test_scale_mismatch_is_a_hard_error(self, measured):
        baseline = measured.to_baseline()
        baseline["scale"] = SCALE * 2
        with pytest.raises(BenchError, match="scale"):
            compare_case(measured, baseline)

    def test_suite_notes_missing_baseline(self, measured, tmp_path):
        regressions, notes = compare_suite([measured], str(tmp_path))
        assert regressions == []
        assert len(notes) == 1
        assert "no baseline" in notes[0]

    def test_suite_counts_regressions_in_registry(
        self, measured, tmp_path
    ):
        write_baseline(str(tmp_path), measured)
        registry = catalog.build_bench_registry()
        slow = bench.BenchResult(
            case=measured.case,
            scale=measured.scale,
            wall_seconds=[s + 10.0 for s in measured.wall_seconds],
            phase_seconds=measured.phase_seconds,
            counters=measured.counters,
        )
        regressions, _ = compare_suite(
            [slow], str(tmp_path), registry=registry
        )
        assert len(regressions) == 1
        assert registry.value(catalog.BENCH_COMPARISONS) == 1
        assert registry.value(catalog.BENCH_REGRESSIONS) == 1


class TestSelection:
    def test_default_suite(self):
        cases = select_cases(None)
        assert [case.name for case in cases] == [
            "fir-on_touch",
            "fir-grit",
            "st-grit",
            "bfs-grit",
            "fir-grit-contended",
            "fir-grit-fastpath",
            "fir-grit-8gpu-nvswitch",
        ]

    def test_unknown_case_rejected(self):
        with pytest.raises(BenchError, match="unknown"):
            select_cases(["fir-grit", "nope"])

    def test_default_scale_reads_env(self, monkeypatch):
        monkeypatch.delenv(bench.SCALE_ENV_VAR, raising=False)
        assert bench.default_scale() == bench.DEFAULT_SCALE
        monkeypatch.setenv(bench.SCALE_ENV_VAR, "0.1")
        assert bench.default_scale() == 0.1
        monkeypatch.setenv(bench.SCALE_ENV_VAR, "banana")
        with pytest.raises(BenchError):
            bench.default_scale()


#: The committed seed baselines (read here, never rewritten).
COMMITTED_BASELINES = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"
)


class TestCommittedBaselines:
    """Every simulator mode the bench suite covers (queued contention,
    64 KiB pages, the 8-GPU switched fabric) stays on its committed
    counters."""

    @pytest.mark.parametrize(
        "case", bench.DEFAULT_CASES, ids=lambda case: case.name
    )
    def test_counters_match_committed_baseline(self, case):
        baseline = load_baseline(
            bench.baseline_path(str(COMMITTED_BASELINES), case.name)
        )
        measured = run_case(case, scale=baseline["scale"], repeats=1)
        assert measured.counters == baseline["counters"]

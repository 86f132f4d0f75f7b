"""Committed counter baselines and the counter check (repro bench)."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.obs import bench
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
    return run_case(CASE, SCALE)


class TestRunCase:
    def test_counters_are_deterministic_across_repeats(self, measured):
        again = run_case(CASE, SCALE)
        assert again.counters == measured.counters
        assert measured.counters["total_cycles"] > 0
        assert measured.counters["accesses"] > 0


class TestBaselines:
    def test_write_and_load_round_trip(self, measured, tmp_path):
        path = write_baseline(str(tmp_path), measured)
        assert path.endswith("BENCH_fir-grit.json")
        baseline = load_baseline(path)
        assert baseline["counters"] == measured.counters
        assert baseline["scale"] == SCALE
        assert baseline["topology"] == "all-to-all"
        assert baseline["fast_path"] is True

    def test_stale_schema_rejected(self, measured, tmp_path):
        path = write_baseline(str(tmp_path), measured)
        data = json.loads(open(path).read())
        data["schema_version"] = 0
        open(path, "w").write(json.dumps(data))
        with pytest.raises(BenchError, match="schema"):
            load_baseline(path)


class TestCompare:
    def test_identical_rerun_passes(self, measured):
        assert compare_case(measured, measured.to_baseline()) == []

    def test_counter_drift_always_fails(self, measured):
        baseline = measured.to_baseline()
        drifted = dataclasses.replace(
            measured,
            counters={
                **measured.counters,
                "total_cycles": measured.counters["total_cycles"] + 1,
            },
        )
        (message,) = compare_case(drifted, baseline)
        assert "total_cycles changed" in message

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

#: Each bench case as configured (its plain id), then with the fast
#: path off (a ``-no-fast-path`` id) against the same baseline.
COMMITTED_CASES = [
    *(pytest.param(case, id=case.name) for case in bench.DEFAULT_CASES),
    *(
        pytest.param(
            dataclasses.replace(case, fast_path=False),
            id=f"{case.name}-no-fast-path",
        )
        for case in bench.DEFAULT_CASES
    ),
]


class TestCommittedBaselines:
    """Every simulator mode the bench suite covers (queued contention,
    64 KiB pages, the 8-GPU switched fabric) stays on its committed
    counters, with the fast path on (each case's own setting) and off
    (every access through the full pipeline)."""

    @pytest.mark.parametrize("case", COMMITTED_CASES)
    def test_counters_match_committed_baseline(self, case):
        baseline = load_baseline(
            bench.baseline_path(str(COMMITTED_BASELINES), case.name)
        )
        measured = run_case(case, scale=baseline["scale"])
        assert measured.counters == baseline["counters"]

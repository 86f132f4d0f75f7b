"""Tests of the replay-throughput benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q``; the
tier-1 suite does not collect ``benchmarks/``.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from types import SimpleNamespace

import pytest

from repro.harness.experiment import PAPER_APPS, ExperimentRunner
from repro.harness.figures import run_figure

from benchmarks.perf import cli, ledger, runner
from benchmarks.perf.compare import compare, load_spec, verdict
from benchmarks.perf.suite import FIG17_SCALE, WORKLOADS, simulations


@pytest.fixture
def workdir(request):
    """A working directory under the (git-ignored) results directory."""
    path = cli.RESULTS_DIR / "tests" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_run_reports_every_declared_metric(workdir, capsys, trace):
    out = workdir / "quick.json"
    status = cli.main(["run", "--quick", "--trace", trace, "--out", str(out)])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    spec = load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert len(last["metrics"]) == len(declared) * len(WORKLOADS)
    document = json.loads(out.read_text())
    for workload, section in document["workloads"].items():
        assert section["failed_frac"] == 0
        found = section["layers"]["metrics"] if trace == "1" else section["metrics"]
        for metric in declared:
            entry = found[metric["name"]]
            assert entry["unit"] == metric["unit"], metric["name"]
            assert isinstance(entry["value"], (int, float))
            assert last["metrics"][f"{workload}/{metric['name']}"] == {
                "value": entry["value"], "unit": entry["unit"]
            }
        if trace == "1":
            assert (workdir / f"quick.{workload}.trace.json").exists()
    if trace == "1":
        layers = document["workloads"]["nvswitch-8gpu-queued"]["layers"]
        assert layers["metrics"]["sim.fastpath.calls"]["value"] == 0


def test_fig17_sweep_speedups_equal_the_figure():
    runs = runner.run_pass(simulations("fig17-sweep"), None)
    assert not [run.errors for run in runs if run.errors]
    measured = runner.fidelity(runs)["per_app"]
    figure = run_figure("fig17", ExperimentRunner(scale=FIG17_SCALE))
    assert measured == {app: figure.cell(app, "grit") for app in PAPER_APPS}


def test_environment_overrides_are_refused():
    runner.check_environment({})
    for name in runner.ENV_OVERRIDES:
        with pytest.raises(runner.OverrideError, match=name):
            runner.check_environment({name: "1"})


def test_counter_counts_calls_and_times_the_first_spans():
    counter = ledger.SpanCounter(span_cap=3)
    leaf = counter.wrap(lambda x: x > 1, "leaf", "sim.timing")
    results = [leaf(x) for x in range(5)]
    assert results == [False, False, True, True, True]
    assert counter.counts["sim.timing"] == [5, 3]
    assert [span[:2] for span in counter.spans] == [("leaf", "sim.timing")] * 3
    document = counter.chrome_trace({})
    assert not runner.validate_chrome_trace(document)


def _engine(run, lookup, submit, drain):
    """Just enough of an engine for the hooks of three layers."""
    return SimpleNamespace(
        run=run,
        fastpath=None,
        stage=SimpleNamespace(lookup=lookup, next_access=lookup),
        fault_service=SimpleNamespace(submit=submit, drain=drain),
        driver=None,
        policy=None,
        machine=None,
    )


def test_sampler_credits_the_innermost_hooked_frame():
    sampler = ledger.Sampler()

    def here():
        sampler.record(sys._getframe(1), 0.5)

    def lookup():
        here()

    def helper():  # not hooked: its time is its caller's
        here()

    def submit():
        helper()

    def drain():
        submit()

    def run():
        here()
        lookup()
        submit()
        drain()

    sampler.register(_engine(run, lookup, submit, drain))
    run()
    assert sampler.seconds == {
        ("sim.engine", ledger.ROOT): 0.5,
        ("sim.pipeline", "sim.engine"): 0.5,
        ("uvm.fault_service", "sim.engine"): 0.5,
        ("uvm.fault_service", "uvm.fault_service"): 0.5,
    }
    # submit and drain, called by the engine, are fault-path entries.
    assert sampler.fault_s == 1.0


def test_sampling_measures_the_sampled_block():
    sampler = ledger.Sampler()

    def run():
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass

    def idle():
        pass

    sampler.register(_engine(run, idle, idle, idle))
    with sampler.sampling():
        run()
        # One long call into C: no sample lands inside it, and its time
        # goes to this frame, not to the engine's.
        start = time.perf_counter()
        sum(range(3_000_000))
        in_c = time.perf_counter() - start
    assert 0.08 < sampler.self_s()["sim.engine"] < 0.12
    # in_c also holds the handler's own run just after the call.
    assert sampler.seconds[(ledger.ROOT, ledger.ROOT)] > in_c - 0.001


def test_coverage_outside_its_range_fails_the_run():
    def pairs(*ratios):
        return [(ratio, ratio, 1.0) for ratio in ratios]

    gate = runner.Gate({})
    runner.check_coverage(gate, "w", pairs(1.0, 1.02, 0.97, 1.05))
    # Bursts of interference move single pairs either way.
    runner.check_coverage(gate, "w", pairs(0.92, 0.98, 1.06, 1.25, 1.43, 1.1))
    assert gate.failed == 0
    runner.check_coverage(gate, "w", pairs(1.2, 1.25, 1.15, 1.3, 1.12))
    runner.check_coverage(gate, "w", pairs(0.8, 0.85, 0.82, 0.86))
    assert gate.failed == 2


@pytest.mark.parametrize(
    "base, new, better, expected",
    [
        # Clear win in every pair, beyond the base spread.
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
         [120, 121, 119, 120, 122, 118, 120, 121, 119, 120],
         "higher", "improved"),
        # Median 20 % worse than a 10 % bound.
        ([100] * 10, [80] * 10, "higher", "regressed"),
        ([1.0] * 10, [1.2] * 10, "lower", "regressed"),
        # Within the bound and no clear win.
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
         [99, 100, 101, 100, 98, 102, 100, 99, 101, 100],
         "higher", "no worse"),
        # Base runs spread wider than the bound.
        ([70, 130, 75, 125, 80, 120, 85, 115, 90, 110],
         [100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
         "higher", "unresolved"),
        # Wide base spread, but every new run beats every base run.
        ([70, 130, 75, 125, 80, 120, 85, 115, 90, 110],
         [200, 201, 199, 200, 202, 198, 200, 201, 199, 200],
         "higher", "improved"),
    ],
)
def test_compare_verdicts(base, new, better, expected):
    assert verdict(base, new, better, 0.10) == expected


def test_compare_floor_absorbs_small_absolute_changes():
    base = [0.030, 0.031, 0.029, 0.030, 0.030]
    slower = [0.045] * 5  # 50 % worse, but only 15 ms
    assert verdict(base, slower, "lower", 0.25) == "regressed"
    assert verdict(base, slower, "lower", 0.25, floor=0.020) == "no worse"
    assert verdict(base, [0.055] * 5, "lower", 0.25, floor=0.020) == "regressed"


def _result_file(path, value, failed=0):
    metrics = {
        metric["name"]: {"value": value, "unit": metric["unit"]}
        for metric in load_spec()["end_to_end"]
    }
    path.write_text(json.dumps({
        "workloads": {"paper-4k": {"metrics": metrics, "failed": failed}}
    }))
    return str(path)


def test_compare_exit_status(workdir, capsys):
    base = [_result_file(workdir / f"base{i}.json", 1.0) for i in range(3)]
    same = [_result_file(workdir / f"same{i}.json", 1.0) for i in range(3)]
    worse = [_result_file(workdir / f"worse{i}.json", 2.0) for i in range(3)]
    failing = [_result_file(workdir / "failing.json", 1.0, failed=1)]
    assert compare(base, same) == 0
    assert "no worse" in capsys.readouterr().out
    assert compare(base, worse) == 1
    assert "regressed" in capsys.readouterr().out
    assert compare(base, failing) == 1
    assert cli.main(["compare", *base]) == 2

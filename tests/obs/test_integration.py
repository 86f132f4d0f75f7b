"""End-to-end observability: determinism, schema, reconstruction."""

import json

import pytest

from repro.config import SystemConfig
from repro.constants import Scheme
from repro.obs import RunObservation
from repro.obs.catalog import SIM_ACCESSES
from repro.obs.inspect import scheme_transitions
from repro.obs.trace_schema import validate_chrome_trace
from repro.obs.tracer import write_chrome_trace
from repro.policies import make_policy
from repro.sim.engine import Engine
from repro.stats.events import EventKind
from repro.workloads import make_workload
from tests.conftest import build_trace


def ping_pong_trace():
    stream = [(0, True), (1, False)] * 8
    return build_trace([stream, stream], footprint_pages=16)


def observed_run(policy="grit", sample_interval=500):
    observation = RunObservation(sample_interval=sample_interval)
    engine = Engine(
        SystemConfig(num_gpus=2),
        ping_pong_trace(),
        make_policy(policy),
        observation=observation,
    )
    return engine.run(), observation


class TestDeterminism:
    def test_trace_bytes_identical_across_runs(self, tmp_path):
        paths = []
        for i in range(2):
            _, observation = observed_run()
            path = tmp_path / f"trace{i}.json"
            observation.write_trace(str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_metrics_identical_across_runs(self):
        _, first = observed_run()
        _, second = observed_run()
        assert first.registry.to_jsonl() == second.registry.to_jsonl()

    def test_disabled_observability_leaves_result_untouched(self):
        observed, _ = observed_run()
        bare = Engine(
            SystemConfig(num_gpus=2),
            ping_pong_trace(),
            make_policy("grit"),
        ).run()
        assert observed.total_cycles == bare.total_cycles
        # fastpath_runs/fastpath_accesses are wall-clock diagnostics,
        # not simulated behaviour: observation sampling boundaries cap
        # the fast path's batch horizons, so the same accesses group
        # into different run counts with observability on.
        observed_counters = {
            k: v
            for k, v in vars(observed.counters).items()
            if not k.startswith("fastpath")
        }
        bare_counters = {
            k: v
            for k, v in vars(bare.counters).items()
            if not k.startswith("fastpath")
        }
        assert observed_counters == bare_counters
        skipped = ("dropped_events", "fastpath_runs", "fastpath_accesses")
        observed_summary = {
            k: v
            for k, v in observed.summary().items()
            if k not in skipped
        }
        bare_summary = {
            k: v
            for k, v in bare.summary().items()
            if k not in skipped
        }
        assert observed_summary == bare_summary


class TestTraceOutput:
    def test_run_output_passes_schema_validation(self, tmp_path):
        _, observation = observed_run()
        doc = observation.chrome_trace(metadata={"workload": "manual"})
        assert validate_chrome_trace(doc) == []
        path = tmp_path / "out.json"
        write_chrome_trace(str(path), doc)
        assert validate_chrome_trace(json.loads(path.read_text())) == []

    def test_timestamps_are_simulated_cycles(self):
        result, observation = observed_run()
        doc = observation.chrome_trace()
        stamps = [
            e["ts"] + e.get("dur", 0)
            for e in doc["traceEvents"]
            if e["ph"] in ("X", "i", "C")
        ]
        assert stamps
        # Everything the machine did fits inside the simulated run.
        assert max(stamps) <= result.total_cycles
        run_spans = [
            e
            for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"] == "run"
        ]
        assert [s["dur"] for s in run_spans] == [result.total_cycles]

    def test_driver_hooks_produce_operation_spans(self):
        result, observation = observed_run()
        counts = observation.tracer.span_counts()
        assert counts["handle_local_fault"] == (
            result.counters.local_page_faults
        )
        assert counts.get("migration", 0) == result.counters.migrations

    def test_counter_samples_cover_the_run(self):
        result, observation = observed_run(sample_interval=500)
        times = sorted({ts for ts, _, _ in observation.registry.samples})
        assert times[-1] == result.total_cycles
        assert len(times) >= 2


class TestAccessSeries:
    @pytest.mark.parametrize(
        "fast", [True, False], ids=["fast-on", "fast-off"]
    )
    def test_sampled_accesses_follow_the_replay(self, fast):
        # The engine derives the access tallies from its stream cursors
        # before each sample; a sample that missed that step would read
        # 0 (or a stale total) mid-run.
        trace = make_workload("fir", num_gpus=4, scale=0.05)
        observation = RunObservation(sample_interval=20_000)
        Engine(
            SystemConfig(fast_path=fast),
            trace,
            make_policy("grit"),
            observation=observation,
        ).run()
        series = [
            value for _, value in observation.registry.series(SIM_ACCESSES)
        ]
        assert len(series) >= 3
        assert series == sorted(series)
        assert all(value > 0 for value in series[:-1])
        assert series[-2] < series[-1] == trace.total_accesses


class TestInspectionReconstruction:
    def test_scheme_transitions_match_event_log(self):
        _, observation = observed_run(policy="grit")
        log = observation.event_log
        changed = {
            e.vpn for e in log.filter(kind=EventKind.SCHEME_CHANGE)
        }
        assert changed, "GRIT should flip at least one page's scheme"
        for vpn in changed:
            expected = [
                Scheme(e.detail)
                for e in log.filter(
                    kind=EventKind.SCHEME_CHANGE, vpn=vpn
                )
            ]
            assert scheme_transitions(log, vpn) == expected


class TestConfigPlumbing:
    def test_default_is_off(self):
        engine = Engine(
            SystemConfig(num_gpus=2),
            ping_pong_trace(),
            make_policy("on_touch"),
        )
        assert engine.observation is None
        assert engine.machine.tracer is None

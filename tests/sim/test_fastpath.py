"""The steady-state fast path and the hot-loop scheduling fixes.

Three contracts live here:

* **interval realignment** — a clock jump past several policy
  boundaries fires ``on_interval`` once and the next boundary is the
  first one after ``now`` (the old ``next_interval += interval``
  stepped one boundary per loop iteration, so a jump produced a burst
  of catch-up ticks inside the same interval window);
* **heap scheduling** — the ``(clock, gpu_id)`` heap must preserve the
  old min-scan's order exactly: lowest clock first, ties broken by
  lowest GPU id, deterministically;
* **fast-path equivalence** — simulated results are bit-for-bit
  identical with the fast path on (fused steady accesses in both
  contention modes, batched rounds in flat mode) or off (the full
  pipeline, the reference), only the wall-clock-domain ``fastpath_*``
  diagnostics differ; the back-off keeps batched rounds rare where
  they do not pay, and on a steady-heavy workload the fast path is
  measurably faster.
"""

import json
import random
import time

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.interconnect.routing import TopologySpec
from repro.memsys.tlb import TLBHierarchy
from repro.policies import make_policy
from repro.policies.on_touch import OnTouchPolicy
from repro.sim.engine import Engine, simulate
from repro.sim.fastpath import FastPath
from repro.sim.pipeline import TranslationStage
from repro.stats.events import EventLog
from repro.workloads.base import WorkloadTrace
from repro.workloads.registry import make_workload


class TickRecordingPolicy(OnTouchPolicy):
    """On-touch with a short interval hook that records its ticks."""

    def __init__(self, interval_cycles: int) -> None:
        super().__init__()
        self.interval_cycles = interval_cycles
        self.ticks = []

    def on_interval(self, now: int) -> None:
        self.ticks.append(now)


class TestIntervalRealignment:
    """Boundary catch-up: skipped intervals coalesce into one tick."""

    INTERVAL = 1_000

    def _ticks(self):
        policy = TickRecordingPolicy(self.INTERVAL)
        trace = make_workload("bfs", num_gpus=2, scale=0.05)
        simulate(SystemConfig(num_gpus=2), trace, policy)
        return policy.ticks

    def test_each_tick_lands_in_a_later_window(self):
        # The regression: with `next_interval += interval`, a fault
        # that jumps the clock past k boundaries leaves next_interval
        # k intervals behind `now`, so the k following accesses each
        # fire a catch-up tick inside the *same* interval window.
        # Realignment guarantees consecutive ticks occupy strictly
        # increasing windows.
        ticks = self._ticks()
        assert len(ticks) >= 2, "workload too small to cross intervals"
        windows = [now // self.INTERVAL for now in ticks]
        assert windows == sorted(set(windows)), (
            "policy interval ticks piled up inside one interval "
            "window — next_interval drifted instead of realigning"
        )

    def test_clock_jumps_actually_skip_windows(self):
        # Sanity that the scenario exercises coalescing at all: fault
        # service must jump the clock past more than one boundary
        # somewhere, or the previous test proves nothing.
        windows = [now // self.INTERVAL for now in self._ticks()]
        gaps = [b - a for a, b in zip(windows, windows[1:])]
        assert any(gap > 1 for gap in gaps)


class TestHeapScheduling:
    """The heap replays the min-scan's lowest-clock / lowest-id order."""

    def test_visit_order_is_lowest_clock_then_lowest_id(self, monkeypatch):
        visits = []
        next_access = TranslationStage.next_access

        def record_visit(stage, gpu_id):
            visits.append((stage.machine.gpus[gpu_id].clock, gpu_id))
            return next_access(stage, gpu_id)

        monkeypatch.setattr(TranslationStage, "next_access", record_visit)
        trace = make_workload("st", num_gpus=4, scale=0.05)
        simulate(
            SystemConfig(num_gpus=4, fast_path=False),
            trace,
            make_policy("grit"),
        )
        assert len(visits) == trace.total_accesses
        # All four GPUs start at clock 0; ties break by id.
        assert [gpu for _, gpu in visits[:4]] == [0, 1, 2, 3]
        for (t1, g1), (t2, g2) in zip(visits, visits[1:]):
            # The engine always advances the furthest-behind GPU and
            # clocks only grow, so visit times are non-decreasing; a
            # GPU's clock strictly grows per access, so equal-time
            # runs must walk GPU ids strictly upward.
            assert t2 >= t1
            if t2 == t1:
                assert g2 > g1

    def test_scheduling_is_deterministic(self):
        def run():
            trace = make_workload("sc", num_gpus=4, scale=0.05)
            result = simulate(
                SystemConfig(num_gpus=4, fault_batch_size=8),
                trace,
                make_policy("grit"),
            )
            return {
                "total_cycles": result.total_cycles,
                "per_gpu_cycles": result.per_gpu_cycles,
                "counters": result.counters.as_dict(),
            }

        first, second = run(), run()
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )


def _random_trace(seed: int, num_gpus: int) -> WorkloadTrace:
    """A seeded mix of steady sweeps, hot-page bursts, and jumps."""
    rng = random.Random(seed)
    footprint = 160
    streams = []
    for gpu in range(num_gpus):
        vpns, writes = [], []
        page = rng.randrange(footprint)
        for _ in range(rng.randint(300, 500)):
            kind = rng.random()
            if kind < 0.6:
                # Sequential sweep: the steady-state shape.
                for _ in range(rng.randint(4, 24)):
                    vpns.append(page)
                    writes.append(rng.random() < 0.3)
                page = (page + 1) % footprint
            elif kind < 0.9:
                # Hot-page burst on a shared page (cross-GPU traffic).
                hot = rng.randrange(8)
                for _ in range(rng.randint(1, 6)):
                    vpns.append(hot)
                    writes.append(rng.random() < 0.5)
            else:
                # Random jump.
                page = rng.randrange(footprint)
        streams.append(
            (
                np.array(vpns, dtype=np.int64),
                np.array(writes, dtype=bool),
            )
        )
    return WorkloadTrace(
        name=f"random-{seed}",
        num_gpus=num_gpus,
        footprint_pages=footprint,
        streams=streams,
    )


class _RouteSpy:
    """Counts full-pipeline accesses, batched-round attempts, and
    TLB-hierarchy lookups whose page was already in the L1."""

    def __init__(self, monkeypatch) -> None:
        self.scalar = 0
        self.rounds = 0
        self.l1_hit_lookups = 0
        service = Engine._service_access
        batch = FastPath.round
        lookup = TLBHierarchy.lookup

        def spy_service(engine, *args):
            self.scalar += 1
            return service(engine, *args)

        def spy_round(fastpath, *args):
            self.rounds += 1
            return batch(fastpath, *args)

        def spy_lookup(tlbs, vpn):
            if tlbs.l1.peek(vpn) is not None:
                self.l1_hit_lookups += 1
            return lookup(tlbs, vpn)

        monkeypatch.setattr(Engine, "_service_access", spy_service)
        monkeypatch.setattr(FastPath, "round", spy_round)
        monkeypatch.setattr(TLBHierarchy, "lookup", spy_lookup)


def _both_contentions(argvalues):
    """Each parametrize entry in flat and in queued contention.

    Flat entries keep the plain ids they had before queued mode was
    added, so selecting a flat case by id keeps working; queued ones
    get a ``-queued`` suffix.
    """
    params = []
    for contention in ("none", "queued"):
        for values in argvalues:
            values = values if isinstance(values, tuple) else (values,)
            ident = "-".join(map(str, values))
            if contention == "queued":
                ident += "-queued"
            params.append(pytest.param(*values, contention, id=ident))
    return params


def _run_on_and_off(monkeypatch, trace, config_of, policy):
    """Flattened fast-on and fast-off results of one configuration.

    Also checks the fast run was not vacuous: some accesses retired
    through the fused check (fewer full-pipeline accesses than
    accesses outside batched rounds) and, in flat mode, some through
    batched rounds.  With the fast path on the engine retires every
    L1 hit itself, so the TLB hierarchy is probed only after L1 misses;
    with it off, the hierarchy sees the L1 hits too.
    """
    spy = _RouteSpy(monkeypatch)
    outputs = []
    for fast in (True, False):
        config = config_of(fast)
        event_log = EventLog()
        result = simulate(
            config, trace, make_policy(policy), event_log=event_log
        )
        counters = result.counters
        if fast:
            unbatched = counters.accesses - counters.fastpath_accesses
            assert spy.scalar < unbatched, (
                "no access took the fused steady route"
            )
            if config.contention == "none":
                assert counters.fastpath_accesses > 0, (
                    "trace generator produced no steady runs — the "
                    "equivalence check is vacuous"
                )
            else:
                assert spy.rounds == 0
            assert spy.l1_hit_lookups == 0, (
                f"{spy.l1_hit_lookups} L1 hits took the translation chain"
            )
        else:
            assert spy.l1_hit_lookups > 0
        outputs.append(_flatten(result, event_log))
    return outputs


def _flatten(result, event_log):
    counters = {
        key: value
        for key, value in result.counters.as_dict().items()
        # fastpath_runs / fastpath_accesses are wall-clock-domain
        # diagnostics of how the result was *computed*, not simulated
        # behaviour; everything else must match exactly.
        if not key.startswith("fastpath")
    }
    return {
        "total_cycles": result.total_cycles,
        "per_gpu_cycles": result.per_gpu_cycles,
        "counters": counters,
        "breakdown": result.breakdown.as_dict(),
        "details": result.details,
        "events": list(event_log._events),
    }


class TestFastPathEquivalence:
    """Property-style: fast on == fast off, bit for bit."""

    @pytest.mark.parametrize("seed", [11, 12, 13])
    @pytest.mark.parametrize("num_gpus", [2, 4])
    @pytest.mark.parametrize("policy", ["on_touch", "grit"])
    @pytest.mark.parametrize("batch,contention", _both_contentions([1, 8]))
    def test_random_traces_match_bit_for_bit(
        self, monkeypatch, seed, num_gpus, policy, batch, contention
    ):
        on, off = _run_on_and_off(
            monkeypatch,
            _random_trace(seed, num_gpus),
            lambda fast: SystemConfig(
                num_gpus=num_gpus,
                fault_batch_size=batch,
                contention=contention,
                fast_path=fast,
            ),
            policy,
        )
        assert on == off

    def test_queued_contention_disables_the_fast_path(self):
        # Batched rounds only: the fused steady check still runs under
        # queued contention (covered by the equivalence tests).
        trace = _random_trace(3, 2)
        engine = Engine(
            SystemConfig(num_gpus=2, contention="queued"),
            trace,
            make_policy("on_touch"),
        )
        assert engine.fastpath is None
        with pytest.raises(ConfigError):
            FastPath(engine)
        result = engine.run()
        assert result.counters.fastpath_runs == 0


#: (num_gpus, topology) shapes exercised by the scale-out matrix —
#: shared with the contention sweep in ``test_timing.py``.
SCALE_MATRIX = [
    (4, "all-to-all"),
    (4, "ring"),
    (8, "nvswitch:4"),
    (8, "ring"),
    (8, "multi-node:2"),
    (16, "nvswitch:4"),
    (16, "multi-node:4"),
]


class TestFastPathScaleMatrix:
    """Fast on == fast off holds on every scale-out fabric shape."""

    @pytest.mark.parametrize(
        "num_gpus,topology,contention", _both_contentions(SCALE_MATRIX)
    )
    def test_scale_out_traces_match_bit_for_bit(
        self, monkeypatch, num_gpus, topology, contention
    ):
        on, off = _run_on_and_off(
            monkeypatch,
            _random_trace(21, num_gpus),
            lambda fast: SystemConfig(
                num_gpus=num_gpus,
                topology=topology,
                contention=contention,
                fast_path=fast,
            ),
            "grit",
        )
        assert on == off
        assert on["details"]["topology"] == TopologySpec.parse(
            topology, num_gpus
        ).describe()


class TestRoundBackOff:
    """Batched rounds are tried only where they recently paid."""

    def test_rounds_are_rare_at_4k_pages(self, monkeypatch):
        # st at 4 KiB pages: steady runs are short, so most rounds
        # would commit nothing.  Without the back-off a round is
        # tried on about 0.6 of all accesses; with it, on about 0.02.
        spy = _RouteSpy(monkeypatch)
        trace = make_workload("st", num_gpus=4, scale=0.05)
        result = simulate(
            SystemConfig(num_gpus=4, page_size=4096),
            trace,
            make_policy("grit"),
        )
        tries = spy.rounds / result.counters.accesses
        assert tries < 0.1, f"a round was tried on {tries:.3f} of accesses"
        assert result.counters.fastpath_accesses > 0


class TestFastPathSpeedup:
    """The fast path must actually be fast where it applies."""

    def test_steady_state_replay_is_at_least_twice_as_fast(self):
        # 64 KiB pages fold fir's sweeps into long single-page runs,
        # which is the regime the fast path exists for; measured
        # headroom here is ~2.7x.  min-of-N rejects scheduler jitter,
        # and the on and off repeats alternate so a burst of host load
        # slows both sides, not one.
        trace = make_workload("fir", num_gpus=4, scale=0.4)
        policy_name, repeats = "grit", 5
        timings = {True: float("inf"), False: float("inf")}
        counters = {}
        for _ in range(repeats):
            for fast in (True, False):
                config = SystemConfig(
                    num_gpus=4, page_size=65536, fast_path=fast
                )
                engine = Engine(config, trace, make_policy(policy_name))
                start = time.perf_counter()
                result = engine.run()
                timings[fast] = min(
                    timings[fast], time.perf_counter() - start
                )
                counters[fast] = {
                    key: value
                    for key, value in result.counters.as_dict().items()
                    if not key.startswith("fastpath")
                }
                counters[fast]["total_cycles"] = result.total_cycles
        assert counters[True] == counters[False]
        ratio = timings[False] / timings[True]
        assert ratio >= 2.0, (
            f"fast path replay only {ratio:.2f}x faster "
            f"({timings[False]*1e3:.1f}ms -> {timings[True]*1e3:.1f}ms)"
        )

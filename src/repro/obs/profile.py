"""Wall-time phase profiling for the simulator itself (host side).

This module answers "where does the *simulator* spend real time?" —
trace generation vs. engine construction vs. the replay loop — for
people optimizing the reproduction, not the modelled machine.  It is
the one observability module allowed to read the wall clock, which is
why it lives outside :mod:`repro.sim` / :mod:`repro.uvm` (the simlint
determinism rules keep wall time out of the simulation core) and why
:mod:`repro.obs`'s ``__init__`` does not re-export it: import it
directly::

    from repro.obs.profile import profile_run
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Iterator, List, Tuple

from repro.sim.result import SimulationResult


class PhaseProfiler:
    """Accumulates named wall-time phases."""

    def __init__(self) -> None:
        #: ``(name, seconds)`` in completion order.
        self.phases: List[Tuple[str, float]] = []

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a ``with`` block as one named phase."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phases.append((name, time.perf_counter() - start))

    def total_seconds(self) -> float:
        """Wall time across all recorded phases."""
        return sum(seconds for _, seconds in self.phases)

    def render(self) -> str:
        """Text table of phases with share-of-total percentages."""
        total = self.total_seconds()
        width = max((len(name) for name, _ in self.phases), default=5)
        lines = []
        for name, seconds in self.phases:
            share = 100.0 * seconds / total if total else 0.0
            lines.append(f"{name:<{width}s}  {seconds:9.3f}s  {share:5.1f}%")
        lines.append(f"{'total':<{width}s}  {total:9.3f}s  100.0%")
        return "\n".join(lines)

    def to_registry(self):
        """The phases as a :class:`MetricsRegistry` of gauges.

        One ``profile.phase.<name>`` gauge per phase (repeated phase
        names sum their seconds) plus a ``profile.total`` gauge, all
        sampled once at ts 0 — which makes every registry exporter
        (JSONL, CSV, Prometheus) a profile exporter for free.
        """
        from repro.obs.metrics import (
            MetricKind,
            MetricSpec,
            MetricsRegistry,
        )

        registry = MetricsRegistry()
        merged: dict[str, float] = {}
        for name, seconds in self.phases:
            merged[name] = merged.get(name, 0.0) + seconds
        for name, seconds in merged.items():
            metric = f"profile.phase.{name}"
            registry.register(
                MetricSpec(
                    name=metric,
                    kind=MetricKind.GAUGE,
                    description=f"wall seconds in the {name} phase",
                    unit="seconds",
                )
            )
            registry.set_gauge(metric, seconds)
        registry.register(
            MetricSpec(
                name="profile.total",
                kind=MetricKind.GAUGE,
                description="wall seconds across all phases",
                unit="seconds",
            )
        )
        registry.set_gauge("profile.total", self.total_seconds())
        registry.sample(0)
        return registry

    def to_jsonl(self) -> str:
        """Phase timings as metrics JSON-lines (``profile --json``)."""
        return self.to_registry().to_jsonl()


@dataclasses.dataclass(frozen=True)
class ProfiledRun:
    """A profiled simulation: the result plus its wall-time phases."""

    result: SimulationResult
    profiler: PhaseProfiler


def profile_run(
    workload: str,
    policy: str,
    num_gpus: int = 4,
    scale: float = 0.3,
) -> ProfiledRun:
    """Run one (workload, policy) pair with wall-time phase timing.

    Phases: ``generate-trace`` (workload synthesis), ``build-engine``
    (machine + driver construction), ``replay`` (the simulation loop),
    and ``summarize`` (result aggregation formatting).
    """
    # Imported here, not at module top: profile pulls in the engine and
    # the workload generators, and repro.obs must stay importable from
    # repro.sim without a cycle.
    from repro.config import SystemConfig
    from repro.policies import make_policy
    from repro.sim.engine import Engine
    from repro.workloads import make_workload

    profiler = PhaseProfiler()
    config = SystemConfig(num_gpus=num_gpus)
    with profiler.phase("generate-trace"):
        trace = make_workload(workload, num_gpus=num_gpus, scale=scale)
    with profiler.phase("build-engine"):
        engine = Engine(config, trace, make_policy(policy))
    with profiler.phase("replay"):
        result = engine.run()
    with profiler.phase("summarize"):
        result.summary()
    return ProfiledRun(result=result, profiler=profiler)

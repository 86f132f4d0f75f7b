"""Perf-trajectory benchmarks and the regression gate (host side).

GRIT's claims are throughput claims, so the repo needs a machine-
readable performance history: this module runs a small suite of figure
benchmarks with wall-time and counter instrumentation, writes one
structured ``BENCH_<name>.json`` baseline per case, and compares fresh
measurements against committed baselines (``repro bench --compare``).

Two regression axes, handled differently because their noise differs:

* **simulated counters** (total cycles, faults, migrations, ...) are a
  pure function of (config, workload, policy, scale) — bit-identical
  across machines and reruns.  Any drift is a real behaviour change
  and fails the gate exactly, regardless of threshold.
* **wall time** is noisy, so the gate is min-of-N (the minimum of N
  repetitions estimates the noise floor) with a configurable relative
  threshold: a regression is flagged only when
  ``current_min > baseline_min * (1 + threshold)``.  Cross-machine
  comparisons should pass ``counters_only=True`` — wall baselines only
  mean something on the hardware that wrote them (the stored
  environment fingerprint says which that was).

Like :mod:`repro.obs.profile` this module reads the wall clock, so it
lives outside the simulation core and is not re-exported from
``repro.obs``; import it directly.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import statistics
from typing import Dict, List, Sequence, Tuple

from repro.obs import catalog
from repro.obs.metrics import MetricsRegistry

#: Baseline file schema; bump on shape changes so stale committed
#: baselines fail loudly instead of comparing apples to oranges.
BENCH_SCHEMA_VERSION = 1

#: Baseline filename pattern (``BENCH_<case>.json``).
BASELINE_PREFIX = "BENCH_"

#: Environment variable controlling the default trace scale (shared
#: with the pytest-benchmark suite in ``benchmarks/``).
SCALE_ENV_VAR = "REPRO_BENCH_SCALE"

#: Default trace scale when neither --scale nor the env var is set:
#: small enough for CI, large enough to exercise every mechanism.
DEFAULT_SCALE = 0.05

#: Repetitions per case; min-of-N needs N > 1 to reject noise, and the
#: baseline records all N so the spread is inspectable.
DEFAULT_REPEATS = 3

#: Relative wall-time slowdown tolerated before the gate fails.
DEFAULT_THRESHOLD = 0.25

#: Simulator counters recorded in baselines.  ``total_cycles`` is the
#: headline (simulated execution time); the rest attribute a cycle
#: change to the mechanism that caused it.
COUNTER_KEYS: Tuple[str, ...] = (
    "total_cycles",
    "accesses",
    "total_faults",
    "migrations",
    "duplications",
    "evictions",
    "remote_accesses",
)


class BenchError(ValueError):
    """A baseline cannot be loaded or compared."""


@dataclasses.dataclass(frozen=True)
class BenchCase:
    """One named (workload, policy) benchmark configuration."""

    name: str
    workload: str
    policy: str
    num_gpus: int = 2
    #: Timing-kernel mode the case runs under (see repro.sim.timing).
    contention: str = "none"
    #: Allocation granularity in bytes (larger pages fold more base
    #: pages together and lengthen steady-state runs).
    page_size: int = 4096
    #: Interconnect fabric shape the case runs on (see
    #: repro.interconnect.routing).
    topology: str = "all-to-all"
    #: Whether the vectorized steady-state fast path is enabled (see
    #: repro.sim.fastpath); counters are identical either way, only
    #: wall time differs.
    fast_path: bool = True


#: The default suite: the paper's baseline policy plus GRIT on three
#: workloads with distinct sharing behaviour (streaming FIR, stencil
#: ST, irregular BFS) — each CI-sized at scale 0.05.
DEFAULT_CASES: Tuple[BenchCase, ...] = (
    BenchCase("fir-on_touch", "fir", "on_touch"),
    BenchCase("fir-grit", "fir", "grit"),
    BenchCase("st-grit", "st", "grit"),
    BenchCase("bfs-grit", "bfs", "grit"),
    BenchCase(
        "fir-grit-contended", "fir", "grit",
        num_gpus=4, contention="queued",
    ),
    # Large pages lengthen steady-state runs, so this case is where
    # the vectorized fast path earns its keep; its counters are gated
    # like every other case (fast path is bit-identical by design).
    BenchCase(
        "fir-grit-fastpath", "fir", "grit",
        num_gpus=4, page_size=65536,
    ),
    # The scale-out shape: 8 GPUs behind switch groups, queued
    # contention so switch-port occupancy actually prices time.
    BenchCase(
        "fir-grit-8gpu-nvswitch", "fir", "grit",
        num_gpus=8, contention="queued", topology="nvswitch",
    ),
)


def default_scale() -> float:
    """Scale from :data:`SCALE_ENV_VAR`, else :data:`DEFAULT_SCALE`."""
    raw = os.environ.get(SCALE_ENV_VAR)
    if not raw:
        return DEFAULT_SCALE
    try:
        return float(raw)
    except ValueError:
        raise BenchError(
            f"{SCALE_ENV_VAR}={raw!r} is not a number"
        ) from None


def env_fingerprint() -> Dict[str, object]:
    """Where a baseline was measured (wall times are machine-bound)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 0,
    }


@dataclasses.dataclass
class BenchResult:
    """Measurements of one case: N wall timings plus counters."""

    case: BenchCase
    scale: float
    #: Wall seconds per repetition, in execution order.
    wall_seconds: List[float]
    #: Phase name -> wall seconds per repetition.
    phase_seconds: Dict[str, List[float]]
    #: Deterministic simulator counters (identical across repeats).
    counters: Dict[str, int]

    @property
    def repeats(self) -> int:
        return len(self.wall_seconds)

    def to_baseline(self) -> dict:
        """The ``BENCH_<name>.json`` document for this measurement."""
        return {
            "schema_version": BENCH_SCHEMA_VERSION,
            "name": self.case.name,
            "workload": self.case.workload,
            "policy": self.case.policy,
            "num_gpus": self.case.num_gpus,
            "contention": self.case.contention,
            "page_size": self.case.page_size,
            "topology": self.case.topology,
            "fast_path": self.case.fast_path,
            "scale": self.scale,
            "repeats": self.repeats,
            "timings": {
                "wall_seconds": {
                    "min": min(self.wall_seconds),
                    "median": statistics.median(self.wall_seconds),
                    "all": list(self.wall_seconds),
                },
                "phases": {
                    name: {
                        "min": min(samples),
                        "median": statistics.median(samples),
                    }
                    for name, samples in sorted(
                        self.phase_seconds.items()
                    )
                },
            },
            "counters": dict(self.counters),
            "env": env_fingerprint(),
        }


def run_case(
    case: BenchCase,
    scale: float,
    repeats: int = DEFAULT_REPEATS,
    registry: MetricsRegistry | None = None,
    inject_slowdown: float = 0.0,
) -> BenchResult:
    """Measure one case ``repeats`` times.

    ``inject_slowdown`` adds that many wall seconds to every repetition
    — a CI drill proving the gate actually fires; it never touches
    simulated behaviour.
    """
    from repro.obs.profile import profile_run

    if repeats < 1:
        raise BenchError("repeats must be >= 1")
    wall: List[float] = []
    phases: Dict[str, List[float]] = {}
    counters: Dict[str, int] = {}
    for _ in range(repeats):
        profiled = profile_run(
            case.workload,
            case.policy,
            num_gpus=case.num_gpus,
            scale=scale,
            page_size=case.page_size,
            contention=case.contention,
            topology=case.topology,
            fast_path=case.fast_path,
        )
        if registry is not None:
            registry.inc(catalog.BENCH_RUNS)
        wall.append(
            profiled.profiler.total_seconds() + inject_slowdown
        )
        for name, seconds in profiled.profiler.phases:
            phases.setdefault(name, []).append(seconds)
        result = profiled.result
        measured = dict(result.counters.as_dict())
        measured["total_cycles"] = result.total_cycles
        fresh = {key: int(measured[key]) for key in COUNTER_KEYS}
        if counters and fresh != counters:
            raise BenchError(
                f"{case.name}: counters drifted between repetitions "
                f"of one run — the simulator is nondeterministic"
            )
        counters = fresh
    return BenchResult(
        case=case,
        scale=scale,
        wall_seconds=wall,
        phase_seconds=phases,
        counters=counters,
    )


def run_suite(
    cases: Sequence[BenchCase],
    scale: float,
    repeats: int = DEFAULT_REPEATS,
    registry: MetricsRegistry | None = None,
    inject_slowdown: float = 0.0,
) -> List[BenchResult]:
    """Measure every case in order."""
    return [
        run_case(
            case,
            scale,
            repeats=repeats,
            registry=registry,
            inject_slowdown=inject_slowdown,
        )
        for case in cases
    ]


# ----------------------------------------------------------------------
# baseline files
# ----------------------------------------------------------------------


def baseline_path(directory: str, name: str) -> str:
    """``<directory>/BENCH_<name>.json``."""
    return os.path.join(directory, f"{BASELINE_PREFIX}{name}.json")


def write_baseline(directory: str, result: BenchResult) -> str:
    """Write one case's baseline; returns the path written."""
    os.makedirs(directory, exist_ok=True)
    path = baseline_path(directory, result.case.name)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(result.to_baseline(), handle, indent=2,
                  sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return path


def load_baseline(path: str) -> dict:
    """Load and schema-check one ``BENCH_*.json`` document."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot load baseline {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise BenchError(f"baseline {path} is not a JSON object")
    version = data.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        raise BenchError(
            f"baseline {path} has schema {version!r}, current is "
            f"{BENCH_SCHEMA_VERSION}; regenerate with 'repro bench'"
        )
    return data


# ----------------------------------------------------------------------
# the regression gate
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Regression:
    """One gate finding."""

    case: str
    #: ``counter`` (simulated behaviour changed) or ``wall``
    #: (measured slowdown past the threshold).
    kind: str
    message: str


def compare_case(
    current: BenchResult,
    baseline: dict,
    threshold: float = DEFAULT_THRESHOLD,
    counters_only: bool = False,
) -> List[Regression]:
    """Gate one case's fresh measurement against its baseline.

    Counter drift always fails (deterministic identity); wall time
    fails only past ``threshold`` on the min-of-N estimate, and not at
    all with ``counters_only`` (the right mode when the baseline was
    written on different hardware).
    """
    name = current.case.name
    findings: List[Regression] = []
    for field in ("workload", "policy", "num_gpus", "contention",
                  "page_size", "topology", "fast_path", "scale"):
        # Older baselines predate some fields; each absent field
        # defaults to the value every baseline was measured with at
        # the time (flat contention, 4 KiB pages, all-to-all fabric,
        # fast path on).
        defaults = {
            "contention": "none", "page_size": 4096,
            "topology": "all-to-all", "fast_path": True,
        }
        recorded = baseline.get(field, defaults.get(field))
        measured = getattr(
            current.case, field, None
        ) if field != "scale" else current.scale
        if recorded != measured:
            raise BenchError(
                f"{name}: baseline was measured with {field}="
                f"{recorded!r}, this run uses {measured!r}; "
                f"regenerate the baseline or match the flags"
            )
    base_counters = baseline.get("counters", {})
    for key in COUNTER_KEYS:
        if key not in base_counters:
            continue
        expected = int(base_counters[key])
        measured = int(current.counters[key])
        if measured != expected:
            findings.append(
                Regression(
                    case=name,
                    kind="counter",
                    message=(
                        f"{key} changed: baseline {expected:,} -> "
                        f"measured {measured:,} (simulated behaviour "
                        f"is deterministic; this is a real change)"
                    ),
                )
            )
    if not counters_only:
        base_min = float(
            baseline["timings"]["wall_seconds"]["min"]
        )
        cur_min = min(current.wall_seconds)
        limit = base_min * (1.0 + threshold)
        if cur_min > limit:
            findings.append(
                Regression(
                    case=name,
                    kind="wall",
                    message=(
                        f"wall time regressed: min-of-"
                        f"{current.repeats} {cur_min:.3f}s > "
                        f"baseline {base_min:.3f}s "
                        f"* (1 + {threshold:g})"
                    ),
                )
            )
    return findings


def compare_suite(
    results: Sequence[BenchResult],
    baseline_dir: str,
    threshold: float = DEFAULT_THRESHOLD,
    counters_only: bool = False,
    registry: MetricsRegistry | None = None,
) -> Tuple[List[Regression], List[str]]:
    """Gate a suite; returns ``(regressions, notes)``.

    Notes are non-fatal: a missing baseline (new case) or an
    environment-fingerprint mismatch (wall numbers from different
    hardware) is reported but does not fail the gate by itself.
    """
    regressions: List[Regression] = []
    notes: List[str] = []
    env = env_fingerprint()
    for result in results:
        path = baseline_path(baseline_dir, result.case.name)
        if not os.path.exists(path):
            notes.append(
                f"{result.case.name}: no baseline at {path} "
                f"(new case? write one with 'repro bench')"
            )
            continue
        baseline = load_baseline(path)
        if registry is not None:
            registry.inc(catalog.BENCH_COMPARISONS)
        if not counters_only and baseline.get("env") != env:
            notes.append(
                f"{result.case.name}: baseline env differs from this "
                f"machine; wall-time comparison is unreliable "
                f"(consider --counters-only)"
            )
        found = compare_case(
            result,
            baseline,
            threshold=threshold,
            counters_only=counters_only,
        )
        if registry is not None and found:
            registry.inc(catalog.BENCH_REGRESSIONS, len(found))
        regressions.extend(found)
    return regressions, notes


def select_cases(names: Sequence[str] | None) -> List[BenchCase]:
    """Resolve ``--cases`` names against the default suite."""
    if not names:
        return list(DEFAULT_CASES)
    by_name = {case.name: case for case in DEFAULT_CASES}
    missing = [name for name in names if name not in by_name]
    if missing:
        raise BenchError(
            f"unknown bench case(s): {', '.join(missing)}; "
            f"known: {', '.join(sorted(by_name))}"
        )
    return [by_name[name] for name in names]

"""Committed counter baselines: ``repro bench`` (host side).

This module runs a small suite of cases, one simulation each, writes
one structured ``BENCH_<name>.json`` baseline per case — the case's
configuration plus its simulator counters — and checks fresh runs
against committed baselines (``repro bench --compare``).

Simulated counters (total cycles, faults, migrations, ...) are a pure
function of (config, workload, policy, scale): bit-identical across
machines and reruns, so any drift is a real behaviour change and fails
the check exactly.  Wall time is not measured here; the cases replay
in milliseconds, far too short to resolve a 10 % change.  Replay
throughput is measured by ``python -m benchmarks.perf``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
from typing import Dict, List, Sequence, Tuple

from repro.config import SystemConfig
from repro.policies import make_policy
from repro.sim.engine import simulate
from repro.workloads import make_workload

#: Baseline file schema; bump on shape changes so stale committed
#: baselines fail loudly instead of comparing apples to oranges.
BENCH_SCHEMA_VERSION = 2

#: Baseline filename pattern (``BENCH_<case>.json``).
BASELINE_PREFIX = "BENCH_"

#: Environment variable controlling the default trace scale (shared
#: with the pytest-benchmark suite in ``benchmarks/``).
SCALE_ENV_VAR = "REPRO_BENCH_SCALE"

#: Default trace scale when neither --scale nor the env var is set:
#: small enough for CI, large enough to exercise every mechanism.
DEFAULT_SCALE = 0.05

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

#: Case fields a baseline records and a comparison must match.
_IDENTITY_FIELDS = (
    "workload", "policy", "num_gpus", "contention", "page_size",
    "topology", "fast_path",
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
    #: Whether the steady-state fast path is enabled (see
    #: repro.sim.fastpath); counters are identical either way.
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
    # batched fast-path rounds do most of the work.
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
    """The host a measurement ran on (for wall-time records)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 0,
    }


@dataclasses.dataclass
class BenchResult:
    """The counters of one simulated case."""

    case: BenchCase
    scale: float
    counters: Dict[str, int]

    def to_baseline(self) -> dict:
        """The ``BENCH_<name>.json`` document for this result."""
        document: dict = {
            "schema_version": BENCH_SCHEMA_VERSION,
            "name": self.case.name,
        }
        for field in _IDENTITY_FIELDS:
            document[field] = getattr(self.case, field)
        document["scale"] = self.scale
        document["counters"] = dict(self.counters)
        return document


def run_case(case: BenchCase, scale: float) -> BenchResult:
    """Simulate one case once and collect its counters."""
    config = SystemConfig(
        num_gpus=case.num_gpus,
        page_size=case.page_size,
        contention=case.contention,
        topology=case.topology,
        fast_path=case.fast_path,
    )
    trace = make_workload(case.workload, num_gpus=case.num_gpus, scale=scale)
    result = simulate(config, trace, make_policy(case.policy))
    measured = result.counters.as_dict()
    measured["total_cycles"] = result.total_cycles
    return BenchResult(
        case=case,
        scale=scale,
        counters={key: int(measured[key]) for key in COUNTER_KEYS},
    )


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
# the counter check
# ----------------------------------------------------------------------


def compare_case(current: BenchResult, baseline: dict) -> List[str]:
    """Counter drift of one case against its baseline, one line each.

    A baseline measured under a different configuration or scale is
    a hard error, not a drift: its counters describe another run.
    """
    name = current.case.name
    for field in (*_IDENTITY_FIELDS, "scale"):
        recorded = baseline.get(field)
        measured = (
            current.scale if field == "scale"
            else getattr(current.case, field)
        )
        if recorded != measured:
            raise BenchError(
                f"{name}: baseline was measured with {field}="
                f"{recorded!r}, this run uses {measured!r}; "
                f"regenerate the baseline or match the flags"
            )
    base_counters = baseline.get("counters", {})
    return [
        f"{name}: {key} changed: baseline {int(base_counters[key]):,} "
        f"-> measured {current.counters[key]:,} (simulated behaviour "
        f"is deterministic; this is a real change)"
        for key in COUNTER_KEYS
        if key in base_counters
        and current.counters[key] != int(base_counters[key])
    ]


def compare_suite(
    results: Sequence[BenchResult], baseline_dir: str
) -> Tuple[List[str], List[str]]:
    """Check a suite; returns ``(regressions, notes)``.

    A case with no baseline (a new case) is noted, not failed.
    """
    regressions: List[str] = []
    notes: List[str] = []
    for result in results:
        path = baseline_path(baseline_dir, result.case.name)
        if not os.path.exists(path):
            notes.append(
                f"{result.case.name}: no baseline at {path} "
                f"(new case? write one with 'repro bench')"
            )
            continue
        regressions.extend(compare_case(result, load_baseline(path)))
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

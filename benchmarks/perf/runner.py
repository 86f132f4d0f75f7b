"""Timed passes, the correctness gate, the traced passes and the metrics.

Load model: closed loop, one client.  Simulations run back to back in
this process on one thread, with ``gc.collect()`` before each.  A run of
one workload is:

1. an untimed warm-up pass at 1/20 scale on the generators' built-in
   seeds, whose counters must match ``expected_counters.json``;
2. timed passes with tracing off, at least :data:`MIN_PASSES`, until
   the next one would pass ``seconds``.  Each simulation is set up
   :data:`SETUP_REPEATS` times and replayed once; with ``trace`` it is
   set up once and paired with a sampled replay of it;
3. without ``trace``, one pass in a fresh child process for
   ``peak_rss_mb`` (not with ``quick``; the parent waits for it); with
   ``trace``, one counting pass.

Before its first workload, ``run`` has malloc keep freed memory
(:func:`keep_freed_memory`); the child process keeps the defaults.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import gc
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness.validate import validate_result
from repro.obs.bench import COUNTER_KEYS
from repro.obs.trace_schema import validate_chrome_trace
from repro.policies import make_policy
from repro.sim import Engine
from repro.workloads import make_workload

from benchmarks.perf import ledger as ledger_mod
from benchmarks.perf.suite import Sim, simulations

PACKAGE_DIR = pathlib.Path(__file__).resolve().parent
ROOT = PACKAGE_DIR.parents[1]
EXPECTED_PATH = PACKAGE_DIR / "expected_counters.json"

#: Environment variables that change simulated results without changing
#: their identity; the benchmark refuses to run under any of them.
ENV_OVERRIDES = (
    "GRIT_CONTENTION",
    "GRIT_TOPOLOGY",
    "GRIT_FAST_PATH",
    "GRIT_TRACE",
    "GRIT_SANITIZE",
)

#: Timed passes a run makes even past its time budget: the fastest of
#: three repeats of a simulation rejects two bursts of interference.
MIN_PASSES = 3

#: Set-ups of each simulation in a timed pass.  A set-up takes 1-8 ms,
#: too short for a pass's one sample to miss every burst.
SETUP_REPEATS = 3

#: Time of :func:`reference_loop` (the 5th percentile of a run's
#: timings) on a quiet 2-vCPU Xeon virtual machine with Python 3.11:
#: the host speed the end-to-end times are scaled to.
REFERENCE_S = 0.0198

#: Seconds of a run between two timings of :func:`reference_loop`,
#: taken between simulations.
REFERENCE_EVERY_S = 0.25

#: The paper's GRIT over on-touch speedup (arithmetic mean of 8 apps).
PAPER_GRIT_VS_OT = 1.60

#: Where ``trace.coverage`` must lie: the layer self times add up to the
#: replay time they split.
COVERAGE_RANGE = (0.90, 1.10)


class OverrideError(RuntimeError):
    """A ``GRIT_*`` environment override is set."""


def check_environment(environ=os.environ) -> None:
    """Raise :class:`OverrideError` while any result override is set."""
    found = [name for name in ENV_OVERRIDES if environ.get(name)]
    if found:
        raise OverrideError(
            f"unset {', '.join(found)}: these overrides change simulated "
            f"results, so the benchmark would not measure its workloads"
        )


#: glibc ``mallopt`` parameters.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def keep_freed_memory() -> bool:
    """Have glibc's malloc keep freed memory for reuse; False elsewhere.

    By default glibc maps every block of more than 128 KiB afresh and
    unmaps it when it is freed, so a pass of set-ups faults in pages
    afresh: ~1,200 on ``large-page-64k``, ~900 on
    ``nvswitch-8gpu-queued``, ~300 on ``paper-4k``.  On a shared
    virtual machine their cost moves with the host: ``large-page-64k``
    read 8.7 ms of ``setup_s`` in one set of runs and 5.9 ms in the
    next.  Served from a heap that is never trimmed, the set-ups after
    a workload's first fault in none.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    return bool(
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        and mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    )


@dataclasses.dataclass
class SimRun:
    """One simulation's timings, counters and gate findings."""

    sim: Sim
    setup_s: float = 0.0
    replay_s: float = 0.0
    #: ``COUNTER_KEYS`` values: the gated behaviour of the simulation.
    counters: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Ungated quantities the layer metrics are computed from.
    stats: Dict[str, int] = dataclasses.field(default_factory=dict)
    errors: List[str] = dataclasses.field(default_factory=list)


def simulate(
    sim: Sim,
    seed: Optional[int],
    counter: "ledger_mod.SpanCounter | None" = None,
    sampler: "ledger_mod.Sampler | None" = None,
    setups: int = 1,
) -> SimRun:
    """Build and replay one simulation; exceptions become errors.

    The set-up runs ``setups`` times, each from a fresh policy after a
    ``gc.collect()``; ``setup_s`` is the fastest, and the last engine
    replays.  With ``counter``, the layer methods are wrapped and
    counted; with ``sampler``, set-up and replay are sampled.
    """
    run = SimRun(sim)
    make, build = make_workload, Engine
    sampling = contextlib.nullcontext()
    if counter is not None:
        make, build = (
            counter.wrap(fn, fn.__name__, layer)
            for layer, fn in ledger_mod.SETUP_HOOKS
        )
    if sampler is not None:
        sampling = sampler.sampling()
    try:
        config = sim.config()
        with sampling:
            for repeat in range(setups):
                engine = trace = None
                policy = make_policy(sim.policy)
                gc.collect()
                start = time.perf_counter()
                trace = make(
                    sim.app, num_gpus=sim.num_gpus, scale=sim.scale, seed=seed
                )
                engine = build(config, trace, policy)
                took = time.perf_counter() - start
                run.setup_s = min(run.setup_s, took) if repeat else took
            if counter is not None:
                counter.instrument(engine)
            if sampler is not None:
                sampler.register(engine)
            start = time.perf_counter()
            result = engine.run()
            run.replay_s = time.perf_counter() - start
    except Exception:  # a failing simulation is reported, not fatal
        run.errors.append("raised: " + traceback.format_exc(limit=4))
        return run
    run.errors.extend(f"invalid: {issue}" for issue in validate_result(result))
    measured = dict(result.counters.as_dict(), total_cycles=result.total_cycles)
    run.counters = {key: int(measured[key]) for key in COUNTER_KEYS}
    details = result.details
    run.stats = {
        "fastpath_runs": measured["fastpath_runs"],
        "fastpath_accesses": measured["fastpath_accesses"],
        "l2_tlb_misses": measured["l2_tlb_misses"],
        "l2_tlb_lookups": sum(gpu.tlbs.l1.misses for gpu in engine.machine.gpus),
        "wait_cycles": int(
            details["link_wait_cycles"]
            + details["switch_wait_cycles"]
            + details["dram_wait_cycles"]
        ),
    }
    return run


class HostSpeed:
    """Timings of :func:`reference_loop`, one per :data:`REFERENCE_EVERY_S`."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._due = 0.0

    def poll(self) -> None:
        """Time the reference loop if one is due."""
        if time.perf_counter() >= self._due:
            self.samples.append(reference_loop())
            self._due = time.perf_counter() + REFERENCE_EVERY_S


def run_pass(
    sims: Sequence[Sim],
    seed: Optional[int],
    setups: int = 1,
    host: Optional[HostSpeed] = None,
) -> List[SimRun]:
    """One pass; with ``host``, polled before each simulation."""
    runs = []
    for sim in sims:
        if host is not None:
            host.poll()
        runs.append(simulate(sim, seed, setups=setups))
    return runs


def load_expected() -> Dict[str, Dict[str, int]]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class Gate:
    """Checks every simulation's counters; collects the failures."""

    def __init__(self, expected: Dict[str, Dict[str, int]]) -> None:
        self.expected = expected
        #: ``(label, seed)`` -> counters of its first repeat in this run.
        self.reference: Dict[tuple, Dict[str, int]] = {}
        self.attempted = 0
        #: Failed simulations (and failed whole-pass checks).
        self.failed = 0
        self.failures: List[str] = []

    def check(self, runs: Sequence[SimRun], phase: str, seed: Optional[int]):
        for run in runs:
            self.attempted += 1
            label = run.sim.label
            errors = list(run.errors)
            if not errors:
                if seed is None:
                    expected = self.expected.get(label)
                    if expected is None:
                        errors.append("no expected counters for this label")
                    elif expected != run.counters:
                        errors.append(
                            f"counters {run.counters} != expected {expected}"
                        )
                reference = self.reference.setdefault(
                    (label, seed), run.counters
                )
                if reference != run.counters:
                    errors.append(
                        f"counters drifted between repeats: {reference} "
                        f"-> {run.counters}"
                    )
            if errors:
                self.fail(f"{phase} {label}: " + "; ".join(errors))

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)
        print(f"FAILED {message}", file=sys.stderr)


def _summary(values: Sequence[float]) -> Dict[str, float]:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def _p90(values: Sequence[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def peak_rss_child(workload: str, seed: Optional[int]) -> float:
    """Peak RSS in MiB of one full pass in a fresh child process."""
    command = [sys.executable, str(PACKAGE_DIR), "rss", "--workload", workload]
    if seed is not None:
        command += ["--seed", str(seed)]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True,
        timeout=150, check=True,
    )
    return float(json.loads(done.stdout.splitlines()[-1])["peak_rss_mb"])


def peak_rss_self() -> float:
    """Peak resident set of this process image, in MiB.

    ``VmHWM`` rather than ``ru_maxrss``: Linux carries the parent's
    high-water mark at the fork into a child's ``ru_maxrss``.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError("no VmHWM in /proc/self/status")


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed now."""
    table: Dict[int, int] = {}
    start = time.perf_counter()
    for i in range(200_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


def _fastest(passes: List[List[SimRun]], value) -> List[float]:
    """Each simulation's minimum of ``value(run)`` across the passes."""
    return [min(map(value, runs)) for runs in zip(*passes)]


def end_to_end(
    passes: List[List[SimRun]],
    references: Sequence[float],
    peak_rss_mb: float,
) -> Dict[str, dict]:
    """Metrics a user of the simulator sees, from the timed passes.

    A pass takes the sum of its simulations' times.  Other tenants of a
    shared host only ever slow a simulation down, so each time sums
    every simulation's fastest repeat.  Their load also holds for
    minutes, longer than a run, so that sum is then scaled by the
    host's speed: :data:`REFERENCE_S` over the 5th percentile of the
    ``references``, the reference loops timed during the passes (a
    percentile, because a single loop sometimes reads 10 % fast).
    The unscaled time is kept as ``raw``, and the quartiles of whole
    passes beside it.  ``sim_s_p90``, the tail of single simulations,
    is recorded in the result file but not gated: on a shared host its
    spread is wider than any useful bound.
    """
    reference = sorted(references)[len(references) // 20]
    speed = REFERENCE_S / reference
    accesses = sum(run.counters.get("accesses", 0) for run in passes[0])
    setup = sum(_fastest(passes, lambda run: run.setup_s))
    replay = sum(_fastest(passes, lambda run: run.replay_s))
    per_sim = [run.setup_s + run.replay_s for runs in passes for run in runs]

    def per_pass(value) -> Dict[str, float]:
        return _summary([value(runs) for runs in passes])

    def total(runs, field):
        return sum(getattr(run, field) for run in runs)

    return {
        "replay_acc_per_s": dict(
            per_pass(lambda runs: accesses / total(runs, "replay_s")),
            value=accesses / (replay * speed),
            raw=accesses / replay,
            unit="acc/s",
        ),
        "wall_s": dict(
            per_pass(lambda runs: total(runs, "setup_s") + total(runs, "replay_s")),
            value=(setup + replay) * speed,
            raw=setup + replay,
            unit="s",
        ),
        "setup_s": dict(
            per_pass(lambda runs: total(runs, "setup_s")),
            value=setup * speed,
            raw=setup,
            unit="s",
        ),
        "host_speed": {
            "value": speed,
            "unit": "x",
            "reference_s": reference,
            "n": len(references),
        },
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB", "n": 1},
        "sim_s_p90": {
            "value": _p90(per_sim),
            "unit": "s",
            "median": statistics.median(per_sim),
            "n": len(per_sim),
        },
    }


def fidelity(runs: Sequence[SimRun]) -> Optional[Dict[str, object]]:
    """GRIT / on-touch speedups when a pass holds both policies per app."""
    cycles = {
        (r.sim.app, r.sim.policy): r.counters["total_cycles"]
        for r in runs
        if r.counters
    }
    per_app = {
        app: cycles[(app, "on_touch")] / cycles[(app, "grit")]
        for app, policy in cycles
        if policy == "grit" and (app, "on_touch") in cycles
    }
    if not per_app:
        return None
    mean = statistics.fmean(per_app.values())
    return {
        "grit_vs_ot_speedup": mean,
        "grit_vs_ot_err_pct": abs(mean - PAPER_GRIT_VS_OT)
        / PAPER_GRIT_VS_OT
        * 100,
        "per_app": per_app,
    }


#: Unit of each per-layer metric, by the last part of its name.
LAYER_UNITS = {
    "calls": "count",
    "self_s": "s",
    "share": "fraction",
    "hit_ratio": "fraction",
    "coverage": "fraction",
    "accesses_per_run": "acc/run",
    "us_per_fault": "us",
    "l2_miss_ratio": "fraction",
    "wait_cycles": "cycles",
    "overhead_pct": "%",
}


def _ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


def sampled_metrics(
    samplers: Sequence["ledger_mod.Sampler"], runs: Sequence[SimRun]
) -> Dict[str, float]:
    """The time-based layer metrics of one sampled pass."""
    self_s: Counter = Counter()
    for sampler in samplers:
        self_s.update(sampler.self_s())
    total = sum(self_s.values())
    faults = sum(run.counters.get("total_faults", 0) for run in runs)
    fault_s = sum(sampler.fault_path_s() for sampler in samplers)
    found: Dict[str, float] = {}
    for layer in ledger_mod.LAYERS:
        found[f"{layer}.self_s"] = self_s[layer]
        found[f"{layer}.share"] = _ratio(self_s[layer], total)
    found["uvm.us_per_fault"] = _ratio(fault_s * 1e6, faults)
    return found


def _weighted_median(items: Sequence[Tuple[float, float]]) -> float:
    """The value of ``(value, weight)`` items with half the weight below."""
    ordered = sorted(items)
    half = sum(weight for _, weight in ordered) / 2
    seen = 0.0
    for value, weight in ordered:
        seen += weight
        if seen >= half:
            return value
    return 0.0


def layer_metrics(
    counter: "ledger_mod.SpanCounter",
    runs: Sequence[SimRun],
    sampled: Sequence[Dict[str, float]],
    pairs: Sequence[Tuple[float, float, float]],
) -> Dict[str, dict]:
    """The per-layer metrics.

    Counts come from the counting pass ``runs``, times are the median
    over the ``sampled`` passes.  ``pairs`` holds, for each sampled
    simulation, its replay-layer self seconds, its replay seconds and
    those of the untraced replay just before it.  ``trace.coverage``
    and ``trace.overhead_pct`` are medians over these pairs, weighted
    by replay time: a burst of interference from another tenant of the
    host slows single simulations, and spoils only the pairs it hits.
    """
    def stat(name: str) -> int:
        return sum(run.stats.get(name, 0) for run in runs)

    accesses = sum(run.counters.get("accesses", 0) for run in runs)
    calls, true = counter.counts["sim.fastpath"]
    values: Dict[str, float] = {
        f"{layer}.calls": counter.calls(layer) for layer in ledger_mod.LAYERS
    }
    values.update(
        (name, statistics.median(found[name] for found in sampled))
        for name in sampled[0]
    )
    values.update({
        "sim.fastpath.hit_ratio": _ratio(true, calls),
        "sim.fastpath.coverage": _ratio(stat("fastpath_accesses"), accesses),
        "sim.fastpath.accesses_per_run": _ratio(
            stat("fastpath_accesses"), stat("fastpath_runs")
        ),
        "sim.pipeline.l2_miss_ratio": _ratio(
            stat("l2_tlb_misses"), stat("l2_tlb_lookups")
        ),
        "sim.timing.wait_cycles": stat("wait_cycles"),
        "trace.overhead_pct": 100 * _weighted_median(
            [(_ratio(traced, base) - 1, base) for _, traced, base in pairs]
        ),
        "trace.coverage": _weighted_median(
            [(_ratio(layers, base), base) for layers, _, base in pairs]
        ),
    })
    return {
        name: {"value": value, "unit": LAYER_UNITS[name.rsplit(".", 1)[1]]}
        for name, value in values.items()
    }


def counting_pass(
    workload: str, sims: Sequence[Sim], seed: Optional[int], gate: Gate
) -> Tuple[List[SimRun], "ledger_mod.SpanCounter"]:
    """One pass with the layer methods wrapped; checks it like the others."""
    counter = ledger_mod.SpanCounter()
    runs: List[SimRun] = []
    for sim in sims:
        core_before = counter.calls("core")
        run = simulate(sim, seed, counter=counter)
        if sim.policy != "grit" and counter.calls("core") != core_before:
            run.errors.append("core spans in a non-GRIT simulation")
        runs.append(run)
    gate.check(runs, "counting", seed)
    if any(sim.contention == "queued" for sim in sims) and counter.calls(
        "sim.fastpath"
    ):
        gate.fail(
            f"counting {workload}: fast-path spans under queued contention"
        )
    return runs, counter


def check_coverage(
    gate: Gate, workload: str, pairs: Sequence[Tuple[float, float, float]]
) -> None:
    """Fail the run when the layer self times miss the replay time.

    ``pairs`` are those of :func:`layer_metrics`.  A burst of
    interference moves single pairs either way, by up to 40 %; a
    ledger that miscounts moves them all.  So the run fails when three
    quarters of the pairs miss :data:`COVERAGE_RANGE` on the same side.
    """
    ratios = [_ratio(layers, base) for layers, _, base in pairs]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    low, high = COVERAGE_RANGE
    if q1 > high or q3 < low:
        gate.fail(
            f"sampled {workload}: trace.coverage quartiles {q1:.3f}-{q3:.3f}"
            f" outside [{low}, {high}]: the layer self times do not add up "
            f"to the untraced replay time"
        )


def layer_section(
    workload: str,
    sims: Sequence[Sim],
    seed: Optional[int],
    gate: Gate,
    sampled: Sequence[Dict[str, float]],
    pairs: Sequence[Tuple[float, float, float]],
    first: Sequence["ledger_mod.Sampler"],
    trace_path: pathlib.Path,
) -> Dict[str, object]:
    """Run the counting pass; the per-layer metrics and their checks.

    ``first`` holds the samplers of the first sampled pass; their
    seconds become the ``(layer, caller)`` table of the result file.
    """
    runs, counter = counting_pass(workload, sims, seed, gate)
    metrics = layer_metrics(counter, runs, sampled, pairs)
    table: Counter = Counter()
    for sampler in first:
        table.update(sampler.seconds)
    document = counter.chrome_trace({"workload": workload, "seed": seed})
    problems = validate_chrome_trace(document)
    if problems:
        gate.fail(f"counting {workload}: invalid Chrome trace: {problems[:3]}")
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return {
        "metrics": metrics,
        "sampled_passes": list(sampled),
        "pairs": [
            {"replay_layers_s": layers, "replay_s": traced, "untraced_s": base}
            for layers, traced, base in pairs
        ],
        "table": [
            {"layer": layer, "caller": caller, "self_s": seconds}
            for (layer, caller), seconds in sorted(table.items())
        ],
        "chrome_trace": str(trace_path),
        "spans_written": len(document["traceEvents"]) - 1,
    }


def run_workload(
    workload: str,
    seed: Optional[int],
    seconds: float,
    trace: bool,
    quick: bool,
    trace_path: pathlib.Path,
) -> Dict[str, object]:
    """Measure one workload; returns its section of the result file."""
    gate = Gate(load_expected())
    sims = simulations(workload, quick)
    print(f"[{workload}] warm-up", file=sys.stderr, flush=True)
    gate.check(run_pass(simulations(workload, quick=True), None), "warmup", None)
    passes: List[List[SimRun]] = []
    #: Time-based layer metrics of each sampled pass.
    sampled: List[Dict[str, float]] = []
    #: Per sampled simulation: its replay-layer self seconds, its replay
    #: seconds and those of the untraced replay paired with it.
    pairs: List[Tuple[float, float, float]] = []
    first: List[ledger_mod.Sampler] = []
    #: Reference loops of the untraced timed passes, and how many of
    #: them each pass timed.
    host = HostSpeed()
    per_pass: List[int] = []
    start = time.perf_counter()
    while True:
        if trace:
            # Each simulation replays untraced and sampled back to back,
            # so that drift of the host cancels in each pair.  The second
            # of two back-to-back replays ran about 2 % faster than the
            # first, so which goes first alternates.
            untraced: List[SimRun] = []
            traced: List[SimRun] = []
            samplers: List[ledger_mod.Sampler] = []
            for index, sim in enumerate(sims):
                samplers.append(ledger_mod.Sampler())
                if (index + len(passes)) % 2:
                    traced.append(simulate(sim, seed, sampler=samplers[-1]))
                    untraced.append(simulate(sim, seed))
                else:
                    untraced.append(simulate(sim, seed))
                    traced.append(simulate(sim, seed, sampler=samplers[-1]))
            passes.append(untraced)
            gate.check(traced, "sampled", seed)
            sampled.append(sampled_metrics(samplers, traced))
            pairs.extend(
                (sampler.replay_s(), run.replay_s, base.replay_s)
                for sampler, run, base in zip(samplers, traced, untraced)
            )
            first = first or samplers
        else:
            timed = len(host.samples)
            passes.append(run_pass(sims, seed, SETUP_REPEATS, host))
            per_pass.append(len(host.samples) - timed)
        gate.check(passes[-1], "timed", seed)
        elapsed = time.perf_counter() - start
        print(
            f"[{workload}] pass {len(passes)}: {elapsed:.2f}s elapsed",
            file=sys.stderr, flush=True,
        )
        if quick or (
            len(passes) >= MIN_PASSES
            and elapsed * (len(passes) + 1) / len(passes) > seconds
        ):
            break
    section: Dict[str, object] = {
        "simulations": [
            {
                "label": run.sim.label,
                "app": run.sim.app,
                "policy": run.sim.policy,
                "scale": run.sim.scale,
                "config": run.sim.overrides(),
                "counters": run.counters,
            }
            for run in passes[0]
        ],
        "passes": [
            {
                "setup_s": [run.setup_s for run in runs],
                "replay_s": [run.replay_s for run in runs],
                "reference_s": host.samples[
                    sum(per_pass[:index]): sum(per_pass[: index + 1])
                ],
            }
            for index, runs in enumerate(passes)
        ],
    }
    if trace:
        print(f"[{workload}] counting pass", file=sys.stderr, flush=True)
        section["layers"] = layer_section(
            workload, sims, seed, gate, sampled, pairs, first, trace_path
        )
        if not quick:
            # One pass of 1/20-scale simulations holds too few samples
            # for this check.
            check_coverage(gate, workload, pairs)
    else:
        rss = peak_rss_self() if quick else peak_rss_child(workload, seed)
        section["metrics"] = end_to_end(passes, host.samples, rss)
    found = fidelity(passes[0])
    if found is not None:
        section["fidelity"] = found
    section["attempted"] = gate.attempted
    section["failed"] = gate.failed
    section["failed_frac"] = gate.failed / gate.attempted
    section["failures"] = gate.failures
    return section

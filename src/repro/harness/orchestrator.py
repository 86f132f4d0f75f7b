"""Resilient process-parallel sweep orchestrator.

The paper's evaluation is a matrix of (workload, policy, config) runs;
this module schedules that matrix over worker processes with the fault
tolerance a long sweep needs:

* every task is a self-contained :class:`SweepTask` carrying the full
  effective :class:`~repro.config.SystemConfig`, so workers reproduce
  exactly the runs a sequential :class:`~repro.harness.experiment.
  ExperimentRunner` would perform — never a silently-default config;
* one worker process per in-flight task: a crash (``os._exit``, OOM
  kill, segfault) or a hang (caught by the per-task timeout) fails only
  that task, which is retried with exponential backoff and finally
  reported — it never takes down the sweep;
* when process support is unavailable the sweep degrades gracefully to
  inline execution (retries still apply; timeouts cannot be enforced
  in-process);
* with ``cache_dir`` set, workers share the on-disk
  :class:`~repro.harness.cache.DiskCachedRunner` result cache
  (versioned entries, atomic writes — see :mod:`repro.harness.cache`);
* progress and the final summary are emitted through the
  ``harness.sweep.*`` metrics of the :mod:`repro.obs` catalog.

Usage::

    from repro.harness.orchestrator import run_sweep

    summary = run_sweep(keys, base_config=config, workers=4)
    results = summary.results          # {RunKey: SimulationResult}
    print(summary.render())
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import multiprocessing.connection
import os
import time
import traceback
from collections import deque
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.config import SystemConfig
from repro.errors import ReproError
from repro.harness.experiment import ExperimentRunner, RunKey
from repro.obs import catalog
from repro.obs.aggregate import (
    TaskTelemetry,
    TelemetryError,
    telemetry_from_payload,
)
from repro.obs.metrics import MetricsRegistry
from repro.sim.result import SimulationResult

#: Default number of retries after a failed first attempt.
DEFAULT_RETRIES = 2

#: Base of the exponential retry backoff, in seconds.
DEFAULT_BACKOFF = 0.25

#: Exit code an injected crash dies with (distinctive in reports).
_INJECTED_EXIT = 113


class SweepError(ReproError):
    """A sweep finished with tasks that exhausted their retries."""


@dataclasses.dataclass(frozen=True)
class FaultInjection:
    """Deterministic first-attempt failure, for tests and CI drills.

    The marker file records "already fired" across processes, so the
    injected failure hits exactly one attempt and the retry succeeds.
    """

    #: File created when the injection fires; its existence disarms it.
    marker_path: str
    #: ``crash`` (child ``os._exit``), ``raise`` (worker exception), or
    #: ``hang`` (sleep past the per-task timeout).
    mode: str = "crash"
    #: How long ``hang`` mode sleeps before proceeding normally.
    hang_seconds: float = 60.0

    def fire(self, inline: bool) -> None:
        """Fail this attempt if the marker does not exist yet."""
        try:
            fd = os.open(
                self.marker_path,
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            return
        os.close(fd)
        if self.mode == "crash":
            if inline:
                # Degraded (in-process) execution must not kill the
                # orchestrator itself; surface the crash as an error.
                raise RuntimeError("injected crash (inline execution)")
            os._exit(_INJECTED_EXIT)
        if self.mode == "raise":
            raise RuntimeError("injected failure")
        time.sleep(self.hang_seconds)


@dataclasses.dataclass(frozen=True)
class SweepTask:
    """Everything a worker needs to reproduce one run, self-contained."""

    key: RunKey
    #: The caller's *effective* base configuration; the worker replays
    #: the key against this exact config, not a default one.
    base_config: SystemConfig
    #: Shared on-disk result cache directory (None: no disk cache).
    cache_dir: str | None = None
    #: Observability artifact export directory (None: no export).
    artifacts_dir: str | None = None
    injection: FaultInjection | None = None
    #: Record spans + metrics in the worker and ship them back to the
    #: orchestrator.  Observed runs always simulate fresh (the disk
    #: cache stores result summaries, not spans), so ``cache_dir`` is
    #: bypassed while observing.
    observe: bool = False
    #: Directory oversized telemetry payloads spill into as artifact
    #: files instead of travelling over the result pipe.
    telemetry_dir: str | None = None


def execute_task_observed(
    task: SweepTask, inline: bool = True
) -> Tuple[SimulationResult, TaskTelemetry | None]:
    """Run one task; returns its result plus telemetry if observed.

    Telemetry comes from exactly this attempt's fresh
    :class:`~repro.obs.RunObservation` — a retried task therefore
    carries only the successful attempt's counters, never a partial
    double-count from failed attempts.
    """
    if task.injection is not None:
        task.injection.fire(inline)
    if task.observe:
        runner = ExperimentRunner(
            base_config=task.base_config,
            scale=task.key.scale,
            artifacts_dir=task.artifacts_dir,
            observe=True,
        )
    elif task.cache_dir is not None:
        from repro.harness.cache import DiskCachedRunner

        runner: ExperimentRunner = DiskCachedRunner(
            task.cache_dir,
            base_config=task.base_config,
            scale=task.key.scale,
            artifacts_dir=task.artifacts_dir,
        )
    else:
        runner = ExperimentRunner(
            base_config=task.base_config,
            scale=task.key.scale,
            artifacts_dir=task.artifacts_dir,
        )
    started = time.perf_counter()
    result = runner.run(task.key)
    wall = time.perf_counter() - started
    telemetry = None
    if task.observe and runner.last_observation is not None:
        telemetry = TaskTelemetry.from_observation(
            task_id=_task_id(task.key),
            workload=task.key.workload,
            policy=task.key.policy,
            observation=runner.last_observation,
            dropped_events=int(
                result.details.get("dropped_events", 0) or 0
            ),
            wall_seconds=wall,
        )
    return result, telemetry


def execute_task(task: SweepTask, inline: bool = True) -> SimulationResult:
    """Run one task exactly as a sequential runner would."""
    return execute_task_observed(task, inline=inline)[0]


def _send_outcome(conn, payload) -> None:
    """Best-effort send to the parent; a dead pipe is not our problem
    (the parent already classifies a silent child as a crash)."""
    try:
        conn.send(payload)
    except (OSError, ValueError, TypeError):
        pass


def _worker_main(task: SweepTask, conn) -> None:
    """Child-process entry point: run the task, ship the outcome.

    A success is reported as ``("ok", (result, telemetry_payload))``
    where the payload is None for unobserved tasks, an inline dict for
    small telemetry, or a spill-file reference for large traces (see
    :mod:`repro.obs.aggregate`).  Task failures are reported over the
    pipe as ``("error", tb)``.  Cancellation (KeyboardInterrupt/
    SystemExit) is reported too but then re-raised so the child dies
    with a nonzero exit status instead of masquerading as a clean run.
    """
    try:
        result, telemetry = execute_task_observed(task, inline=False)
        payload = None
        if telemetry is not None:
            payload = telemetry.to_payload(task.telemetry_dir)
        _send_outcome(conn, ("ok", (result, payload)))
    except Exception:
        _send_outcome(conn, ("error", traceback.format_exc()))
    except BaseException:
        _send_outcome(conn, ("error", traceback.format_exc()))
        raise
    finally:
        conn.close()


@dataclasses.dataclass
class TaskAttempt:
    """One attempt at one task."""

    outcome: str  # "ok" | "error" | "crash" | "timeout"
    duration: float
    error: str = ""


@dataclasses.dataclass
class TaskReport:
    """Full attempt history of one task."""

    key: RunKey
    attempts: List[TaskAttempt] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.attempts) and self.attempts[-1].outcome == "ok"

    @property
    def retries(self) -> int:
        return max(0, len(self.attempts) - 1)


def result_digest(result: SimulationResult) -> str:
    """Stable hash of everything the figures consume from a result.

    Two runs with equal digests are bit-identical in cycles, counters,
    and latency breakdown — the equivalence the CI sweep smoke checks.
    """
    from repro.harness.cache import _serialize

    payload = json.dumps(_serialize(result), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _task_id(key: RunKey) -> str:
    digest = hashlib.sha1(repr(key).encode("utf-8")).hexdigest()[:8]
    return f"{key.workload}/{key.policy}-{digest}"


@dataclasses.dataclass
class SweepSummary:
    """Results plus the fault-tolerance story of one sweep."""

    results: Dict[RunKey, SimulationResult]
    reports: List[TaskReport]
    workers: int
    elapsed: float
    #: Per-task observability shipped back by observed workers, keyed
    #: like ``results``; populated only for ``observe=True`` tasks and
    #: always from the successful attempt alone.
    telemetry: Dict[RunKey, TaskTelemetry] = dataclasses.field(
        default_factory=dict
    )

    @property
    def tasks(self) -> int:
        return len(self.reports)

    @property
    def completed(self) -> int:
        return sum(1 for report in self.reports if report.ok)

    @property
    def failures(self) -> int:
        return sum(1 for report in self.reports if not report.ok)

    @property
    def retries(self) -> int:
        return sum(report.retries for report in self.reports)

    def _attempt_count(self, outcome: str) -> int:
        return sum(
            1
            for report in self.reports
            for attempt in report.attempts
            if attempt.outcome == outcome
        )

    @property
    def timeouts(self) -> int:
        return self._attempt_count("timeout")

    @property
    def crashes(self) -> int:
        return self._attempt_count("crash")

    def failed_keys(self) -> List[RunKey]:
        return [report.key for report in self.reports if not report.ok]

    def render(self) -> str:
        """Human-readable sweep summary."""
        lines = [
            f"sweep: {self.tasks} tasks, {self.completed} completed, "
            f"{self.failures} failed in {self.elapsed:.1f}s "
            f"(workers={self.workers})",
            f"  retries={self.retries} timeouts={self.timeouts} "
            f"crashes={self.crashes}",
        ]
        for report in self.reports:
            if not report.attempts or (
                report.ok and len(report.attempts) == 1
            ):
                continue
            history = ",".join(a.outcome for a in report.attempts)
            lines.append(f"  {_task_id(report.key)}: {history}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-friendly view (``repro sweep --summary-json``)."""
        return {
            "tasks": self.tasks,
            "completed": self.completed,
            "failures": self.failures,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "workers": self.workers,
            "elapsed": self.elapsed,
            "results": {
                _task_id(key): {
                    "workload": key.workload,
                    "policy": key.policy,
                    "total_cycles": result.total_cycles,
                    "digest": result_digest(result),
                }
                for key, result in sorted(
                    self.results.items(), key=lambda kv: _task_id(kv[0])
                )
            },
        }


@dataclasses.dataclass
class _InFlight:
    task: SweepTask
    attempt: int
    process: multiprocessing.process.BaseProcess
    conn: "multiprocessing.connection.Connection"
    started: float
    deadline: float | None
    result: SimulationResult | None = None
    telemetry: TaskTelemetry | None = None


class SweepOrchestrator:
    """Schedules :class:`SweepTask` lists with retry and isolation.

    ``retries`` is the number of *re*-attempts after a failed first
    try; ``timeout`` is the per-attempt wall-clock budget in seconds
    (None: unlimited); ``backoff`` is the base of the exponential
    retry delay.  ``progress`` receives one line per terminal task
    event; metrics land in ``registry`` (a fresh sweep registry from
    the obs catalog by default).
    """

    def __init__(
        self,
        workers: int | None = None,
        timeout: float | None = None,
        retries: int = DEFAULT_RETRIES,
        backoff: float = DEFAULT_BACKOFF,
        registry: MetricsRegistry | None = None,
        progress: Callable[[str], None] | None = None,
        mp_context: multiprocessing.context.BaseContext | None = None,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.registry = registry or catalog.build_sweep_registry()
        self.progress = progress
        self.mp_context = mp_context
        self._samples = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(self, tasks: Sequence[SweepTask]) -> SweepSummary:
        """Execute every task; never raises on task failure."""
        unique: List[SweepTask] = []
        seen = set()
        for task in tasks:
            if task.key not in seen:
                seen.add(task.key)
                unique.append(task)
        started = time.monotonic()
        self.registry.inc(catalog.SWEEP_TASKS, len(unique))
        reports = {task.key: TaskReport(key=task.key) for task in unique}
        results: Dict[RunKey, SimulationResult] = {}
        telemetry: Dict[RunKey, TaskTelemetry] = {}
        requested = self.workers
        if requested is None:
            requested = os.cpu_count() or 1
        # Process isolation is decided by the *requested* parallelism:
        # a one-task sweep with workers=2 still runs in a worker so a
        # crash or timeout cannot take down the orchestrator.
        workers = max(1, min(requested, len(unique) or 1))
        if requested <= 1:
            self._run_inline(unique, results, reports, telemetry)
        else:
            try:
                self._run_pooled(
                    unique, results, reports, telemetry, workers
                )
            except (OSError, ImportError) as error:
                # Platforms without working process support: degrade to
                # inline execution for everything not yet resolved.
                self._emit(
                    f"process pool unavailable ({error}); "
                    f"running inline"
                )
                workers = 1
                remaining = [
                    task for task in unique if task.key not in results
                ]
                for key in list(reports):
                    if key not in results:
                        reports[key].attempts.clear()
                self._run_inline(remaining, results, reports, telemetry)
        summary = SweepSummary(
            results=results,
            reports=[reports[task.key] for task in unique],
            workers=workers,
            elapsed=time.monotonic() - started,
            telemetry=telemetry,
        )
        return summary

    # ------------------------------------------------------------------
    # inline (degraded) execution
    # ------------------------------------------------------------------

    def _run_inline(
        self,
        tasks: Sequence[SweepTask],
        results: Dict[RunKey, SimulationResult],
        reports: Dict[RunKey, TaskReport],
        telemetry: Dict[RunKey, TaskTelemetry],
    ) -> None:
        for task in tasks:
            for attempt in range(1, self.retries + 2):
                begin = time.monotonic()
                try:
                    result, observed = execute_task_observed(
                        task, inline=True
                    )
                except Exception:
                    self._record(
                        reports[task.key],
                        TaskAttempt(
                            outcome="error",
                            duration=time.monotonic() - begin,
                            error=traceback.format_exc(),
                        ),
                        will_retry=attempt <= self.retries,
                    )
                    if attempt <= self.retries:
                        time.sleep(self._delay(attempt))
                        continue
                    break
                results[task.key] = result
                if observed is not None:
                    telemetry[task.key] = observed
                    self._record_telemetry(observed)
                self._record(
                    reports[task.key],
                    TaskAttempt(
                        outcome="ok",
                        duration=time.monotonic() - begin,
                    ),
                    will_retry=False,
                )
                break

    # ------------------------------------------------------------------
    # pooled execution
    # ------------------------------------------------------------------

    def _run_pooled(
        self,
        tasks: Sequence[SweepTask],
        results: Dict[RunKey, SimulationResult],
        reports: Dict[RunKey, TaskReport],
        telemetry: Dict[RunKey, TaskTelemetry],
        workers: int,
    ) -> None:
        ctx = self.mp_context or multiprocessing.get_context()
        pending: deque[Tuple[SweepTask, int]] = deque(
            (task, 1) for task in tasks
        )
        delayed: List[Tuple[float, SweepTask, int]] = []
        running: Dict[RunKey, _InFlight] = {}
        while pending or delayed or running:
            now = time.monotonic()
            if delayed:
                ready = [
                    item for item in delayed if item[0] <= now
                ]
                for item in ready:
                    delayed.remove(item)
                    pending.append((item[1], item[2]))
            while pending and len(running) < workers:
                task, attempt = pending.popleft()
                running[task.key] = self._spawn(ctx, task, attempt)
            self._wait(running, delayed)
            for key in list(running):
                flight = running[key]
                outcome = self._poll(flight)
                if outcome is None:
                    continue
                del running[key]
                self._resolve(
                    flight, outcome, results, reports, telemetry,
                    delayed,
                )

    def _spawn(
        self,
        ctx: multiprocessing.context.BaseContext,
        task: SweepTask,
        attempt: int,
    ) -> _InFlight:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_worker_main,
            args=(task, child_conn),
            daemon=True,
        )
        process.start()
        child_conn.close()
        now = time.monotonic()
        deadline = None if self.timeout is None else now + self.timeout
        return _InFlight(
            task=task,
            attempt=attempt,
            process=process,
            conn=parent_conn,
            started=now,
            deadline=deadline,
        )

    def _wait(
        self,
        running: Dict[RunKey, _InFlight],
        delayed: List[Tuple[float, SweepTask, int]],
    ) -> None:
        """Block until a worker speaks, dies, or a deadline nears."""
        if not running:
            if delayed:
                horizon = min(item[0] for item in delayed)
                time.sleep(
                    min(0.5, max(0.0, horizon - time.monotonic()))
                )
            return
        budget = 0.5
        now = time.monotonic()
        for flight in running.values():
            if flight.deadline is not None:
                budget = min(budget, max(0.0, flight.deadline - now))
        for item in delayed:
            budget = min(budget, max(0.0, item[0] - now))
        sentinels = [flight.process.sentinel for flight in running.values()]
        conns = [flight.conn for flight in running.values()]
        multiprocessing.connection.wait(
            conns + sentinels, timeout=budget
        )

    def _poll(self, flight: _InFlight) -> TaskAttempt | None:
        """Terminal outcome of an in-flight attempt, if it has one."""
        now = time.monotonic()
        if flight.conn.poll():
            try:
                kind, payload = flight.conn.recv()
            except (EOFError, OSError):
                return self._reap_dead(flight, now)
            flight.process.join(timeout=5.0)
            flight.conn.close()
            if kind == "ok":
                result, tel_payload = payload
                flight.result = result
                if tel_payload is not None:
                    try:
                        flight.telemetry = telemetry_from_payload(
                            tel_payload
                        )
                    except TelemetryError as error:
                        # Telemetry is best-effort side data; a decode
                        # failure must not fail the (successful) task.
                        self._emit(
                            f"{_task_id(flight.task.key)}: telemetry "
                            f"dropped ({error})"
                        )
                return TaskAttempt(
                    outcome="ok", duration=now - flight.started
                )
            return TaskAttempt(
                outcome="error",
                duration=now - flight.started,
                error=str(payload),
            )
        if not flight.process.is_alive():
            return self._reap_dead(flight, now)
        if flight.deadline is not None and now >= flight.deadline:
            self._kill(flight)
            return TaskAttempt(
                outcome="timeout",
                duration=now - flight.started,
                error=f"exceeded {self.timeout}s",
            )
        return None

    def _reap_dead(self, flight: _InFlight, now: float) -> TaskAttempt:
        flight.process.join(timeout=5.0)
        flight.conn.close()
        code = flight.process.exitcode
        return TaskAttempt(
            outcome="crash",
            duration=now - flight.started,
            error=f"worker died with exit code {code}",
        )

    def _kill(self, flight: _InFlight) -> None:
        flight.process.terminate()
        flight.process.join(timeout=1.0)
        if flight.process.is_alive():
            flight.process.kill()
            flight.process.join(timeout=5.0)
        flight.conn.close()

    def _resolve(
        self,
        flight: _InFlight,
        attempt: TaskAttempt,
        results: Dict[RunKey, SimulationResult],
        reports: Dict[RunKey, TaskReport],
        telemetry: Dict[RunKey, TaskTelemetry],
        delayed: List[Tuple[float, SweepTask, int]],
    ) -> None:
        key = flight.task.key
        if attempt.outcome == "ok":
            assert flight.result is not None
            results[key] = flight.result
            # Only the successful attempt carries telemetry (failed
            # attempts never ship any), so a retried task contributes
            # exactly one clean run's counters to the aggregate.
            if flight.telemetry is not None:
                telemetry[key] = flight.telemetry
                self._record_telemetry(flight.telemetry)
            self._record(reports[key], attempt, will_retry=False)
            return
        will_retry = flight.attempt <= self.retries
        self._record(reports[key], attempt, will_retry=will_retry)
        if will_retry:
            delayed.append(
                (
                    time.monotonic() + self._delay(flight.attempt),
                    flight.task,
                    flight.attempt + 1,
                )
            )

    # ------------------------------------------------------------------
    # shared bookkeeping
    # ------------------------------------------------------------------

    def _delay(self, attempt: int) -> float:
        return self.backoff * (2 ** (attempt - 1))

    def _record(
        self, report: TaskReport, attempt: TaskAttempt, will_retry: bool
    ) -> None:
        report.attempts.append(attempt)
        registry = self.registry
        if attempt.outcome == "ok":
            registry.inc(catalog.SWEEP_COMPLETED)
        elif attempt.outcome == "timeout":
            registry.inc(catalog.SWEEP_TIMEOUTS)
        elif attempt.outcome == "crash":
            registry.inc(catalog.SWEEP_CRASHES)
        if attempt.outcome != "ok":
            if will_retry:
                registry.inc(catalog.SWEEP_RETRIES)
            else:
                registry.inc(catalog.SWEEP_FAILURES)
        registry.sample(self._sample_ts())
        key = report.key
        status = attempt.outcome + (" -> retry" if will_retry else "")
        self._emit(
            f"{key.workload}/{key.policy} attempt "
            f"{len(report.attempts)}: {status} "
            f"({attempt.duration:.1f}s)"
        )

    def _record_telemetry(self, telemetry: TaskTelemetry) -> None:
        """Account one successful task's shipped telemetry.

        The sweep registry is wall-clock-domain by contract (like the
        retry/timeout counters), but every value counted below
        (span/drop counts, payload bytes) is a deterministic function
        of the simulated run.
        """
        registry = self.registry
        registry.inc(catalog.SWEEP_WORKER_SPANS, len(telemetry.spans))
        if telemetry.dropped_spans:
            registry.inc(
                catalog.SWEEP_WORKER_DROPPED_SPANS,
                telemetry.dropped_spans,
            )
        if telemetry.dropped_events:
            registry.inc(
                catalog.SWEEP_WORKER_DROPPED_EVENTS,
                telemetry.dropped_events,
            )
        if telemetry.payload_bytes:
            registry.inc(
                catalog.SWEEP_WORKER_TELEMETRY_BYTES,
                telemetry.payload_bytes,
            )
        if telemetry.spilled:
            registry.inc(catalog.SWEEP_WORKER_SPILLS)

    def _sample_ts(self) -> int:
        self._samples += 1
        return self._samples

    def _emit(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)


def tasks_for(
    keys: Sequence[RunKey],
    base_config: SystemConfig | None = None,
    cache_dir: str | None = None,
    artifacts_dir: str | None = None,
    injections: Dict[RunKey, FaultInjection] | None = None,
    observe: bool = False,
    telemetry_dir: str | None = None,
) -> List[SweepTask]:
    """Wrap run keys into self-contained sweep tasks."""
    config = base_config or SystemConfig()
    injections = injections or {}
    return [
        SweepTask(
            key=key,
            base_config=config,
            cache_dir=cache_dir,
            artifacts_dir=artifacts_dir,
            injection=injections.get(key),
            observe=observe,
            telemetry_dir=telemetry_dir,
        )
        for key in keys
    ]


def run_sweep(
    keys: Sequence[RunKey],
    base_config: SystemConfig | None = None,
    workers: int | None = None,
    timeout: float | None = None,
    retries: int = DEFAULT_RETRIES,
    backoff: float = DEFAULT_BACKOFF,
    cache_dir: str | None = None,
    artifacts_dir: str | None = None,
    injections: Dict[RunKey, FaultInjection] | None = None,
    registry: MetricsRegistry | None = None,
    progress: Callable[[str], None] | None = None,
    observe: bool = False,
    telemetry_dir: str | None = None,
) -> SweepSummary:
    """One-call resilient sweep over ``keys``; see the module docs."""
    orchestrator = SweepOrchestrator(
        workers=workers,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        registry=registry,
        progress=progress,
    )
    return orchestrator.run(
        tasks_for(
            keys,
            base_config=base_config,
            cache_dir=cache_dir,
            artifacts_dir=artifacts_dir,
            injections=injections,
            observe=observe,
            telemetry_dir=telemetry_dir,
        )
    )


# ----------------------------------------------------------------------
# key-level front-end (the programmatic sweep API)
# ----------------------------------------------------------------------


def run_keys_parallel(
    keys: Sequence[RunKey],
    workers: int | None = None,
    base_config: SystemConfig | None = None,
    artifacts_dir: str | None = None,
    cache_dir: str | None = None,
) -> Dict[RunKey, SimulationResult]:
    """Simulate every key, fanning out across worker processes.

    ``workers`` defaults to the CPU count (capped by the number of
    keys).  With ``workers=1`` the sweep runs inline, which is also
    the fallback on platforms without process support.  Raises
    :class:`SweepError` if any key still fails after the
    orchestrator's retries.
    """
    summary = run_sweep(
        keys,
        base_config=base_config,
        workers=workers,
        cache_dir=cache_dir,
        artifacts_dir=artifacts_dir,
    )
    failed = summary.failed_keys()
    if failed:
        labels = ", ".join(
            f"{key.workload}/{key.policy}" for key in failed
        )
        raise SweepError(f"sweep failed for: {labels}")
    return dict(summary.results)


def warm_runner_parallel(
    runner: "ExperimentRunner",
    keys: Iterable[RunKey],
    workers: int | None = None,
) -> "ExperimentRunner":
    """Pre-populate a runner's cache using worker processes.

    The runner's own ``base_config``, ``artifacts_dir``, and (for a
    :class:`~repro.harness.cache.DiskCachedRunner`) disk cache
    directory are forwarded to the workers, so the warmed cache holds
    exactly what sequential ``runner.run`` calls would have produced.
    After warming, every figure function that only touches ``keys``
    serves from cache — the pattern for fast whole-report regeneration:

        runner = ExperimentRunner(scale=0.25)
        warm_runner_parallel(runner, all_keys)
        write_report("REPORT.md", runner=runner)
    """
    results = run_keys_parallel(
        list(keys),
        workers=workers,
        base_config=runner.base_config,
        artifacts_dir=runner.artifacts_dir,
        cache_dir=getattr(runner, "cache_dir", None),
    )
    runner._cache.update(results)
    return runner


def headline_keys(runner: "ExperimentRunner") -> List[RunKey]:
    """The run set behind Figures 1/17/18/19 — the usual warm-up."""
    from repro.harness.experiment import PAPER_APPS

    policies = (
        "on_touch",
        "access_counter",
        "duplication",
        "grit",
        "ideal",
    )
    return [
        runner.key(app, policy)
        for app in PAPER_APPS
        for policy in policies
    ]

"""Process-pool fan-out for sweeps of deterministic runs.

The paper's evaluation is a matrix of (workload, policy, config) runs;
this module spreads that matrix over a
:class:`concurrent.futures.ProcessPoolExecutor`:

* every task is a self-contained :class:`SweepTask` carrying the full
  effective :class:`~repro.config.SystemConfig`, so workers reproduce
  exactly the runs a sequential :class:`~repro.harness.experiment.
  ExperimentRunner` would perform — never a silently-default config;
* the first failing task stops the sweep: queued tasks are cancelled
  and :class:`SweepError` names the failing ``workload/policy``,
  chained to the worker's exception.  The simulator is deterministic,
  so a failure is a bug that running the task again would repeat;
* with ``cache_dir`` set, workers share the on-disk
  :class:`~repro.harness.cache.DiskCachedRunner` result cache, whose
  atomic writes make concurrent workers safe.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Dict, Iterable, Sequence

from repro.config import SystemConfig
from repro.errors import ReproError
from repro.harness.experiment import ExperimentRunner, RunKey
from repro.sim.result import SimulationResult


class SweepError(ReproError):
    """A sweep task failed; the message names its workload/policy."""


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


def execute_task(task: SweepTask) -> SimulationResult:
    """Run one task exactly as a sequential runner would."""
    if task.cache_dir is not None:
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
    return runner.run(task.key)


def run_keys_parallel(
    keys: Sequence[RunKey],
    workers: int | None = None,
    base_config: SystemConfig | None = None,
    artifacts_dir: str | None = None,
    cache_dir: str | None = None,
) -> Dict[RunKey, SimulationResult]:
    """Simulate every distinct key in a pool of worker processes.

    ``workers`` defaults to the CPU count; the pool never starts more
    processes than there are distinct keys.  Raises :class:`SweepError`
    at the first key whose simulation fails.
    """
    config = base_config or SystemConfig()
    unique = list(dict.fromkeys(keys))
    if not unique:
        return {}
    if workers is None:
        workers = os.cpu_count() or 1
    results: Dict[RunKey, SimulationResult] = {}
    # Spawned workers start from a fresh import: forking a parent that
    # runs threads can deadlock the child.
    with ProcessPoolExecutor(
        max_workers=min(workers, len(unique)),
        mp_context=multiprocessing.get_context("spawn"),
    ) as pool:
        futures = {
            pool.submit(
                execute_task,
                SweepTask(key, config, cache_dir, artifacts_dir),
            ): key
            for key in unique
        }
        for future in as_completed(futures):
            key = futures[future]
            try:
                results[key] = future.result()
            except Exception as error:
                pool.shutdown(cancel_futures=True)
                raise SweepError(
                    f"{key.workload}/{key.policy}: "
                    f"{type(error).__name__}: {error}"
                ) from error
    return {key: results[key] for key in unique}


def warm_runner_parallel(
    runner: ExperimentRunner,
    keys: Iterable[RunKey],
    workers: int | None = None,
) -> ExperimentRunner:
    """Pre-populate a runner's cache using worker processes.

    The runner's own ``base_config``, ``artifacts_dir``, and (for a
    :class:`~repro.harness.cache.DiskCachedRunner`) disk cache
    directory are forwarded to the workers, so the warmed cache holds
    exactly what sequential ``runner.run`` calls would have produced.
    After warming, every figure function that only touches ``keys``
    serves from cache — the pattern for fast whole-report regeneration:

        runner = ExperimentRunner(scale=0.25)
        warm_runner_parallel(runner, warmup_keys(runner))
        text = generate_report(runner=runner)
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

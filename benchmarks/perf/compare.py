"""Verdicts for a change against its parent, from result files.

Each result file is one run of ``python -m benchmarks.perf run``.  For
every workload and end-to-end metric of ``BENCHMARK.json`` the base
runs (the parent) and the new runs (the change) give one verdict:

``regressed``
    the new median is worse than the base median by more than the
    metric's bound;
``unresolved``
    the base runs spread (q3 - q1) wider than the bound, unless every
    new run reads better than every base run;
``improved``
    the new run wins at least 9 in 10 of the pairs (base[i], new[i]),
    ties counting for neither, and the medians differ by more than the
    base spread;
``no worse``
    anything else.

A metric's bound is its share of the base median from
``BENCHMARK.json``, but never less than its :data:`FLOORS` entry.
"""

from __future__ import annotations

import json
import pathlib
import statistics
from typing import Dict, List, Sequence, Tuple

BENCHMARK_JSON = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Absolute bounds, in the metric's unit, below which a share-of-median
#: bound does not go.  Set-up takes 5-67 ms a pass, 1-3 % of the wall
#: time; a 25 % share of the smallest is about 1 ms, less than one
#: set-up of a few milliseconds moves between runs.
FLOORS = {"setup_s": 0.002}


def load_spec() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def _spread(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(
    base: Sequence[float],
    new: Sequence[float],
    better: str,
    bound: float,
    floor: float = 0.0,
) -> str:
    """One metric's verdict; ``better`` is ``higher`` or ``lower``.

    ``bound`` is a share of the base median; ``floor`` an absolute
    minimum of the allowed worsening, in the metric's unit.
    """
    sign = 1.0 if better == "higher" else -1.0
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    spread = _spread(base)
    allowed = max(bound * abs(base_median), floor)
    if sign * (base_median - new_median) > allowed:
        return "regressed"
    every_run_better = all(
        sign * (n - b) > 0 for n in new for b in base
    )
    if spread > allowed and not every_run_better:
        return "unresolved"
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if (
        pairs
        and wins >= 0.9 * len(pairs)
        and sign * (new_median - base_median) > spread
    ):
        return "improved"
    return "no worse"


def _collect(paths: Sequence[str]) -> Tuple[Dict[str, Dict[str, List[float]]], int]:
    """``workload -> metric -> values`` over the files, and failed runs."""
    values: Dict[str, Dict[str, List[float]]] = {}
    failed = 0
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        for workload, section in document["workloads"].items():
            failed += section["failed"] > 0
            for name, metric in section.get("metrics", {}).items():
                values.setdefault(workload, {}).setdefault(name, []).append(
                    metric["value"]
                )
    return values, failed


def compare(base_paths: Sequence[str], new_paths: Sequence[str]) -> int:
    """Print one verdict per workload x metric; 1 on any regression."""
    spec = load_spec()
    base, base_failed = _collect(base_paths)
    new, new_failed = _collect(new_paths)
    status = 0
    print(f"{'workload':22} {'metric':18} {'base median':>13} "
          f"{'new median':>13}  verdict")
    for workload in sorted(set(base) & set(new)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in base[workload] or name not in new[workload]:
                continue
            b, n = base[workload][name], new[workload][name]
            found = verdict(
                b, n, metric["better"], metric["bound"], FLOORS.get(name, 0.0)
            )
            status |= found == "regressed"
            print(f"{workload:22} {name:18} {statistics.median(b):13.6g} "
                  f"{statistics.median(n):13.6g}  {found}")
    if new_failed > base_failed:
        print(f"new runs with failed simulations: {new_failed}")
        status = 1
    return status

"""Every simulated result the repo pins, in one capture.

``tests/data/mode_golden.json`` records the full result of each
``mode/workload/policy`` key of :data:`MODES` at scale 0.05: total and
per-GPU cycles, every counter, the Fig. 3 breakdown and
``result.details``.  Each key runs twice, with the steady-state fast
path on (as captured) and off (``-no-fast-path`` ids).  Off, every
access takes the full pipeline; the result must be the captured one,
except that the two fast-path diagnostics read 0.

Regenerate the capture (only for a deliberate change of results) with::

    PYTHONPATH=src python tests/sim/test_mode_golden.py
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.config import SystemConfig
from repro.policies import available_policies, make_policy
from repro.prefetch import TreePrefetcher
from repro.sim.engine import simulate
from repro.workloads.registry import PAPER_APPS, make_workload

GOLDEN_PATH = (
    pathlib.Path(__file__).parent.parent / "data" / "mode_golden.json"
)

#: Trace scale of every captured run.
SCALE = 0.05

#: The paper's three uniform schemes and GRIT.
SCHEMES = ("access_counter", "duplication", "grit", "on_touch")

#: st, bfs and fir under every registered policy.
ALL_POLICIES = [
    (workload, policy)
    for workload in ("st", "bfs", "fir")
    for policy in available_policies()
]

#: The eight Table II apps under :data:`SCHEMES`.
PAPER_MATRIX = [
    (workload, policy) for workload in PAPER_APPS for policy in SCHEMES
]

#: Mode name -> (SystemConfig overrides, tree prefetcher on,
#: (workload, policy) cells).
MODES = {
    "flat-4k": ({}, False, sorted({*ALL_POLICIES, *PAPER_MATRIX})),
    "nvswitch-8gpu": (
        {"num_gpus": 8, "topology": "nvswitch"}, False, PAPER_MATRIX
    ),
    "2gpu": (
        {"num_gpus": 2},
        False,
        [("fir", "on_touch"), ("fir", "grit"), ("st", "grit"),
         ("bfs", "grit")],
    ),
    "64k": ({"page_size": 65536}, False, ALL_POLICIES),
    "queued-4gpu": ({"contention": "queued"}, False, ALL_POLICIES),
    "queued-8gpu-nvswitch": (
        {"num_gpus": 8, "topology": "nvswitch", "contention": "queued"},
        False,
        ALL_POLICIES,
    ),
    "batch16": ({"fault_batch_size": 16}, False, ALL_POLICIES),
    "prefetch": ({}, True, ALL_POLICIES),
}

#: Counters only the fast path increments; both read 0 with it off.
FAST_PATH_DIAGNOSTICS = ("fastpath_accesses", "fastpath_runs")


def matrix() -> list[str]:
    """``mode/workload/policy`` keys of the capture."""
    return [
        f"{mode}/{workload}/{policy}"
        for mode, (_, _, cells) in MODES.items()
        for workload, policy in cells
    ]


def record(
    config: SystemConfig, workload: str, policy: str, prefetch: bool = False
) -> dict:
    """One run at :data:`SCALE`, as the capture records it."""
    trace = make_workload(workload, num_gpus=config.num_gpus, scale=SCALE)
    result = simulate(
        config,
        trace,
        make_policy(policy),
        prefetcher=TreePrefetcher() if prefetch else None,
    )
    return {
        "total_cycles": result.total_cycles,
        "per_gpu_cycles": result.per_gpu_cycles,
        "counters": result.counters.as_dict(),
        "breakdown": result.breakdown.as_dict(),
        "details": result.details,
    }


def run(key: str, fast_path: bool = True) -> dict:
    """The run of one capture key."""
    mode, workload, policy = key.split("/")
    overrides, prefetch, _ = MODES[mode]
    config = SystemConfig(**overrides, fast_path=fast_path)
    return record(config, workload, policy, prefetch)


def capture() -> dict:
    """The whole matrix, as committed in :data:`GOLDEN_PATH`."""
    return {key: run(key) for key in matrix()}


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


@pytest.mark.parametrize(
    "key,fast_path",
    [pytest.param(key, True, id=key) for key in matrix()]
    + [
        pytest.param(key, False, id=f"{key}-no-fast-path")
        for key in matrix()
    ],
)
def test_mode_matches_golden(key, fast_path):
    want = GOLDEN[key]
    if not fast_path:
        counters = dict(want["counters"])
        counters.update(dict.fromkeys(FAST_PATH_DIAGNOSTICS, 0))
        want = {**want, "counters": counters}
    # Compared as JSON, the form the capture was stored in.
    assert json.loads(json.dumps(run(key, fast_path))) == want


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(capture(), indent=1, sort_keys=True) + "\n"
    )

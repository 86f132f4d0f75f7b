"""Every simulator mode reproduces its committed capture.

The pipeline goldens pin flat timing at 4 KiB pages for four policies.
``tests/data/mode_golden.json`` pins the rest: st, bfs and fir at scale
0.05 under all 12 registered policies, in each of the modes below.  The
flat 4 KiB mode holds only the policies the pipeline goldens lack.

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
from repro.workloads.registry import make_workload

GOLDEN_PATH = (
    pathlib.Path(__file__).parent.parent / "data" / "mode_golden.json"
)

WORKLOADS = ("st", "bfs", "fir")

#: Policies ``pipeline_golden.json`` already pins at flat 4 KiB.
PIPELINE_POLICIES = ("access_counter", "duplication", "grit", "on_touch")

#: Mode name -> (SystemConfig overrides, tree prefetcher on).
MODES = {
    "flat-4k": ({}, False),
    "64k": ({"page_size": 65536}, False),
    "queued-4gpu": ({"contention": "queued"}, False),
    "queued-8gpu-nvswitch": (
        {"num_gpus": 8, "topology": "nvswitch", "contention": "queued"},
        False,
    ),
    "batch16": ({"fault_batch_size": 16}, False),
    "prefetch": ({}, True),
}


def matrix() -> list[str]:
    """``mode/workload/policy`` keys of the capture."""
    keys = []
    for mode in MODES:
        for workload in WORKLOADS:
            for policy in available_policies():
                if mode == "flat-4k" and policy in PIPELINE_POLICIES:
                    continue
                keys.append(f"{mode}/{workload}/{policy}")
    return keys


def run(key: str) -> dict:
    """One run, flattened the way the pipeline goldens are."""
    mode, workload, policy = key.split("/")
    overrides, prefetch = MODES[mode]
    config = SystemConfig(**overrides)
    trace = make_workload(workload, num_gpus=config.num_gpus, scale=0.05)
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


def capture() -> dict:
    """The whole matrix, as committed in :data:`GOLDEN_PATH`."""
    return {key: run(key) for key in matrix()}


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


@pytest.mark.parametrize("key", matrix())
def test_mode_matches_golden(key):
    # Compared as JSON, the form the capture was stored in.
    assert json.loads(json.dumps(run(key))) == GOLDEN[key]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(capture(), indent=1, sort_keys=True) + "\n"
    )

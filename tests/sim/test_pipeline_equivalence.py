"""Batched fault servicing, and runs independent of the hash seed.

The inline pipeline (``fault_batch_size == 1``) is pinned bit-for-bit by
``tests/sim/test_mode_golden.py``.  Batching deliberately changes
timing, so beyond the golden's ``batch16`` mode batched runs are
checked for determinism and for the batching model's invariants.  A
hash-seed check confirms runs do not depend on the interpreter's
``PYTHONHASHSEED``.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.config import SystemConfig
from repro.policies import available_policies
from tests.sim.test_mode_golden import record


class TestInlineEquivalence:
    """batch_size 1 services every fault at the faulting access."""

    def test_inline_runs_form_no_batches(self):
        got = record(SystemConfig(), "bfs", "grit")
        assert got["counters"]["fault_batches"] == 0
        assert got["counters"]["coalesced_faults"] == 0


#: Runs every registered policy on st and bfs and prints the results
#: as JSON; executed in a fresh interpreter per hash seed.
_HASH_SEED_SCRIPT = """
import json
from repro.config import SystemConfig
from repro.policies import available_policies, make_policy
from repro.sim.engine import simulate
from repro.workloads.registry import make_workload

out = {}
for workload in ("st", "bfs"):
    trace = make_workload(workload, num_gpus=4, scale=0.05)
    for policy in available_policies():
        result = simulate(SystemConfig(num_gpus=4), trace, make_policy(policy))
        out[workload + "/" + policy] = {
            "total_cycles": result.total_cycles,
            "per_gpu_cycles": result.per_gpu_cycles,
            "counters": result.counters.as_dict(),
            "scheme_usage": sorted(
                (scheme.name, count)
                for scheme, count in result.counters.scheme_usage.items()
            ),
            "breakdown": result.breakdown.as_dict(),
        }
print(json.dumps(out, sort_keys=True))
"""


class TestHashSeedDeterminism:
    """Results do not depend on the interpreter's hash seed.

    Plain ``Enum`` members hash by name, so a set of ``Mechanic`` or
    ``EventKind`` values (or of strings) iterates in an order the seed
    decides.  Two fresh interpreters with different ``PYTHONHASHSEED``
    values must produce identical runs under every registered policy.
    """

    def test_runs_identical_under_two_hash_seeds(self):
        src_dir = str(pathlib.Path(repro.__file__).resolve().parents[1])
        procs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [src_dir, env.get("PYTHONPATH")])
            )
            procs.append(
                subprocess.Popen(
                    [sys.executable, "-c", _HASH_SEED_SCRIPT],
                    env=env,
                    stdout=subprocess.PIPE,
                    text=True,
                )
            )
        outputs = [proc.communicate(timeout=300)[0] for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0]
        seed0, seed1 = (json.loads(text) for text in outputs)
        assert len(seed0) == 2 * len(available_policies())
        for key in sorted(seed0):
            assert seed0[key] == seed1[key], key


class TestBatchedServicing:
    def test_batched_runs_are_deterministic(self):
        first = record(SystemConfig(fault_batch_size=16), "sc", "grit")
        second = record(SystemConfig(fault_batch_size=16), "sc", "grit")
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    @pytest.mark.parametrize(
        "policy", ["on_touch", "access_counter", "duplication", "grit"]
    )
    def test_batching_preserves_access_counts(self, policy):
        inline = record(SystemConfig(), "bfs", policy)
        batched = record(SystemConfig(fault_batch_size=16), "bfs", policy)
        # Every access is still replayed exactly once.
        for field in ("accesses", "reads", "writes"):
            assert (
                batched["counters"][field] == inline["counters"][field]
            )
        assert batched["counters"]["fault_batches"] >= 1

    def test_batching_amortizes_host_service(self):
        inline = record(SystemConfig(), "bfs", "on_touch")
        batched = record(
            SystemConfig(fault_batch_size=32), "bfs", "on_touch"
        )
        # One host round trip per batch instead of per fault.
        assert batched["total_cycles"] < inline["total_cycles"]
        assert (
            batched["counters"]["fault_batches"]
            < inline["counters"]["local_page_faults"]
        )

    def test_coalescing_drops_duplicate_faults(self):
        batched = record(SystemConfig(fault_batch_size=64), "sc", "grit")
        counters = batched["counters"]
        # Parallel streams re-fault hot pages within a batch window, so
        # a 64-deep buffer must observe duplicates — and a coalesced
        # deposit never reaches the serviced-fault counter.
        assert counters["fault_batches"] > 0
        assert counters["coalesced_faults"] > 0

    def test_sanitizer_covers_batched_path(self):
        # The machine-state sanitizer sweeps after every batch drain;
        # a consistent run must complete without tripping it.
        got = record(
            SystemConfig(fault_batch_size=8, sanitize=True),
            "fir",
            "duplication",
        )
        assert got["counters"]["fault_batches"] >= 1

"""Staged-pipeline equivalence and batched-servicing behavior.

The pipeline refactor must be invisible at ``fault_batch_size == 1``:
``tests/data/pipeline_golden.json`` holds results captured from the
pre-pipeline simulator (32 workload x policy runs), and the refactored
engine must reproduce every captured field bit-for-bit.  Batched runs
have no golden — batching deliberately changes timing — so they are
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
from repro.policies import available_policies, make_policy
from repro.sim.engine import simulate
from repro.workloads.registry import make_workload

GOLDEN_PATH = (
    pathlib.Path(__file__).parent.parent / "data" / "pipeline_golden.json"
)
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: (workload, policy) pairs captured in the golden file.
GOLDEN_KEYS = sorted(GOLDEN)

#: Scale-out twin: the same 32 runs captured at 8 GPUs on the
#: ``nvswitch`` topology, locking routed multi-hop timing the same way
#: the 4-GPU all-to-all path is locked.
GOLDEN_8GPU_PATH = (
    pathlib.Path(__file__).parent.parent
    / "data"
    / "pipeline_golden_8gpu.json"
)
GOLDEN_8GPU = json.loads(GOLDEN_8GPU_PATH.read_text())
GOLDEN_8GPU_KEYS = sorted(GOLDEN_8GPU)


def _fast_path_on_and_off(keys):
    """Each golden key with the fast path on, then off.

    On entries are identified by the bare key, off entries by the key
    plus ``-no-fast-path``.  Off, every access takes the full
    pipeline, so the pipeline and both shortcuts are held to the same
    capture.
    """
    return [pytest.param(key, True, id=key) for key in keys] + [
        pytest.param(key, False, id=f"{key}-no-fast-path") for key in keys
    ]


def _run(
    workload: str, policy: str, num_gpus: int = 4, **config_changes
) -> dict:
    """One golden-config run, flattened the way the goldens were."""
    config = SystemConfig(num_gpus=num_gpus, **config_changes)
    trace = make_workload(workload, num_gpus=num_gpus, scale=0.05)
    result = simulate(config, trace, make_policy(policy))
    return {
        "total_cycles": result.total_cycles,
        "per_gpu_cycles": result.per_gpu_cycles,
        "counters": result.counters.as_dict(),
        "breakdown": result.breakdown.as_dict(),
        "details": result.details,
    }


def _assert_matches_golden(got: dict, want: dict, key: str) -> None:
    """Compare a run against a capture, on the capture's own keys."""
    for section, expected in want.items():
        actual = got[section]
        if isinstance(expected, dict):
            # Goldens predate some counters (the batching counters on
            # the 4-GPU capture, the fastpath diagnostics on the 8-GPU
            # one); comparing on the golden's own keys keeps captures
            # valid as new always-zero-or-diagnostic fields appear.
            for field, value in expected.items():
                assert actual[field] == value, (
                    f"{key}: {section}.{field}"
                )
        else:
            assert actual == expected, f"{key}: {section}"


class TestInlineEquivalence:
    """batch_size 1 reproduces the pre-pipeline simulator exactly."""

    @pytest.mark.parametrize(
        "key,fast_path", _fast_path_on_and_off(GOLDEN_KEYS)
    )
    def test_bit_identical_to_pre_pipeline_golden(self, key, fast_path):
        workload, policy = key.split("/")
        got = _run(workload, policy, fast_path=fast_path)
        _assert_matches_golden(got, GOLDEN[key], key)

    def test_inline_runs_form_no_batches(self):
        got = _run("bfs", "grit")
        assert got["counters"]["fault_batches"] == 0
        assert got["counters"]["coalesced_faults"] == 0


class TestScaleOutGolden:
    """8-GPU nvswitch runs reproduce their committed capture."""

    @pytest.mark.parametrize(
        "key,fast_path", _fast_path_on_and_off(GOLDEN_8GPU_KEYS)
    )
    def test_bit_identical_to_8gpu_golden(self, key, fast_path):
        workload, policy = key.split("/")
        got = _run(
            workload,
            policy,
            num_gpus=8,
            topology="nvswitch",
            fast_path=fast_path,
        )
        _assert_matches_golden(got, GOLDEN_8GPU[key], key)

    def test_golden_covers_full_matrix(self):
        # Same 8 workloads x 4 policies as the 4-GPU capture.
        assert GOLDEN_8GPU_KEYS == GOLDEN_KEYS

    def test_golden_records_routed_topology(self):
        for key in GOLDEN_8GPU_KEYS:
            capture = GOLDEN_8GPU[key]
            assert capture["details"]["topology"] == "nvswitch:4", key
            assert len(capture["per_gpu_cycles"]) == 8, key


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
        first = _run("sc", "grit", fault_batch_size=16)
        second = _run("sc", "grit", fault_batch_size=16)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    @pytest.mark.parametrize(
        "policy", ["on_touch", "access_counter", "duplication", "grit"]
    )
    def test_batching_preserves_access_counts(self, policy):
        inline = _run("bfs", policy)
        batched = _run("bfs", policy, fault_batch_size=16)
        # Every access is still replayed exactly once.
        for field in ("accesses", "reads", "writes"):
            assert (
                batched["counters"][field] == inline["counters"][field]
            )
        assert batched["counters"]["fault_batches"] >= 1

    def test_batching_amortizes_host_service(self):
        inline = _run("bfs", "on_touch")
        batched = _run("bfs", "on_touch", fault_batch_size=32)
        # One host round trip per batch instead of per fault.
        assert batched["total_cycles"] < inline["total_cycles"]
        assert (
            batched["counters"]["fault_batches"]
            < inline["counters"]["local_page_faults"]
        )

    def test_coalescing_drops_duplicate_faults(self):
        batched = _run("sc", "grit", fault_batch_size=64)
        counters = batched["counters"]
        # Parallel streams re-fault hot pages within a batch window, so
        # a 64-deep buffer must observe duplicates — and a coalesced
        # deposit never reaches the serviced-fault counter.
        assert counters["fault_batches"] > 0
        assert counters["coalesced_faults"] > 0

    def test_sanitizer_covers_batched_path(self):
        # The machine-state sanitizer sweeps after every batch drain;
        # a consistent run must complete without tripping it.
        got = _run(
            "fir", "duplication", fault_batch_size=8, sanitize=True
        )
        assert got["counters"]["fault_batches"] >= 1

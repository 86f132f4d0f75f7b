"""The replay benchmark's counter set, held to the mode golden.

``benchmarks/perf`` records :data:`repro.obs.bench.COUNTER_KEYS` for
each run.  Three counter cases cover the modes a benchmark run can be
set up in beyond the 4 KiB flat default: queued contention on 4 GPUs,
64 KiB pages, and 8 GPUs on the switched fabric with queued
contention.  Each is configured here field by field and must reproduce
those counters as ``tests/data/mode_golden.json`` pins them for its
``fir/grit`` key, with the fast path on and off.  A mode of the golden
that drifted from its case's configuration fails here.
"""

import json
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.obs.bench import COUNTER_KEYS
from repro.policies import make_policy
from repro.sim.engine import simulate
from repro.workloads import make_workload

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "data" / "mode_golden.json")
    .read_text()
)

#: Trace scale of every golden run.
SCALE = 0.05

#: Case name -> (golden key, SystemConfig fields).
CASES = {
    "fir-grit-contended": (
        "queued-4gpu/fir/grit", {"num_gpus": 4, "contention": "queued"}
    ),
    "fir-grit-fastpath": (
        "64k/fir/grit", {"num_gpus": 4, "page_size": 65536}
    ),
    "fir-grit-8gpu-nvswitch": (
        "queued-8gpu-nvswitch/fir/grit",
        {"num_gpus": 8, "contention": "queued", "topology": "nvswitch"},
    ),
}


class TestCommittedBaselines:
    @pytest.mark.parametrize(
        "name,fast_path",
        [pytest.param(name, True, id=name) for name in CASES]
        + [
            pytest.param(name, False, id=f"{name}-no-fast-path")
            for name in CASES
        ],
    )
    def test_counters_match_committed_baseline(self, name, fast_path):
        key, fields = CASES[name]
        config = SystemConfig(**fields, fast_path=fast_path)
        trace = make_workload("fir", num_gpus=config.num_gpus, scale=SCALE)
        result = simulate(config, trace, make_policy("grit"))
        measured = {
            **result.counters.as_dict(), "total_cycles": result.total_cycles
        }
        golden = {
            **GOLDEN[key]["counters"],
            "total_cycles": GOLDEN[key]["total_cycles"],
        }
        assert {k: measured[k] for k in COUNTER_KEYS} == {
            k: golden[k] for k in COUNTER_KEYS
        }

"""The benchmark's four workloads, as lists of simulations.

A *pass* of a workload runs each of its simulations once, back to back
in this process.  Every simulation goes through the public API only:
``make_workload(..., seed=)``, ``SystemConfig``, ``make_policy`` and
``Engine``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

from repro.config import SystemConfig
from repro.harness.experiment import PAPER_APPS
from repro.harness.figures import UNIFORM_SCHEMES

#: Workload scales are divided by this in ``--quick`` mode and in the
#: untimed warm-up pass that starts every run.
QUICK_DIVISOR = 20

#: Policies of the paper's Figure 17, in its column order.
FIG17_POLICIES = (*UNIFORM_SCHEMES, "grit", "ideal")


@dataclasses.dataclass(frozen=True)
class Sim:
    """One simulation: an app trace at a scale, a policy, a machine."""

    app: str
    scale: float
    policy: str = "grit"
    num_gpus: int = 4
    page_size: int = 4096
    topology: str = "all-to-all"
    contention: str = "none"

    @property
    def label(self) -> str:
        """Stable name, also the key of ``expected_counters.json``."""
        return (
            f"{self.app}@{self.scale:g}/{self.policy}/{self.num_gpus}gpu/"
            f"{self.page_size // 1024}k/{self.topology}/{self.contention}"
        )

    def config(self) -> SystemConfig:
        return SystemConfig(
            num_gpus=self.num_gpus,
            page_size=self.page_size,
            topology=self.topology,
            contention=self.contention,
        )

    def overrides(self) -> Dict[str, object]:
        """Config fields that differ from the Table I defaults."""
        base = SystemConfig()
        return {
            field: getattr(self, field)
            for field in ("num_gpus", "page_size", "topology", "contention")
            if getattr(self, field) != getattr(base, field)
        }

    def quick(self) -> "Sim":
        return dataclasses.replace(self, scale=self.scale / QUICK_DIVISOR)


_NVSWITCH = dict(num_gpus=8, topology="nvswitch", contention="queued")

#: Trace scale of ``fig17-sweep``: ``repro figure fig17 --scale 0.1``.
FIG17_SCALE = 0.1

#: Workload name -> its simulations.  Why each workload was chosen is
#: recorded in BENCHMARK.json and README.md.  A simulation replays for
#: 0.1-0.5 s (``fig17-sweep``: 0.01-0.2 s), so that a run repeats each
#: one 10-30 times; fault rate, fast-path coverage and cost per access
#: barely change with the scale.
WORKLOADS: Dict[str, Tuple[Sim, ...]] = {
    # Table I: fault-heavy, the fast path mostly fails.
    "paper-4k": (Sim("st", 0.5), Sim("bfs", 0.25), Sim("fir", 0.5)),
    # Long steady runs: the fast path does the work.
    "large-page-64k": (
        Sim("fir", 8.0, page_size=65536),
        Sim("st", 2.0, page_size=65536),
    ),
    # Queued contention turns the fast path off: every access is scalar.
    "nvswitch-8gpu-queued": (
        Sim("fir", 1.0, **_NVSWITCH),
        Sim("bfs", 0.25, **_NVSWITCH),
    ),
    # The headline figure as users regenerate it.
    "fig17-sweep": tuple(
        Sim(app, FIG17_SCALE, policy)
        for app in PAPER_APPS
        for policy in FIG17_POLICIES
    ),
}


def simulations(workload: str, quick: bool = False) -> Tuple[Sim, ...]:
    """The simulations of one pass of ``workload``."""
    sims = WORKLOADS[workload]
    return tuple(sim.quick() for sim in sims) if quick else sims

"""Machine-state sanitizer: UVM invariants checked after every driver op.

The UVM driver mutates four coupled structures — the centralized page
table, per-GPU local page tables, per-GPU DRAM directories, and the
access-counter file — and a bug that lets them drift apart corrupts
results without failing any test.  The sanitizer re-derives the
contracts between them and raises :class:`~repro.errors.SanitizerError`
the moment one breaks, naming the driver operation that broke it.

The UVM driver arms it when ``config.sanitize`` is set:
``SystemConfig(sanitize=True)``, or ``GRIT_SANITIZE=1`` in the
environment, which :mod:`repro.config` reads into that field's default.
The cost is a full state sweep per driver operation, so it is a
debugging tool, not a default.

Invariants checked (see docs/static_analysis.md for the catalog):

* **ownership** — owners and replicas are valid nodes, the owner is
  never its own replica, and replicas imply a GPU owner;
* **translation** — every local PTE points at a node that actually
  holds the page;
* **replica protection** — while replicas exist every mapping of the
  page is read-only, so writes fault and collapse (policies with GPS or
  Ideal semantics opt out via ``enforces_replica_protection``);
* **residency** — every VPN occupying a DRAM frame is a holder of that
  page per the central page table;
* **groups** — Neighboring-Aware Prediction group markers are aligned
  to their 1/8/64/512 span and never nest;
* **access counters** — no stored remote-access count ever reaches the
  threshold (reaching it must fire a migration and clear the group).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.constants import HOST_NODE, GroupBits
from repro.errors import SanitizerError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.memsys.page import PageInfo
    from repro.uvm.machine import MachineState

class MachineSanitizer:
    """Validates a :class:`MachineState` against the UVM invariants."""

    def __init__(
        self,
        machine: "MachineState",
        allow_writable_replicas: bool = False,
    ) -> None:
        self.machine = machine
        #: GPS broadcasts stores and the Ideal bound replicates for
        #: free; both keep writable replica mappings legitimately.
        self.allow_writable_replicas = allow_writable_replicas
        #: Total sweeps performed (observability for tests/benchmarks).
        self.checks_run = 0

    def check(self, operation: str = "driver operation") -> None:
        """Sweep the machine; raise on the first batch of violations."""
        found = self.violations()
        if found:
            detail = "; ".join(found)
            raise SanitizerError(
                f"machine-state invariants broken after {operation}: "
                f"{detail}"
            )

    def violations(self) -> List[str]:
        """Every broken invariant, as human-readable descriptions."""
        self.checks_run += 1
        found: List[str] = []
        self._check_pages(found)
        self._check_translations(found)
        self._check_residency(found)
        self._check_groups(found)
        self._check_access_counters(found)
        return found

    # ------------------------------------------------------------------
    # individual invariants
    # ------------------------------------------------------------------

    def _valid_gpu(self, node: int) -> bool:
        return 0 <= node < len(self.machine.gpus)

    def _check_pages(self, found: List[str]) -> None:
        """Ownership: owner/replica fields form a coherent holder set."""
        for page in self.machine.central_pt.pages():
            if page.owner != HOST_NODE and not self._valid_gpu(page.owner):
                found.append(
                    f"page {page.vpn}: owner {page.owner} is not a node"
                )
            if page.owner in page.replicas:
                found.append(
                    f"page {page.vpn}: owner {page.owner} listed as its "
                    f"own replica"
                )
            for replica in sorted(page.replicas):
                if not self._valid_gpu(replica):
                    found.append(
                        f"page {page.vpn}: replica {replica} is not a GPU"
                    )
            if page.replicas and page.owner == HOST_NODE:
                found.append(
                    f"page {page.vpn}: replicas {sorted(page.replicas)} "
                    f"without a GPU owner"
                )

    def _check_translations(self, found: List[str]) -> None:
        """Translation: local PTEs point at nodes that hold the page."""
        central = self.machine.central_pt
        for gpu in self.machine.gpus:
            for vpn in sorted(gpu.page_table.mapped_vpns()):
                pte = gpu.page_table.lookup(vpn)
                assert pte is not None  # mapped_vpns() yielded it
                page = central.peek(vpn)
                if page is None:
                    found.append(
                        f"gpu {gpu.gpu_id}: translation for vpn {vpn} "
                        f"with no central page-table entry"
                    )
                    continue
                holders = page.holders()
                if pte.location == HOST_NODE:
                    # Counter-tracked pages are served from system
                    # memory, and those mappings deliberately survive a
                    # later counter-fired migration (the stable-remote-
                    # mapping deviation documented in EXPERIMENTS.md),
                    # so a host-pointing PTE is always legal and exempt
                    # from replica write-protection.
                    continue
                if pte.location not in holders:
                    found.append(
                        f"gpu {gpu.gpu_id}: vpn {vpn} mapped to "
                        f"{pte.location}, which holds no copy "
                        f"(holders: {sorted(holders)})"
                    )
                if (
                    page.replicas
                    and pte.writable
                    and not self.allow_writable_replicas
                ):
                    found.append(
                        f"gpu {gpu.gpu_id}: writable mapping of vpn "
                        f"{vpn} while replicas {sorted(page.replicas)} "
                        f"exist (writes must fault and collapse)"
                    )

    def _check_residency(self, found: List[str]) -> None:
        """Residency: DRAM frames only hold pages the GPU is party to."""
        central = self.machine.central_pt
        for gpu in self.machine.gpus:
            for vpn in gpu.dram.resident_vpns():
                page = central.peek(vpn)
                if page is None:
                    found.append(
                        f"gpu {gpu.gpu_id}: DRAM frame holds vpn {vpn} "
                        f"with no central page-table entry"
                    )
                elif gpu.gpu_id not in page.holders():
                    found.append(
                        f"gpu {gpu.gpu_id}: DRAM frame holds vpn {vpn} "
                        f"but the page's holders are "
                        f"{sorted(page.holders())}"
                    )

    def _check_groups(self, found: List[str]) -> None:
        """Groups: ladder markers are aligned and never nest."""
        marked: List["PageInfo"] = [
            page
            for page in self.machine.central_pt.pages()
            if page.group is not GroupBits.SINGLE
        ]
        for page in marked:
            span = page.group.page_count
            if page.vpn % span != 0:
                found.append(
                    f"page {page.vpn}: group marker {page.group.name} "
                    f"not aligned to its {span}-page span"
                )
        spans = {
            page.vpn: page.group.page_count
            for page in marked
            if page.vpn % page.group.page_count == 0
        }
        for page in marked:
            for base, span in spans.items():
                if base != page.vpn and base <= page.vpn < base + span:
                    found.append(
                        f"page {page.vpn}: group marker "
                        f"{page.group.name} nested inside the "
                        f"{span}-page group at {base}"
                    )

    def _check_access_counters(self, found: List[str]) -> None:
        """Counters: stored counts stay strictly below the threshold."""
        counters = self.machine.access_counters
        for group, gpu, count in counters.iter_counts():
            if count >= counters.threshold:
                found.append(
                    f"access counter (group {group}, gpu {gpu}) at "
                    f"{count} >= threshold {counters.threshold} without "
                    f"firing a migration"
                )

"""Mechanic dispatch: how the driver resolves a fault.

Each :class:`~repro.policies.base.Mechanic` member registers its
executor at import time with the :func:`executes` decorator, into the
one module-level table :data:`EXECUTORS`.  The UVM driver resolves a
fault by looking the policy's mechanic up in that table and calling the
executor; a mechanic with no executor raises a named
:class:`~repro.errors.PolicyError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict

from repro.constants import HOST_NODE, LatencyCategory
from repro.errors import PolicyError
from repro.memsys.page import PageInfo
from repro.policies.base import Mechanic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.uvm.driver import UvmDriver

#: An executor resolves one local fault with one mechanic; it receives
#: the driver (for the mechanics engines and machine state) plus the
#: simulated cycle the fault reaches resolution, and returns the stall
#: cycles the faulting access pays.
ExecutorFn = Callable[["UvmDriver", int, PageInfo, bool, int], int]


class _ExecutorTable(Dict[Mechanic, ExecutorFn]):
    """Mechanic -> executor; a missing mechanic is a policy error."""

    def __missing__(self, mechanic: Mechanic) -> ExecutorFn:
        raise PolicyError(f"no executor registered for {mechanic!r}")


#: The executor of every mechanic, filled by :func:`executes`.
EXECUTORS: Dict[Mechanic, ExecutorFn] = _ExecutorTable()


def executes(mechanic: Mechanic) -> Callable[[ExecutorFn], ExecutorFn]:
    """Register ``fn`` as the executor for ``mechanic``."""

    def decorator(fn: ExecutorFn) -> ExecutorFn:
        EXECUTORS[mechanic] = fn
        return fn

    return decorator


# ----------------------------------------------------------------------
# executors (one per Mechanic member)
# ----------------------------------------------------------------------


@executes(Mechanic.ON_TOUCH)
def execute_on_touch(
    driver: "UvmDriver", gpu: int, page: PageInfo, is_write: bool, now: int
) -> int:
    """Migrate the faulting page to the requester (Section II-B1)."""
    cycles = driver.migration.migrate(
        page, gpu, flush_scale=driver.policy.flush_scale, now=now
    )
    if is_write:
        page.dirty = True
        page.ever_written = True
        driver.machine.gpus[gpu].dram.mark_dirty(page.vpn)
    return cycles


@executes(Mechanic.ACCESS_COUNTER)
def execute_access_counter(
    driver: "UvmDriver", gpu: int, page: PageInfo, is_write: bool, now: int
) -> int:
    """Map the page where it lives; counters earn the migration.

    Counter-based migration never migrates eagerly: even a first touch
    maps the page where it lives (host memory) and lets the access
    counters earn the migration (Section II-B2).
    """
    return _remote_map(
        driver, gpu, page, is_write, now, place_on_first_touch=False
    )


@executes(Mechanic.PEER_REMOTE)
def execute_peer_remote(
    driver: "UvmDriver", gpu: int, page: PageInfo, is_write: bool, now: int
) -> int:
    """First-touch pins the page at its first toucher; others map it."""
    return _remote_map(
        driver, gpu, page, is_write, now, place_on_first_touch=True
    )


def _remote_map(
    driver: "UvmDriver",
    gpu: int,
    page: PageInfo,
    is_write: bool,
    now: int,
    place_on_first_touch: bool,
) -> int:
    """AC / first-touch: establish a (possibly remote) mapping."""
    machine = driver.machine
    flush_scale = driver.policy.flush_scale
    if page.owner == HOST_NODE and place_on_first_touch:
        if is_write:
            page.dirty = True
            page.ever_written = True
        cycles = driver.migration.place_from_host(
            page, gpu, LatencyCategory.PAGE_MIGRATION, flush_scale,
            now=now,
        )
        if is_write:
            machine.gpus[gpu].dram.mark_dirty(page.vpn)
        return cycles
    if page.replicas:
        # Stale replicas from a previous duplication lifetime would
        # break coherence under remote write mappings; drop them.
        driver.charge_collapse(page)
    machine.gpus[gpu].page_table.map(page.vpn, page.owner, writable=True)
    if is_write:
        page.ever_written = True
        if page.owner != HOST_NODE:
            page.dirty = True
            machine.gpus[page.owner].dram.mark_dirty(page.vpn)
    return 0


@executes(Mechanic.DUPLICATION)
def execute_duplication(
    driver: "UvmDriver", gpu: int, page: PageInfo, is_write: bool, now: int
) -> int:
    """Replicate reads, collapse writes (Section II-B3)."""
    machine = driver.machine
    flush_scale = driver.policy.flush_scale
    if page.owner == HOST_NODE:
        if is_write:
            page.dirty = True
            page.ever_written = True
        # Copy-on-write: read placements map read-only so a later
        # write raises a protection fault (Section II-B3).
        cycles = driver.migration.place_from_host(
            page,
            gpu,
            LatencyCategory.PAGE_DUPLICATION,
            flush_scale,
            writable=is_write,
            now=now,
        )
        if is_write:
            machine.gpus[gpu].dram.mark_dirty(page.vpn)
        return cycles
    if is_write:
        # Faulting write by a GPU with no copy: collapse-with-move.
        return driver.duplication.collapse_to_writer(
            page, gpu, flush_scale=flush_scale, now=now
        )
    return driver.duplication.duplicate(
        page, gpu, flush_scale=flush_scale, now=now
    )


@executes(Mechanic.GPS)
def execute_gps(
    driver: "UvmDriver", gpu: int, page: PageInfo, is_write: bool, now: int
) -> int:
    """Subscribe the requester with a writable replica (GPS)."""
    machine = driver.machine
    flush_scale = driver.policy.flush_scale
    if page.owner == HOST_NODE:
        if is_write:
            page.dirty = True
            page.ever_written = True
        cycles = driver.migration.place_from_host(
            page, gpu, LatencyCategory.PAGE_DUPLICATION, flush_scale,
            now=now,
        )
        if is_write:
            machine.gpus[gpu].dram.mark_dirty(page.vpn)
        return cycles
    # Subscribe: a writable replica.  The write broadcast itself is
    # charged uniformly by the engine for every GPS write.
    return driver.duplication.duplicate(
        page, gpu, writable_replica=True, flush_scale=flush_scale, now=now
    )


@executes(Mechanic.IDEAL)
def execute_ideal(
    driver: "UvmDriver", gpu: int, page: PageInfo, is_write: bool, now: int
) -> int:
    """The paper's Ideal: only the first cold touch pays anything."""
    machine = driver.machine
    cycles = 0
    if page.owner == HOST_NODE:
        # The one cost Ideal pays: the first cold touch of a page.
        cycles = driver.host_service(gpu, now)
        transfer = machine.kernel.transfer(
            HOST_NODE, gpu, machine.config.page_size, now + cycles
        )
        machine.breakdown.charge(LatencyCategory.PAGE_MIGRATION, transfer)
        cycles += transfer
        page.owner = gpu
    else:
        page.replicas.add(gpu)
    if is_write:
        page.dirty = True
        page.ever_written = True
    machine.gpus[gpu].page_table.map(page.vpn, gpu, writable=True)
    return cycles

"""The metric catalogue: every series the observability layer emits.

Each metric is a module-level constant naming one registered series.
Consumers refer to metrics *through these constants* (``catalog.
UVM_MIGRATIONS``), never through string literals — the simlint rule
GRIT-C005 checks that every constant here is referenced somewhere
outside the catalog (an unemitted metric is a lie in the docs) and
that every metric name is documented in ``docs/observability.md``.
"""

from __future__ import annotations

from typing import Tuple

from repro.obs.metrics import MetricKind, MetricSpec, MetricsRegistry

# -- counters (cumulative totals pulled from EventCounters) ------------

SIM_ACCESSES = "sim.accesses.total"
SIM_FASTPATH_RUNS = "sim.fastpath.runs.total"
SIM_FASTPATH_ACCESSES = "sim.fastpath.accesses.total"
UVM_LOCAL_FAULTS = "uvm.faults.local.total"
UVM_PROTECTION_FAULTS = "uvm.faults.protection.total"
UVM_MIGRATIONS = "uvm.migrations.total"
UVM_DUPLICATIONS = "uvm.duplications.total"
UVM_WRITE_COLLAPSES = "uvm.write_collapses.total"
UVM_EVICTIONS = "uvm.evictions.total"
UVM_REMOTE_ACCESSES = "uvm.remote_accesses.total"
UVM_PREFETCHES = "uvm.prefetches.total"
UVM_FAULT_BATCHES = "uvm.fault.batches.total"
UVM_COALESCED_FAULTS = "uvm.fault.coalesced.total"
GRIT_SCHEME_CHANGES = "grit.scheme_changes.total"
LINK_WAIT_CYCLES = "interconnect.link.wait_cycles.total"
LINK_BYTES = "interconnect.link.bytes.total"
LINK_MESSAGES = "interconnect.link.messages.total"
SWITCH_WAIT_CYCLES = "interconnect.switch.wait_cycles.total"
SWITCH_MESSAGES = "interconnect.switch.messages.total"
DRAM_WAIT_CYCLES = "memsys.dram.wait_cycles.total"
DRAM_ACCESSES = "memsys.dram.accesses.total"

# -- gauges (point-in-time state sampled per interval) -----------------

UVM_FAULT_QUEUE_DEPTH = "uvm.fault.queue_depth"
PA_CACHE_HIT_RATE = "grit.pa_cache.hit_rate"
TLB_L1_MISS_RATE = "memsys.tlb.l1_miss_rate"
TLB_L2_MISS_RATE = "memsys.tlb.l2_miss_rate"
GRIT_PAGES_ON_TOUCH = "grit.pages.on_touch"
GRIT_PAGES_ACCESS_COUNTER = "grit.pages.access_counter"
GRIT_PAGES_DUPLICATION = "grit.pages.duplication"
LINK_PEAK_OCCUPANCY = "interconnect.link.peak_occupancy"
SWITCH_PEAK_OCCUPANCY = "interconnect.switch.peak_occupancy"
DRAM_PEAK_OCCUPANCY = "memsys.dram.peak_occupancy"

# -- histograms (per-operation cost distributions) ---------------------

UVM_FAULT_SERVICE_CYCLES = "uvm.fault.service_cycles"
UVM_MIGRATION_CYCLES = "uvm.migration.cycles"

# -- perf-trajectory counters (emitted by the repro bench harness; see
#    repro.obs.bench) --------------------------------------------------

BENCH_RUNS = "bench.runs.total"
BENCH_COMPARISONS = "bench.comparisons.total"
BENCH_REGRESSIONS = "bench.regressions.total"


def _counter(
    name: str, description: str, unit: str = "events"
) -> MetricSpec:
    return MetricSpec(name, MetricKind.COUNTER, description, unit=unit)


def _gauge(name: str, description: str, unit: str = "") -> MetricSpec:
    return MetricSpec(name, MetricKind.GAUGE, description, unit=unit)


def _histogram(name: str, description: str) -> MetricSpec:
    return MetricSpec(
        name, MetricKind.HISTOGRAM, description, unit="cycles"
    )


#: Every metric the observability layer registers, in catalog order.
METRICS: Tuple[MetricSpec, ...] = (
    _counter(SIM_ACCESSES, "memory accesses replayed by the engine"),
    _counter(SIM_FASTPATH_RUNS, "steady-state runs priced in bulk by "
             "the vectorized fast path", unit="runs"),
    _counter(SIM_FASTPATH_ACCESSES, "accesses covered by fast-path "
             "runs (the rest went through the scalar pipeline)"),
    _counter(UVM_LOCAL_FAULTS, "local page faults serviced by the driver"),
    _counter(UVM_PROTECTION_FAULTS, "page protection faults (writes to "
             "read-only duplicates)"),
    _counter(UVM_MIGRATIONS, "page migrations performed"),
    _counter(UVM_DUPLICATIONS, "page duplications performed"),
    _counter(UVM_WRITE_COLLAPSES, "write collapses performed"),
    _counter(UVM_EVICTIONS, "DRAM frame evictions under oversubscription"),
    _counter(UVM_REMOTE_ACCESSES, "data accesses served from a remote "
             "node"),
    _counter(UVM_PREFETCHES, "background tree-prefetcher page pulls"),
    _counter(UVM_FAULT_BATCHES, "fault batches drained through the "
             "batched service path"),
    _counter(UVM_COALESCED_FAULTS, "duplicate (gpu, vpn) fault deposits "
             "coalesced away during batch drains"),
    _counter(GRIT_SCHEME_CHANGES, "PTE scheme-bit rewrites (threshold "
             "decisions plus neighbor propagation)"),
    _gauge(UVM_FAULT_QUEUE_DEPTH, "faults that arrived at the host "
           "service queue during the last sample interval", "faults"),
    _gauge(PA_CACHE_HIT_RATE, "PA-Cache hit rate since the start of the "
           "run (GRIT policies only)", "ratio"),
    _gauge(TLB_L1_MISS_RATE, "cumulative L1 TLB miss rate across GPUs",
           "ratio"),
    _gauge(TLB_L2_MISS_RATE, "cumulative L2 TLB miss rate across GPUs",
           "ratio"),
    _gauge(GRIT_PAGES_ON_TOUCH, "pages whose PTE scheme bits currently "
           "say on-touch migration", "pages"),
    _gauge(GRIT_PAGES_ACCESS_COUNTER, "pages whose PTE scheme bits "
           "currently say access-counter migration", "pages"),
    _gauge(GRIT_PAGES_DUPLICATION, "pages whose PTE scheme bits "
           "currently say duplication", "pages"),
    _counter(LINK_WAIT_CYCLES, "cycles charges spent queued behind "
             "earlier link reservations (contention=queued only)",
             "cycles"),
    _counter(LINK_BYTES, "payload bytes moved across every link "
             "(NVLink + PCIe page traffic)", "bytes"),
    _counter(LINK_MESSAGES, "transfers plus control messages carried "
             "by every link", "messages"),
    _counter(SWITCH_WAIT_CYCLES, "cycles charges spent queued on a "
             "switch port or trunk (switched topologies under "
             "contention=queued)", "cycles"),
    _counter(SWITCH_MESSAGES, "transfers plus control messages routed "
             "through any switch port or trunk", "messages"),
    _counter(DRAM_WAIT_CYCLES, "cycles data accesses spent queued on "
             "a busy DRAM channel (contention=queued only)", "cycles"),
    _counter(DRAM_ACCESSES, "data accesses that reserved a DRAM "
             "channel (contention=queued only)", "accesses"),
    _gauge(LINK_PEAK_OCCUPANCY, "largest backlog any link reservation "
           "observed on arrival", "cycles"),
    _gauge(SWITCH_PEAK_OCCUPANCY, "largest backlog any switch port or "
           "trunk reservation observed on arrival", "cycles"),
    _gauge(DRAM_PEAK_OCCUPANCY, "largest backlog any DRAM access "
           "observed on arrival", "cycles"),
    _histogram(UVM_FAULT_SERVICE_CYCLES, "stall cycles charged per "
               "serviced local page fault"),
    _histogram(UVM_MIGRATION_CYCLES, "cycles charged per page "
               "migration"),
)


#: Perf-trajectory metrics: registered by :func:`build_bench_registry`
#: for ``repro bench`` runs (wall-clock domain, never per simulated
#: run).
BENCH_METRICS: Tuple[MetricSpec, ...] = (
    _counter(
        BENCH_RUNS, "benchmark case repetitions executed", unit="runs"
    ),
    _counter(
        BENCH_COMPARISONS,
        "benchmark cases compared against a baseline",
        unit="cases",
    ),
    _counter(
        BENCH_REGRESSIONS,
        "regressions flagged by the perf-trajectory gate",
        unit="findings",
    ),
)


def build_registry() -> MetricsRegistry:
    """A fresh registry with the whole per-run catalogue registered."""
    registry = MetricsRegistry()
    for spec in METRICS:
        registry.register(spec)
    return registry


def build_bench_registry() -> MetricsRegistry:
    """A fresh registry with the perf-trajectory (bench) metrics."""
    registry = MetricsRegistry()
    for spec in BENCH_METRICS:
        registry.register(spec)
    return registry

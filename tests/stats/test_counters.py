"""Event counters: faults, scheme usage (Figures 18-19)."""

from repro.constants import FaultKind, Scheme
from repro.stats.counters import EventCounters


class TestEventCounters:
    def test_total_faults_sums_both_kinds(self):
        counters = EventCounters()
        counters.record_fault(FaultKind.LOCAL_PAGE_FAULT)
        counters.record_fault(FaultKind.LOCAL_PAGE_FAULT)
        counters.record_fault(FaultKind.PAGE_PROTECTION_FAULT)
        assert counters.local_page_faults == 2
        assert counters.protection_faults == 1
        assert counters.total_faults == 3

    def test_scheme_usage_fractions(self):
        counters = EventCounters()
        for _ in range(3):
            counters.record_scheme_usage(Scheme.ON_TOUCH)
        counters.record_scheme_usage(Scheme.DUPLICATION)
        fractions = counters.scheme_usage_fractions()
        assert fractions["OT"] == 0.75
        assert fractions["D"] == 0.25
        assert fractions["AC"] == 0.0
        assert counters.l2_tlb_misses == 4

    def test_scheme_usage_fractions_empty(self):
        fractions = EventCounters().scheme_usage_fractions()
        assert fractions == {"OT": 0.0, "AC": 0.0, "D": 0.0}

    def test_as_dict_round_trip(self):
        counters = EventCounters()
        counters.migrations = 7
        counters.write_collapses = 2
        data = counters.as_dict()
        assert data["migrations"] == 7
        assert data["write_collapses"] == 2
        assert "total_faults" in data


class TestPerGpuFaults:
    def test_attribution_and_imbalance(self):
        counters = EventCounters()
        for _ in range(3):
            counters.record_fault(FaultKind.LOCAL_PAGE_FAULT, gpu=0)
        counters.record_fault(FaultKind.PAGE_PROTECTION_FAULT, gpu=1)
        assert counters.per_gpu_faults == {0: 3, 1: 1}
        assert counters.fault_imbalance() == 1.5  # max 3 / mean 2

    def test_imbalance_defaults_to_balanced(self):
        assert EventCounters().fault_imbalance() == 1.0

    def test_gpu_attribution_optional(self):
        counters = EventCounters()
        counters.record_fault(FaultKind.LOCAL_PAGE_FAULT)
        assert counters.per_gpu_faults == {}
        assert counters.total_faults == 1

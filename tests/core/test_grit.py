"""The assembled GRIT mechanism (Figure 16 pipeline)."""

import pytest

from repro.config import GritConfig, LatencyModel
from repro.constants import FaultKind, Scheme
from repro.core.grit import GritMechanism
from repro.memsys.page_table import CentralPageTable


def make_mechanism(**config_kwargs) -> GritMechanism:
    pt = CentralPageTable(default_scheme=Scheme.ON_TOUCH)
    return GritMechanism(
        GritConfig(**config_kwargs), LatencyModel(), pt
    )


class TestObserveFault:
    def test_below_threshold_makes_no_decision(self):
        grit = make_mechanism()
        for _ in range(3):
            change = grit.observe_fault(5, FaultKind.LOCAL_PAGE_FAULT)
            assert not change.decision_made
        assert grit.page_table.get(5).scheme is Scheme.ON_TOUCH

    def test_read_page_switches_to_duplication(self):
        grit = make_mechanism(fault_threshold=2)
        grit.observe_fault(5, FaultKind.LOCAL_PAGE_FAULT, is_write=False)
        change = grit.observe_fault(
            5, FaultKind.LOCAL_PAGE_FAULT, is_write=False
        )
        assert change.decision_made
        assert change.new_scheme is Scheme.DUPLICATION
        assert change.scheme_changed
        assert grit.page_table.get(5).scheme is Scheme.DUPLICATION
        assert grit.scheme_changes == 1

    def test_written_page_switches_to_access_counter(self):
        grit = make_mechanism(fault_threshold=2)
        grit.observe_fault(5, FaultKind.LOCAL_PAGE_FAULT, is_write=True)
        change = grit.observe_fault(
            5, FaultKind.PAGE_PROTECTION_FAULT, is_write=True
        )
        assert change.new_scheme is Scheme.ACCESS_COUNTER

    def test_repeated_same_decision_reports_unchanged(self):
        grit = make_mechanism(fault_threshold=1)
        first = grit.observe_fault(5, FaultKind.LOCAL_PAGE_FAULT, True)
        assert first.scheme_changed
        second = grit.observe_fault(5, FaultKind.LOCAL_PAGE_FAULT, True)
        assert second.decision_made
        assert not second.scheme_changed
        assert grit.scheme_changes == 1

    def test_neighbor_propagation_surfaces_in_change(self):
        grit = make_mechanism(fault_threshold=1)
        pt = grit.page_table
        for vpn in range(5):
            pt.get(vpn).scheme = Scheme.DUPLICATION
        # Page 6 never read; its decision to duplicate promotes the
        # group and propagates duplication to pages 5-7.
        change = grit.observe_fault(6, FaultKind.LOCAL_PAGE_FAULT, False)
        assert change.promotions == 1
        propagated_vpns = {vpn for vpn, _ in change.propagated}
        assert propagated_vpns == {5, 7}

    def test_no_neighbor_prediction_when_disabled(self):
        grit = make_mechanism(
            fault_threshold=1, use_neighbor_prediction=False
        )
        for vpn in range(5):
            grit.page_table.get(vpn).scheme = Scheme.DUPLICATION
        change = grit.observe_fault(6, FaultKind.LOCAL_PAGE_FAULT, False)
        assert change.promotions == 0
        assert change.propagated == ()

    def test_below_threshold_faults_share_one_outcome(self):
        grit = make_mechanism()
        # Cold faults on two pages: both PA-Cache misses, same charge.
        first = grit.observe_fault(5, FaultKind.LOCAL_PAGE_FAULT)
        assert grit.observe_fault(6, FaultKind.LOCAL_PAGE_FAULT) is first
        assert first.extra_latency == LatencyModel().pa_cache_lookup
        # Hits hide under the walk: another charge, another shared object.
        hit = grit.observe_fault(5, FaultKind.LOCAL_PAGE_FAULT)
        assert hit.extra_latency == 0
        assert grit.observe_fault(6, FaultKind.LOCAL_PAGE_FAULT) is hit

    def test_extra_latency_without_pa_cache(self):
        grit = make_mechanism(use_pa_cache=False)
        change = grit.observe_fault(5, FaultKind.LOCAL_PAGE_FAULT)
        assert change.extra_latency == LatencyModel().pa_table_memory_access

    @pytest.mark.parametrize("threshold", [1, 2, 4, 8, 16])
    def test_decision_happens_exactly_at_threshold(self, threshold):
        grit = make_mechanism(fault_threshold=threshold)
        for i in range(threshold - 1):
            assert not grit.observe_fault(
                9, FaultKind.LOCAL_PAGE_FAULT
            ).decision_made
        assert grit.observe_fault(9, FaultKind.LOCAL_PAGE_FAULT).decision_made

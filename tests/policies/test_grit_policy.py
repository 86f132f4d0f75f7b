"""GRIT as a policy: binding, scheme-driven mechanics, hook effects."""

import pytest

from repro.config import GritConfig, SystemConfig
from repro.constants import FaultKind, Scheme
from repro.policies.base import Mechanic
from repro.policies.grit_policy import GritPolicy
from repro.uvm.machine import MachineState


@pytest.fixture
def bound_grit():
    policy = GritPolicy()
    machine = MachineState.build(SystemConfig(), 100)
    policy.bind(machine)
    return policy, machine


class TestBinding:
    def test_mechanism_created_at_bind(self, bound_grit):
        policy, machine = bound_grit
        assert policy.mechanism is not None
        assert policy.mechanism.page_table is machine.central_pt

    def test_starts_with_on_touch(self):
        assert GritPolicy().initial_scheme() is Scheme.ON_TOUCH

    def test_acud_discount_applied_at_bind(self):
        policy = GritPolicy(acud=True)
        machine = MachineState.build(SystemConfig(), 100)
        policy.bind(machine)
        assert policy.flush_scale == machine.config.latency.acud_discount
        assert policy.name == "grit_acud"


class TestMechanicSelection:
    def test_mechanic_follows_scheme_bits(self, bound_grit):
        policy, machine = bound_grit
        page = machine.central_pt.get(0)
        for scheme, mechanic in [
            (Scheme.ON_TOUCH, Mechanic.ON_TOUCH),
            (Scheme.ACCESS_COUNTER, Mechanic.ACCESS_COUNTER),
            (Scheme.DUPLICATION, Mechanic.DUPLICATION),
        ]:
            page.scheme = scheme
            assert policy.mechanic_for(page) is mechanic


class TestFaultHook:
    def test_below_threshold_faults_share_one_observation(self, bound_grit):
        policy, _ = bound_grit
        # Cold faults on two pages: both PA-Cache misses, same charge.
        first = policy.on_fault_observed(
            0, 5, FaultKind.LOCAL_PAGE_FAULT, is_write=False
        )
        second = policy.on_fault_observed(
            1, 6, FaultKind.LOCAL_PAGE_FAULT, is_write=True
        )
        assert second is first
        assert first.extra_latency > 0
        assert first.collapse_charged == first.collapse_background == ()

    def test_threshold_decision_updates_counters(self, bound_grit):
        policy, machine = bound_grit
        for _ in range(4):
            policy.on_fault_observed(
                0, 5, FaultKind.LOCAL_PAGE_FAULT, is_write=False
            )
        assert machine.counters.scheme_changes == 1
        assert machine.central_pt.get(5).scheme is Scheme.DUPLICATION

    def test_leaving_duplication_requests_charged_collapse(self, bound_grit):
        policy, machine = bound_grit
        page = machine.central_pt.get(5)
        page.scheme = Scheme.DUPLICATION
        observation = None
        for _ in range(4):
            observation = policy.on_fault_observed(
                0, 5, FaultKind.PAGE_PROTECTION_FAULT, is_write=True
            )
        assert observation.collapse_charged == (5,)

    def test_switch_to_duplication_requests_no_collapse(self, bound_grit):
        policy, machine = bound_grit
        observation = None
        for _ in range(4):
            observation = policy.on_fault_observed(
                0, 5, FaultKind.LOCAL_PAGE_FAULT, is_write=False
            )
        assert observation.collapse_charged == ()

    def test_propagated_duplication_exits_are_background(self, bound_grit):
        policy, machine = bound_grit
        # Neighborhood already AC except two duplication stragglers.
        for vpn in range(5):
            machine.central_pt.get(vpn).scheme = Scheme.ACCESS_COUNTER
        machine.central_pt.get(5).scheme = Scheme.DUPLICATION
        machine.central_pt.get(6).scheme = Scheme.DUPLICATION
        observation = None
        for _ in range(4):
            observation = policy.on_fault_observed(
                0, 7, FaultKind.LOCAL_PAGE_FAULT, is_write=True
            )
        assert set(observation.collapse_background) == {5, 6}
        assert machine.counters.group_promotions == 1


def bound_variant(**grit) -> GritPolicy:
    policy = GritPolicy()
    config = SystemConfig(grit=GritConfig(**grit))
    policy.bind(MachineState.build(config, 100))
    return policy


class TestVariants:
    def test_variant_threshold(self):
        policy = bound_variant(fault_threshold=8)
        assert policy.mechanism.config.fault_threshold == 8

    def test_variant_ablation_flags(self):
        policy = bound_variant(
            use_pa_cache=False, use_neighbor_prediction=False
        )
        assert policy.mechanism.initiator.pa_cache is None
        assert policy.mechanism.predictor is None

    def test_describe_mentions_configuration(self):
        policy = bound_variant(fault_threshold=8, use_pa_cache=False)
        description = policy.describe()
        assert "threshold=8" in description
        assert "no-PA-Cache" in description

"""Trans-FW stacking: reduced fault-service latency."""

from repro.config import SystemConfig
from repro.policies.grit_policy import GritPolicy
from repro.policies.transfw import GriffinTransFwPolicy, GritTransFwPolicy
from repro.uvm.driver import UvmDriver
from repro.uvm.machine import MachineState


class TestApplyTransfw:
    def test_faults_cost_less_with_transfw(self):
        base_machine = MachineState.build(SystemConfig(), 100)
        base_driver = UvmDriver(base_machine, GritPolicy())
        fw_machine = MachineState.build(SystemConfig(), 100)
        fw_driver = UvmDriver(fw_machine, GritTransFwPolicy())
        assert fw_driver.handle_local_fault(0, 0, False) < (
            base_driver.handle_local_fault(0, 0, False)
        )


class TestGriffinTransFw:
    def test_combined_policy_has_both_traits(self):
        policy = GriffinTransFwPolicy()
        machine = MachineState.build(SystemConfig(), 100)
        policy.bind(machine)
        assert (
            policy.fault_service_scale
            == machine.config.latency.transfw_discount
        )
        assert policy.interval_cycles is not None
        assert policy.name == "griffin_dpc_transfw"


class TestGritTransFw:
    def test_combined_policy_has_both_traits(self):
        policy = GritTransFwPolicy()
        machine = MachineState.build(SystemConfig(), 100)
        policy.bind(machine)
        assert (
            policy.fault_service_scale
            == machine.config.latency.transfw_discount
        )
        assert policy.mechanism is not None
        assert policy.name == "grit_transfw"

    def test_registered(self):
        from repro.policies import make_policy

        assert make_policy("grit_transfw").name == "grit_transfw"

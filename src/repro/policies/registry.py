"""Policy registry: build any evaluated policy by name."""

from __future__ import annotations

from typing import Callable, Dict

from repro.errors import UnknownPolicyError
from repro.policies.access_counter import AccessCounterPolicy
from repro.policies.base import PlacementPolicy
from repro.policies.duplication import DuplicationPolicy
from repro.policies.first_touch import FirstTouchPolicy
from repro.policies.gps import GpsPolicy
from repro.policies.griffin import GriffinPolicy
from repro.policies.grit_policy import GritPolicy
from repro.policies.ideal import IdealPolicy
from repro.policies.on_touch import OnTouchPolicy
from repro.policies.transfw import GriffinTransFwPolicy, GritTransFwPolicy


_FACTORIES: Dict[str, Callable[[], PlacementPolicy]] = {
    "on_touch": OnTouchPolicy,
    "access_counter": AccessCounterPolicy,
    "duplication": DuplicationPolicy,
    "first_touch": FirstTouchPolicy,
    "ideal": IdealPolicy,
    "grit": GritPolicy,
    # The ACUD flush discount is resolved from the latency model at bind
    # time, so GRIT+ACUD and Griffin use the same knob.
    "grit_acud": lambda: GritPolicy(acud=True),
    "griffin_dpc": lambda: GriffinPolicy(acud=False),
    "griffin": lambda: GriffinPolicy(acud=True),
    "griffin_dpc_transfw": GriffinTransFwPolicy,
    "grit_transfw": GritTransFwPolicy,
    "gps": GpsPolicy,
}


def available_policies() -> list[str]:
    """Names accepted by :func:`make_policy`."""
    return sorted(_FACTORIES)


def make_policy(name: str) -> PlacementPolicy:
    """Instantiate a fresh policy by registry name."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise UnknownPolicyError(
            f"unknown policy {name!r}; available: {available_policies()}"
        ) from None
    return factory()

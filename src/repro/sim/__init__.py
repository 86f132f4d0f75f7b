"""Trace-driven multi-GPU simulation engine."""

from repro.sim.engine import Engine, simulate
from repro.sim.gpu import GpuNode
from repro.sim.result import SimulationResult

__all__ = [
    "Engine",
    "simulate",
    "GpuNode",
    "SimulationResult",
]

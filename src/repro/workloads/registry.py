"""Workload registry: Table II plus the Section VI-F DNN models."""

from __future__ import annotations

import math
from typing import Callable, Dict

from repro.errors import ConfigError, UnknownWorkloadError
from repro.workloads import bfs, bs, c2d, dnn, fir, gemm, mm, sc, st
from repro.workloads.base import WorkloadSpec, WorkloadTrace

GeneratorFn = Callable[..., WorkloadTrace]

_GENERATORS: Dict[str, GeneratorFn] = {
    "bfs": bfs.generate,
    "bs": bs.generate,
    "c2d": c2d.generate,
    "fir": fir.generate,
    "gemm": gemm.generate,
    "mm": mm.generate,
    "sc": sc.generate,
    "st": st.generate,
    "vgg16": dnn.generate_vgg16,
    "resnet18": dnn.generate_resnet18,
}

#: Table II of the paper, as data.
APPLICATION_TABLE: Dict[str, WorkloadSpec] = {
    "bfs": bfs.SPEC,
    "bs": bs.SPEC,
    "c2d": c2d.SPEC,
    "fir": fir.SPEC,
    "gemm": gemm.SPEC,
    "mm": mm.SPEC,
    "sc": sc.SPEC,
    "st": st.SPEC,
}

#: The eight evaluation applications, in the paper's figure order.
PAPER_APPS = tuple(sorted(APPLICATION_TABLE))


def available_workloads() -> list[str]:
    """Names accepted by :func:`make_workload`."""
    return sorted(_GENERATORS)


def make_workload(
    name: str, num_gpus: int = 4, scale: float = 1.0, seed: int | None = None
) -> WorkloadTrace:
    """Generate a trace for a registered workload.

    Raises :class:`ConfigError` for fewer than one GPU or a ``scale``
    that is not a finite positive number.
    """
    try:
        generator = _GENERATORS[name]
    except KeyError:
        raise UnknownWorkloadError(
            f"unknown workload {name!r}; available: {available_workloads()}"
        ) from None
    if num_gpus < 1:
        raise ConfigError(f"need at least one GPU, got num_gpus={num_gpus}")
    if not (math.isfinite(scale) and scale > 0):
        raise ConfigError(
            f"scale must be a finite positive number, got {scale!r}"
        )
    kwargs: dict[str, object] = {"num_gpus": num_gpus, "scale": scale}
    if seed is not None:
        kwargs["seed"] = seed
    return generator(**kwargs)

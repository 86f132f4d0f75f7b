"""Counter names and host fingerprint shared by the replay benchmark.

``benchmarks/perf/runner.py`` and ``benchmarks/perf/cli.py`` import
these two names.  Simulated results are pinned in tier-1 by
``tests/sim/test_mode_golden.py``; replay throughput is measured by
``python -m benchmarks.perf``.
"""

from __future__ import annotations

import os
import platform
from typing import Dict, Tuple

#: Simulator counters a benchmark run records.  ``total_cycles`` is the
#: headline (simulated execution time); the rest attribute a cycle
#: change to the mechanism that caused it.
COUNTER_KEYS: Tuple[str, ...] = (
    "total_cycles",
    "accesses",
    "total_faults",
    "migrations",
    "duplications",
    "evictions",
    "remote_accesses",
)


def env_fingerprint() -> Dict[str, object]:
    """The host a measurement ran on (for wall-time records)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 0,
    }

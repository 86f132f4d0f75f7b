"""Interval-based attribute timelines (Figures 5, 6/7/8, and 10).

The paper samples page behaviour at fixed intervals: per-GPU access
distributions for one page over time (Figure 5), read/write mix for one
page over time (Figure 10), and whole-address-space attribute maps over
50 execution intervals (Figures 6-8).  :class:`IntervalTimeline` records
``(interval, gpu, vpn, is_write)`` tallies compactly so the analysis
module can slice them any of those ways.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple


@dataclasses.dataclass(frozen=True)
class IntervalSample:
    """Tallies for one (interval, page) pair."""

    reads: int
    writes: int
    per_gpu_accesses: Tuple[int, ...]


class IntervalTimeline:
    """Accumulates per-interval, per-page, per-GPU access tallies.

    ``interval_length`` is in the same unit the caller passes to
    :meth:`record` as ``time``; trace-level characterization passes
    access indices (a proxy for time that does not require simulation).
    """

    def __init__(self, num_gpus: int, interval_length: int) -> None:
        if interval_length <= 0:
            raise ValueError("interval length must be positive")
        self.num_gpus = num_gpus
        self.interval_length = interval_length
        #: (interval, vpn) -> [reads, writes, per-gpu counts...]
        self._cells: Dict[Tuple[int, int], List[int]] = {}
        self._max_interval = -1

    def record(self, time: int, gpu: int, vpn: int, is_write: bool) -> None:
        """Tally one access into its (interval, page, GPU) cell."""
        interval = time // self.interval_length
        key = (interval, vpn)
        cell = self._cells.get(key)
        if cell is None:
            cell = [0, 0] + [0] * self.num_gpus
            self._cells[key] = cell
        cell[1 if is_write else 0] += 1
        cell[2 + gpu] += 1
        if interval > self._max_interval:
            self._max_interval = interval

    @property
    def num_intervals(self) -> int:
        """Intervals observed so far (highest seen + 1)."""
        return self._max_interval + 1

    def sample(self, interval: int, vpn: int) -> IntervalSample | None:
        """Tallies for one (interval, page) cell, or None."""
        cell = self._cells.get((interval, vpn))
        if cell is None:
            return None
        return IntervalSample(
            reads=cell[0],
            writes=cell[1],
            per_gpu_accesses=tuple(cell[2:]),
        )

    def page_timeline(self, vpn: int) -> List[IntervalSample | None]:
        """Figure 5 / Figure 10 view: one page across all intervals."""
        return [
            self.sample(interval, vpn)
            for interval in range(self.num_intervals)
        ]

    def pages_in_interval(self, interval: int) -> List[int]:
        """Pages touched during one interval, sorted."""
        return sorted(
            vpn for (ivl, vpn) in self._cells if ivl == interval
        )

    def touched_pages(self) -> List[int]:
        """Every page with at least one recorded access, sorted."""
        return sorted({vpn for (_, vpn) in self._cells})

    def sharing_label(self, interval: int, vpn: int) -> str | None:
        """Classify one page-interval as 'private' or 'shared'."""
        sample = self.sample(interval, vpn)
        if sample is None:
            return None
        touchers = sum(1 for count in sample.per_gpu_accesses if count)
        return "shared" if touchers > 1 else "private"

    def rw_label(self, interval: int, vpn: int) -> str | None:
        """Classify one page-interval as 'read' or 'read-write'."""
        sample = self.sample(interval, vpn)
        if sample is None:
            return None
        return "read-write" if sample.writes else "read"

"""Hardware access counters for counter-based migration (Section II-B2).

Volta-style GPUs count *remote* accesses at a 64 KB page-group
granularity; when a group's counter reaches the static threshold (256),
the GPU requests migration of the group's pages from the UVM driver.
Counters are per requesting GPU and reset when the tracked pages
migrate (the remote mapping they counted no longer exists).
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple


class AccessCounterFile:
    """Per-GPU remote-access counters, grouped by 64 KB page group."""

    def __init__(self, threshold: int, pages_per_group: int) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if pages_per_group < 1:
            raise ValueError("pages_per_group must be >= 1")
        self.threshold = threshold
        self.pages_per_group = pages_per_group
        #: group id -> {gpu id -> remote access count}
        self._groups: Dict[int, Dict[int, int]] = {}
        self.migrations_triggered = 0

    def group_of(self, vpn: int) -> int:
        """Counter-group id covering the page."""
        return vpn // self.pages_per_group

    def record_remote_access(self, gpu: int, vpn: int) -> bool:
        """Count one remote access; True when the threshold fires.

        Firing clears the group's counters — the UVM driver is expected
        to migrate the group's pages toward ``gpu`` in response.
        """
        group = vpn // self.pages_per_group
        per_gpu = self._groups.setdefault(group, {})
        count = per_gpu.get(gpu, 0) + 1
        if count >= self.threshold:
            del self._groups[group]
            self.migrations_triggered += 1
            return True
        per_gpu[gpu] = count
        return False

    def reset_group(self, vpn: int) -> None:
        """Clear all GPUs' counters for the group containing ``vpn``."""
        self._groups.pop(self.group_of(vpn), None)

    def count(self, gpu: int, vpn: int) -> int:
        """Current remote-access count for (gpu, group of vpn)."""
        per_gpu = self._groups.get(self.group_of(vpn))
        if per_gpu is None:
            return 0
        return per_gpu.get(gpu, 0)

    def iter_counts(self) -> Iterator[Tuple[int, int, int]]:
        """Yield every live counter as ``(group, gpu, count)``.

        Deterministically ordered; used by the machine-state sanitizer
        to assert no stored count ever reaches the threshold (reaching
        it must fire a migration and clear the group).
        """
        for group in sorted(self._groups):
            per_gpu = self._groups[group]
            for gpu in sorted(per_gpu):
                yield group, gpu, per_gpu[gpu]

    def __len__(self) -> int:
        """Number of page groups with at least one live counter."""
        return len(self._groups)

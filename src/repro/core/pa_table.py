"""The software Page Attribute Table (PA-Table, Section V-C).

The PA-Table lives in CPU memory and holds, per faulting page, a 48-bit
entry: 45-bit VPN, one read/write bit, and a 2-bit fault counter
initialized to 00.  Entries are created when a page first faults, are
updated on every local page fault / page protection fault, and are
deleted the moment the fault counter reaches the fault threshold and the
page's placement scheme is re-decided.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

#: Entry size per the paper's overhead analysis: 45b VPN + 2b counter
#: + 1b read/write.
ENTRY_BITS = 48

#: Bit layout of the packed 48-bit entry (Figure 12): VPN in the low 45
#: bits, the read/write bit above it, the 2-bit counter on top.
_VPN_BITS = 45
_VPN_MASK = (1 << _VPN_BITS) - 1
_RW_SHIFT = _VPN_BITS
_COUNTER_SHIFT = _VPN_BITS + 1
_COUNTER_MASK = 0b11


@dataclasses.dataclass(slots=True)
class PAEntry:
    """One PA-Table / PA-Cache entry.

    ``rw_bit`` is 0 while the page has only been read and becomes (and
    stays) 1 after the first write of the current scheme lifetime.
    ``fault_counter`` counts local page faults plus page protection
    faults since the entry was (re)created.
    """

    vpn: int
    rw_bit: int = 0
    fault_counter: int = 0
    #: Modified since the PA-Cache last filled or wrote it back; not
    #: part of the architectural 48-bit word (excluded from equality
    #: and :meth:`encode`).
    dirty: bool = dataclasses.field(
        default=False, compare=False, repr=False
    )

    def record_fault(self, is_write: bool) -> None:
        """Apply one fault: bump the counter, make the RW bit sticky."""
        self.fault_counter += 1
        if is_write:
            self.rw_bit = 1
        self.dirty = True

    def encode(self) -> int:
        """Pack into the 48-bit hardware word of Figure 12.

        The fault counter saturates at the 2-bit field's maximum: the
        paper's default threshold of 4 triggers exactly when the "11"
        counter takes one more fault, so nothing above 3 is ever stored.
        """
        counter = min(self.fault_counter, _COUNTER_MASK)
        return (
            (self.vpn & _VPN_MASK)
            | ((self.rw_bit & 1) << _RW_SHIFT)
            | (counter << _COUNTER_SHIFT)
        )

    @classmethod
    def decode(cls, word: int) -> "PAEntry":
        """Unpack a 48-bit word produced by :meth:`encode`."""
        return cls(
            vpn=word & _VPN_MASK,
            rw_bit=(word >> _RW_SHIFT) & 1,
            fault_counter=(word >> _COUNTER_SHIFT) & _COUNTER_MASK,
        )


class PATable:
    """Dict-backed PA-Table with memory-footprint accounting."""

    def __init__(self) -> None:
        #: VPN -> entry.  The PA-Cache fills from and writes back into
        #: this dict directly.
        self.entries: Dict[int, PAEntry] = {}
        self.lookups = 0
        self.deletions = 0

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self.entries

    def lookup(self, vpn: int) -> PAEntry | None:
        """Read the entry for the page (None when absent)."""
        self.lookups += 1
        return self.entries.get(vpn)

    def insert(self, entry: PAEntry) -> None:
        """Write an entry (the update of a fault without the PA-Cache)."""
        self.entries[entry.vpn] = entry

    def remove(self, vpn: int) -> PAEntry | None:
        """Delete the entry after a scheme change (threshold reached)."""
        entry = self.entries.pop(vpn, None)
        if entry is not None:
            self.deletions += 1
        return entry

    def take(self, vpn: int) -> PAEntry | None:
        """Move an entry out of the table (PA-Cache write-allocate fill).

        Unlike :meth:`remove` this does not count as a deletion: the
        entry lives on in the PA-Cache and will be written back later.
        """
        return self.entries.pop(vpn, None)

    def footprint_bits(self) -> int:
        """Current table size in bits (the paper's 0.15% overhead math)."""
        return len(self.entries) * ENTRY_BITS

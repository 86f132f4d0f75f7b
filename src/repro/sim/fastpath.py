"""The batched steady-state fast path of the access engine.

The overwhelmingly common access in every workload's steady phase is
*boring*: it hits the L1 TLB, the page is resident locally, no fault
fires, no policy boundary is due.  The full scalar pipeline still pays
several Python calls for each one.  With the fast path on
(``SystemConfig.fast_path``, the default) the engine retires such
accesses two ways, the way GRIT's own evaluation substrate (MGPUSim)
does — model the interesting accesses precisely, price the
uninteresting ones cheaply:

* one at a time, through the **fused check** inline in ``Engine.run``,
  which retires every L1 hit (both contention modes; see
  :mod:`repro.sim.engine`);
* in bulk, through this module's :meth:`FastPath.round`, which batches
  every GPU's verified steady run (flat contention only).  A per-GPU
  back-off in the engine tries rounds only where they recently paid:
  at 4 KiB pages steady runs are short and most rounds would commit
  next to nothing.

With the fast path off every access takes the full scalar pipeline;
that is the reference both shortcuts are tested against.

An access is **steady** for GPU ``g`` when all of:

* its folded page hits ``g``'s L1 TLB (``peek`` — no LRU mutation
  until the run is committed),
* the cached translation is local (``pte.location == g``) — remote
  and host locations take the far-access path with driver hooks,
* a write finds the PTE writable (otherwise a protection fault) and
  the policy has no GPS store semantics (GPS writes broadcast),
* no fault is parked in ``g``'s replayable buffer (batch mode), and
* the engine is in flat contention mode (``contention="queued"``
  prices each access against live link/DRAM occupancy, which is
  order-sensitive — the engine never builds a FastPath there).

(The fused check needs only the first three: it makes the access's
one DRAM-channel reservation at the instant the pipeline would, and
the end-of-stream drain of parked faults follows it as usual.)

One steady access then costs exactly ``l1_lookup + local_access``
cycles and advances the GPU's clock by that plus the issue gap
(:attr:`FastPath.advance`, which the fused check also uses in flat
mode); its only side effects are per-GPU L1 hit counts and L1/DRAM LRU
promotion — all per-GPU-local (the engine derives the access tallies
from the cursor positions).  Steady accesses of *different* GPUs
therefore commute, which is what lets :meth:`FastPath.round` batch
every GPU's verified steady prefix in one step instead of degenerating
to one-access runs under the engine's lockstep lowest-clock
scheduling.

A round works in three moves:

1. **Verify**: per active GPU, probe the next access alone (one L1
   ``peek``), then scan a zero-copy window off its stream cursor
   (:meth:`~repro.sim.pipeline.StreamCursor.peek_batch`) with an
   early-exit loop that memoizes one (read_ok, write_ok) verdict per
   folded page — the scan's cost is proportional to the run it finds.
   The window grows adaptively (64 entries up to
   :data:`~repro.sim.pipeline.CURSOR_CHUNK`) so fault-heavy phases
   pay for short windows and steady phases verify in big gulps.  The
   verified-but-unconsumed remainder is cached per GPU in
   :attr:`FastPath.state`: fast rounds and fused accesses never
   mutate translation or residency state, so a cache entry survives
   until the engine runs anything through the full pipeline or a
   boundary hook — then :meth:`invalidate` drops the acting GPU's
   entry (its cursor moved) and epoch-stamps the rest, which cheaply
   *revalidate* at their next use by re-probing just the pages in
   their memo.  A fused access consumes one access of its GPU's
   entry (the engine decrements ``n_ok`` and drops the entry at 0)
   without an epoch bump: it only reorders its own GPU's LRU state,
   which no verdict depends on.
2. **Bound**: the joint horizon ``H`` is the lexicographic minimum of
   ``(t, gpu)`` over every GPU's first unverified-or-unsteady access
   time, further capped by the next policy-interval and observation
   boundaries.  Every access strictly before ``H`` in the engine's
   ``(clock, gpu_id)`` scheduling order would have been replayed
   before anything interesting happens, so it is safe to batch.
3. **Commit**: per GPU, price its sub-``H`` prefix in one step — one
   ``hits`` bump, L1/DRAM LRU promotion per unique page in last-access
   order, one cursor advance, and a single clock advance through the
   timing kernel's bulk charge API.

The moment anything interesting happens — an L2 miss, a fault, a
protection fault, an interval/observation boundary, a pending drain —
the detector stops the run there and the engine falls back to the
fused check or the scalar pipeline for that access.  Results are
bit-for-bit identical with the fast path on or off;
``tests/sim/test_fastpath.py`` and the pipeline and bench goldens, run
both ways, hold that line.

Enable/disable with ``SystemConfig(fast_path=...)`` or the
``--no-fast-path`` CLI flag.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.sim.pipeline import CURSOR_CHUNK

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine
    from repro.sim.gpu import GpuNode

__all__ = ["FastPath"]

#: Smallest verification window; fault-heavy phases settle here so a
#: run cut short by the next fault wastes little verification work.
_MIN_WINDOW = 64

#: Runs at or below this length commit through a plain Python replay
#: of the per-access side effects; above it the numpy bulk commit's
#: fixed overhead amortizes and wins.
_SCALAR_COMMIT = 64

#: Sentinel horizon for a GPU whose verified run reaches the end of
#: its stream: nothing after it can constrain the other GPUs.
_NO_HORIZON = float("inf")


class FastPath:
    """Per-run steady-state batcher bound to one engine's state."""

    def __init__(self, engine: "Engine") -> None:
        machine = engine.machine
        if machine.kernel.queued:
            raise ConfigError(
                "the steady-state fast path requires flat contention "
                "mode; queued-mode accesses are order-sensitive"
            )
        self.gpus = machine.gpus
        self.counters = machine.counters
        self.kernel = machine.kernel
        self.cursors = engine.stage.cursors
        self.service = engine.fault_service
        self.inline = engine.fault_service.inline
        self.fold_shift = engine.stage.fold_shift
        self.gps_writes = engine.policy.gps_semantics
        l1_latency = engine.config.l1_tlb.lookup_latency
        issue_gap = engine.config.issue_gap
        #: Clock advance of one steady access: L1 hit + local data
        #: access + the inter-instruction issue gap.
        self.advance = (
            l1_latency
            + self.kernel.local_access_bulk(0, 1, 0)
            + issue_gap
        )
        #: Non-data share of the advance (charged outside the kernel).
        self.overhead = l1_latency + issue_gap
        #: gpu_id -> [stamp, n_ok, reaches_end, unsteady, memo]: the
        #: GPU's cached verification (see _verify for the slot
        #: meanings).  Public: the engine's fused check consumes it.
        self.state: Dict[int, list] = {}
        #: Bumped whenever scalar activity may have mutated TLB /
        #: page-table / residency state; states carrying an older
        #: stamp must revalidate their memo before being trusted.
        self._epoch = 0
        #: gpu_id -> next verification window size (adaptive).
        self._window: Dict[int, int] = {}

    def invalidate(self, gpu_id: int) -> None:
        """Note scalar activity initiated by ``gpu_id``.

        The engine calls this before each full-pipeline access, on
        each boundary iteration and before an end-of-stream drain —
        the only things that can mutate TLB, page-table, or residency
        state.
        The acting GPU's cached verification is dropped outright (its
        cursor is about to move); every other GPU's survives with a
        stale stamp and is *revalidated* at its next plan by
        re-probing just the unique pages its run touches — far
        cheaper than re-scanning the run access by access.
        """
        self._epoch += 1
        self.state.pop(gpu_id, None)

    # -- detection -----------------------------------------------------

    def _verify(self, gpu_id: int) -> list:
        """Measure one GPU's steady prefix off the cursor.

        Builds and caches the state record
        ``[stamp, n_ok, reaches_end, unsteady, memo]``:

        * ``n_ok`` — verified steady accesses not yet consumed;
        * ``reaches_end`` — the verified run extends to the end of
          the stream (nothing after it can constrain other GPUs);
        * ``unsteady`` — the *next* access is known not steady (the
          verdict holds until scalar activity invalidates it);
        * ``memo`` — folded page -> (read_ok, write_ok) for every
          page the scan probed, the basis for cheap revalidation.

        The scan stops at the first unsteady access, so its cost is
        proportional to the run it finds; the adaptive window only
        bounds how much of a long steady stretch is verified per gulp
        — it grows while windows come back fully steady and shrinks
        back toward the measured run length when they do not.
        """
        memo: Dict[int, Tuple[bool, bool]] = {}
        state = [self._epoch, 0, False, False, memo]
        self.state[gpu_id] = state
        if not self.inline and self.service.pending(gpu_id):
            # Parked faults drain (and replay) before the stream may
            # proceed past the batch boundary; never batch over them.
            state[3] = True
            return state
        cursor = self.cursors[gpu_id]
        shift = self.fold_shift
        peek = self.gpus[gpu_id].tlbs.l1.peek
        gps = self.gps_writes
        # Probe the first access alone before any window machinery:
        # unsteady phases pay one peek per scalar access, not a batch.
        vpn, is_write = cursor.peek()
        page = vpn >> shift
        entry = peek(page)
        if entry is None or entry.location != gpu_id:
            flags = (False, False)
        else:
            flags = (True, not gps and entry.writable)
        memo[page] = flags
        if not flags[1 if is_write else 0]:
            state[3] = True
            return state
        window = self._window.get(gpu_id, _MIN_WINDOW)
        vpns, writes = cursor.peek_batch(window)
        n_ok = 0
        for vpn, is_write in zip(vpns.tolist(), writes.tolist()):
            page = vpn >> shift
            flags = memo.get(page)
            if flags is None:
                entry = peek(page)
                if entry is None or entry.location != gpu_id:
                    flags = (False, False)
                else:
                    flags = (True, not gps and entry.writable)
                memo[page] = flags
            if not flags[1 if is_write else 0]:
                break
            n_ok += 1
        if n_ok == len(vpns):
            # Fully steady window: verify in bigger gulps next time.
            self._window[gpu_id] = min(window * 4, CURSOR_CHUNK)
            state[2] = cursor.position + n_ok >= cursor.length
        else:
            self._window[gpu_id] = max(
                _MIN_WINDOW, min(n_ok * 2, CURSOR_CHUNK)
            )
        state[1] = n_ok
        state[3] = n_ok == 0
        return state

    def _revalidate(self, gpu_id: int, state: list) -> bool:
        """Re-probe a stale state's pages; True when still accurate.

        Scalar activity elsewhere can only have changed this GPU's
        view through its L1 entries (its own cursor and fault buffer
        are untouched — the engine drops the acting GPU's state
        outright).  If every page in the memo still probes to the
        same (read_ok, write_ok) verdict, the cached scan would
        reproduce itself exactly, so the state is still good.
        """
        if not self.inline and self.service.pending(gpu_id):
            return False
        peek = self.gpus[gpu_id].tlbs.l1.peek
        gps = self.gps_writes
        for page, flags in state[4].items():
            entry = peek(page)
            if entry is None or entry.location != gpu_id:
                fresh = (False, False)
            else:
                fresh = (True, not gps and entry.writable)
            if fresh != flags:
                return False
        state[0] = self._epoch
        return True

    def _plan(self, gpu_id: int) -> Tuple[int, float]:
        """Steady prefix + horizon for one GPU, via the cache.

        Returns ``(n_ok, horizon)`` where the horizon is the
        simulated time of the GPU's first unverified-or-unsteady
        access — its current clock when the very next access is
        unsteady, infinity when the verified run reaches the end of
        the stream.
        """
        clock = self.gpus[gpu_id].clock
        state = self.state.get(gpu_id)
        if state is not None and state[0] != self._epoch:
            if not self._revalidate(gpu_id, state):
                state = None
        if state is None or (state[1] == 0 and not state[3]):
            # Unknown, stale, or fully consumed by earlier rounds:
            # (re-)verify from the current cursor position — sound,
            # fast rounds mutated nothing since the last scalar step.
            state = self._verify(gpu_id)
        if state[3]:
            return 0, clock
        if state[2]:
            return state[1], _NO_HORIZON
        return state[1], clock + state[1] * self.advance

    # -- the joint round -----------------------------------------------

    def round(
        self,
        heap: List[Tuple[int, int]],
        next_interval: int | None,
        obs_next: int | None,
    ) -> bool:
        """Batch every GPU's steady prefix up to the joint horizon.

        ``heap`` is the engine's ``(clock, gpu_id)`` scheduling heap
        with a fresh top entry; on success it is rebuilt in place with
        the post-run clocks (exhausted GPUs dropped) and True is
        returned.  Returns False — heap untouched, nothing consumed —
        when the scheduled GPU's next access is not steady.
        """
        top_gpu = heap[0][1]
        top_ok, top_until = self._plan(top_gpu)
        if top_ok == 0:
            # The scheduled access is not steady: scalar pipeline.
            # (When it IS steady the round always commits at least
            # that access — every other GPU/boundary bound is strictly
            # later in (clock, gpu_id) order.)
            return False
        plans: List[Tuple[int, int]] = [(top_gpu, top_ok)]
        horizon: Tuple[float, int] = (top_until, top_gpu)
        for _, gpu_id in heap:
            if gpu_id == top_gpu:
                continue
            n_ok, until = self._plan(gpu_id)
            plans.append((gpu_id, n_ok))
            if (until, gpu_id) < horizon:
                horizon = (until, gpu_id)
        if next_interval is not None and (next_interval, -1) < horizon:
            horizon = (next_interval, -1)
        if obs_next is not None and (obs_next, -1) < horizon:
            horizon = (obs_next, -1)
        h_clock, h_id = horizon
        advance = self.advance
        gpus = self.gpus
        total = 0
        for gpu_id, n_ok in plans:
            if n_ok == 0:
                continue
            clock = gpus[gpu_id].clock
            # Batch exactly the accesses scheduled strictly before the
            # horizon in (clock, gpu_id) order: access i of this GPU
            # runs at clock + i*advance and ties break by gpu id.
            limit = h_clock if gpu_id < h_id else h_clock - 1
            if limit < clock:
                continue
            if limit >= clock + (n_ok - 1) * advance:
                # Whole verified prefix fits under the horizon (also
                # the infinite-horizon case: every stream ends steady).
                count = n_ok
            else:
                count = int(limit - clock) // advance + 1
            if count <= 0:
                continue
            self._commit(gpu_id, gpus[gpu_id], clock, count)
            self.state[gpu_id][1] -= count
            total += count
        if total == 0:
            return False
        cursors = self.cursors
        heap[:] = [
            (gpus[gpu_id].clock, gpu_id)
            for _, gpu_id in heap
            if cursors[gpu_id].position < cursors[gpu_id].length
        ]
        heapq.heapify(heap)
        return True

    # -- committing one run --------------------------------------------

    def _commit(
        self, gpu_id: int, node: "GpuNode", clock: int, count: int
    ) -> None:
        """Apply one verified run's effects in bulk, bit-for-bit.

        Replicates exactly what ``count`` scalar iterations would have
        done: L1 hit stats + MRU order, DRAM LRU/dirty state, cursor
        position (the access tallies' source), and the clock.
        """
        cursor = self.cursors[gpu_id]
        vpns, writes = cursor.peek_batch(count)
        counters = self.counters
        counters.fastpath_runs += 1
        counters.fastpath_accesses += count
        l1 = node.tlbs.l1
        l1.hits += count
        dram = node.dram
        if count <= _SCALAR_COMMIT:
            # Short run: plain Python beats numpy's fixed per-call
            # overhead.  Final L1 MRU order and DRAM LRU/dirty state
            # only depend on each unique page's last access, so the
            # run is deduped before touching the structures.
            shift = self.fold_shift
            vl = vpns.tolist()
            wl = writes.tolist()
            nwrites = wl.count(True)
            first_page = vl[0] >> shift
            if (min(vl) >> shift) == first_page == (max(vl) >> shift):
                # Single folded page — the typical sweep run shape.
                l1.promote(first_page)
                if nwrites:
                    dram.mark_dirty(first_page)
                else:
                    dram.touch(first_page)
            else:
                # Dict pop+reinsert keeps pages in last-access order
                # and merges the per-page written flag on the way.
                order: Dict[int, bool] = {}
                for vpn, is_write in zip(vl, wl):
                    page = vpn >> shift
                    order[page] = order.pop(page, False) or is_write
                for page, wrote in order.items():
                    l1.promote(page)
                    if wrote:
                        dram.mark_dirty(page)
                    else:
                        dram.touch(page)
            data_cycles = self.kernel.local_access_bulk(
                gpu_id, count, clock
            )
            node.clock = clock + count * self.overhead + data_cycles
            cursor.advance(count)
            return
        writes = writes.astype(bool, copy=False)
        nwrites = int(np.count_nonzero(writes))
        folded = vpns >> self.fold_shift
        first_page = int(folded[0])
        if int(folded[-1]) == first_page and (folded == first_page).all():
            # Single-page run (the typical shape: a page's remaining
            # accesses after its install, up to the next page's fault).
            l1.promote(first_page)
            if nwrites:
                dram.mark_dirty(first_page)
            else:
                dram.touch(first_page)
        else:
            # Final L1 MRU order and DRAM LRU/dirty state only depend
            # on each unique page's *last* access in the run: replay
            # uniques in ascending last-position order.
            uniq, first_in_reversed = np.unique(
                folded[::-1], return_index=True
            )
            order = np.argsort(first_in_reversed)[::-1]
            if nwrites == 0:
                for j in order.tolist():
                    page = int(uniq[j])
                    l1.promote(page)
                    dram.touch(page)
            else:
                _, inverse = np.unique(folded, return_inverse=True)
                wrote = (
                    np.bincount(
                        inverse,
                        weights=writes.astype(np.float64),
                        minlength=len(uniq),
                    )
                    > 0
                )
                for j in order.tolist():
                    page = int(uniq[j])
                    l1.promote(page)
                    if wrote[j]:
                        dram.mark_dirty(page)
                    else:
                        dram.touch(page)
        data_cycles = self.kernel.local_access_bulk(gpu_id, count, clock)
        node.clock = clock + count * self.overhead + data_cycles
        cursor.advance(count)

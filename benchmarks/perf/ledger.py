"""Outside-in layer ledger of the simulator's public methods.

The layers are public methods of the engine's objects, named by module
in :data:`REPLAY_HOOKS`; nothing under ``src/`` changes.  Two kinds of
traced pass measure them:

* a *counting* pass wraps those methods after construction (the way
  ``UvmDriver._install_trace_hooks`` wraps its own entry points).  Each
  wrapper counts its calls and the calls that return True; the first
  :data:`SPAN_CAP` spans are also timed, for a Chrome trace;
* a *sampled* pass wraps nothing.  Every :data:`SAMPLE_S` of wall time a
  signal handler walks the Python stack to the innermost frame of a
  hooked method and credits the wall time since the previous sample,
  less its own, to that frame's ``(layer, caller layer)``.  A layer's
  self time, its spans' duration minus their child spans, is the sum
  of what it was credited.

Why sampling: a wrapper costs about twice as much between the
simulator's own instructions as on an empty method, so a wrapper cost
calibrated on empty methods leaves about half of it in the layers.
Timing every span that way made the layer self times add up to
1.18-1.32 times the untraced replay time.  A pass without wrappers has
no such cost.
"""

from __future__ import annotations

import contextlib
import signal
import time
from collections import Counter
from typing import Callable, Dict, Iterator, List, NamedTuple, Tuple

from repro.sim import Engine
from repro.workloads import make_workload

#: Caller layer of spans opened by the benchmark itself.
ROOT = "bench"

#: Layers of the simulation set-up, and the call each one times.
SETUP_HOOKS = (("workloads", make_workload), ("sim.engine.build", Engine))
SETUP_LAYERS = tuple(layer for layer, _ in SETUP_HOOKS)

#: Replay layers: ``(layer, attribute path from the engine, methods)``.
#: An object missing from a run (no fast path under queued contention,
#: no GRIT mechanism under other policies) is skipped.
REPLAY_HOOKS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("sim.engine", "", ("run",)),
    ("sim.fastpath", "fastpath", ("round",)),
    ("sim.pipeline", "stage", ("lookup", "next_access")),
    ("uvm.fault_service", "fault_service", ("submit", "drain")),
    (
        "uvm.driver",
        "driver",
        (
            "handle_local_fault",
            "handle_protection_fault",
            "service_fault_batch",
            "on_remote_access",
            "gps_write",
            "prefetch_page",
        ),
    ),
    ("uvm.executor", "driver.mechanics", ("execute",)),
    (
        "policies",
        "policy",
        ("on_fault_observed", "on_remote_access", "on_interval", "mechanic_for"),
    ),
    ("core", "policy.mechanism", ("observe_fault",)),
    (
        "sim.timing",
        "machine.kernel",
        (
            "transfer",
            "control_message",
            "local_access",
            "local_access_bulk",
            "remote_access",
            "host_access",
            "host_service",
            "pipeline_flush",
            "invalidation",
            "collapse_invalidation",
            "gps_broadcast",
        ),
    ),
)

REPLAY_LAYERS = tuple(layer for layer, _, _ in REPLAY_HOOKS)
LAYERS = SETUP_LAYERS + REPLAY_LAYERS

#: Methods through which the engine enters the fault path; their
#: inclusive time, when called by the engine loop, is the fault path.
FAULT_ENTRIES = frozenset(
    {"submit", "drain", "handle_local_fault", "handle_protection_fault"}
)

#: Wall seconds between samples.
SAMPLE_S = 0.001

#: Raw spans timed and kept for the Chrome trace.
SPAN_CAP = 100_000


def hooked_methods(engine) -> Iterator[Tuple[str, str, object]]:
    """``(layer, method name, owner)`` of every replay-layer method."""
    for layer, path, methods in REPLAY_HOOKS:
        owner = engine
        for attr in filter(None, path.split(".")):
            owner = getattr(owner, attr, None)
        if owner is not None:
            for method in methods:
                yield layer, method, owner


class SpanCounter:
    """Calls per layer of a counting pass, and its first spans."""

    def __init__(self, span_cap: int = SPAN_CAP) -> None:
        #: layer -> [calls, calls returning True].
        self.counts: Dict[str, List[int]] = {
            layer: [0, 0] for layer in LAYERS
        }
        self.span_cap = span_cap
        #: ``(name, layer, start_ns, duration_ns)`` of the first spans.
        self.spans: List[Tuple[str, str, int, int]] = []

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """``fn``, counted (and within the cap timed) as a span of ``layer``."""
        counts = self.counts[layer]
        spans = self.spans
        cap = self.span_cap
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            counts[0] += 1
            if len(spans) < cap:
                start = clock()
                result = fn(*args, **kwargs)
                spans.append((name, layer, start, clock() - start))
            else:
                result = fn(*args, **kwargs)
            if result is True:
                counts[1] += 1
            return result

        return span

    def instrument(self, engine) -> None:
        """Wrap the replay-layer methods of one constructed engine."""
        for layer, method, owner in hooked_methods(engine):
            wrapped = self.wrap(getattr(owner, method), method, layer)
            setattr(owner, method, wrapped)

    def calls(self, layer: str) -> int:
        """Spans opened so far in ``layer``."""
        return self.counts[layer][0]

    def chrome_trace(self, metadata: Dict[str, object]) -> dict:
        """The timed spans as a Chrome trace-event document."""
        origin = min((span[2] for span in self.spans), default=0)
        events: List[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "args": {"name": "benchmarks.perf counting pass"},
            }
        ]
        events.extend(
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (start - origin) / 1000,
                "dur": duration / 1000,
                "pid": 1,
                "tid": 1,
            }
            for name, layer, start, duration in self.spans[: self.span_cap]
        )
        return {"traceEvents": events, "otherData": metadata}


class _Hook(NamedTuple):
    """What the sampler knows about the code of one hooked method."""

    layer: str
    fault_entry: bool
    #: ``Engine.run`` or a set-up call: the outermost span of its phase.
    #: A set-up layer owns every sample below it.
    root: bool


class Sampler:
    """Seconds per ``(layer, caller layer)`` of a sampled simulation."""

    def __init__(self) -> None:
        #: ``(layer, caller layer) -> seconds``.
        self.seconds: Counter = Counter()
        #: Seconds under a fault entry that ``Engine.run`` called.
        self.fault_s = 0.0
        self._hooks: Dict[object, _Hook] = {
            (fn.__init__ if isinstance(fn, type) else fn).__code__: _Hook(
                layer, False, True
            )
            for layer, fn in SETUP_HOOKS
        }

    def register(self, engine) -> None:
        """Learn the code of one constructed engine's layer methods."""
        for layer, method, owner in hooked_methods(engine):
            self._hooks[getattr(owner, method).__code__] = _Hook(
                layer, method in FAULT_ENTRIES, layer == "sim.engine"
            )

    def record(self, frame, seconds: float) -> None:
        """Credit ``seconds`` to the innermost hooked frame of ``frame``."""
        hooks = self._hooks
        inner = caller = below = None
        while frame is not None:
            hook = hooks.get(frame.f_code)
            if hook is not None:
                if hook.root:
                    if inner is None or hook.layer in SETUP_LAYERS:
                        inner, caller = hook, None
                    else:
                        caller = caller or hook
                        if below.fault_entry:
                            self.fault_s += seconds
                    break
                if inner is None:
                    inner = hook
                elif caller is None:
                    caller = hook
                below = hook
            frame = frame.f_back
        self.seconds[
            (inner.layer if inner else ROOT, caller.layer if caller else ROOT)
        ] += seconds

    @contextlib.contextmanager
    def sampling(self) -> Iterator[None]:
        """Sample the stack every :data:`SAMPLE_S` while the block runs.

        A sample is worth the wall time since the one before it, less
        the handler's own time.  Python runs the handler only between
        bytecodes, so a long call into C (``gc.collect``, a numpy
        kernel) delays it, and the time of that call goes to the frame
        that made it rather than being spread over every sample.
        """
        clock = time.perf_counter_ns
        last = [0]

        def handler(signum, frame):
            self.record(frame, (clock() - last[0]) / 1e9)
            last[0] = clock()

        previous = signal.signal(signal.SIGALRM, handler)
        last[0] = clock()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def self_s(self) -> Dict[str, float]:
        """Self seconds per layer."""
        found: Counter = Counter()
        for (layer, _), seconds in self.seconds.items():
            found[layer] += seconds
        return {layer: found[layer] for layer in LAYERS}

    def replay_s(self) -> float:
        """Self seconds of the replay layers together."""
        self_s = self.self_s()
        return sum(self_s[layer] for layer in REPLAY_LAYERS)

    def fault_path_s(self) -> float:
        """Inclusive seconds of the fault entries ``Engine.run`` called."""
        return self.fault_s

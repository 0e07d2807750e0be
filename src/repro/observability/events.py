"""Structured event bus: what happened, when (in simulated time), and why.

Every interesting transition in the runtime — a task starting, a scheduler
picking a socket, the RGP window partition finishing, a fault firing — is
emitted as one immutable :class:`Event` to an :class:`EventSink`.  The
design constraints mirror real tracing runtimes (Nanos++/Extrae producing
Paraver traces, TaskTorrent's built-in tracer):

* **zero overhead when off** — the simulator holds no sink at all unless
  instrumentation was requested, and every emit site is guarded by a
  single ``is not None`` check; with the :class:`NullSink` the emit is a
  no-op that touches no simulator state, so results stay byte-identical;
* **observation never perturbs** — sinks only *read* the payload; no
  emit path draws from an RNG or mutates scheduler/simulator state;
* **bounded memory** — the default :class:`RingBufferSink` keeps the most
  recent ``capacity`` events and counts what it dropped, so tracing a
  million-task run cannot exhaust memory silently.

Timestamps are *simulated* time throughout (the machine under study), not
wall clock.  The only wall-clock quantity in the subsystem is the optional
``host_us`` payload on partitioner phase events, which measures the real
cost of the partitioning computation itself.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

#: Event taxonomy: kind -> one-line meaning (DESIGN.md §8 renders this).
#: Kinds are dotted ``family.detail`` slugs; families group related kinds.
TAXONOMY: dict[str, str] = {
    # -- task lifecycle ------------------------------------------------
    "task.start": "an attempt began on a core (args: tid, name, core, "
                  "socket, local_bytes, remote_bytes, attempt)",
    "task.finish": "the completing attempt ended (args: tid, name, core, "
                   "socket, duration)",
    "task.crash": "an attempt was killed by a fault (args: tid, name, "
                  "reason, attempt)",
    # -- scheduler decisions -------------------------------------------
    "sched.choice": "policy-level decision detail (args: tid, policy, "
                    "branch, socket/core, candidates/weights when known)",
    "sched.place": "runtime-level placement outcome after fault remapping "
                   "(args: tid, target=park|core|socket, core/socket)",
    "sched.steal": "an idle socket stole queued work (args: tid, thief, "
                   "victim, distance)",
    "sched.reoffer": "parked tasks were re-offered (args: n)",
    "epoch.advance": "a barrier epoch completed (args: epoch)",
    # -- RGP window / partitioning -------------------------------------
    "rgp.window": "the initial window closed (args: cutoff, window_size)",
    "rgp.partition.begin": "a window partition started (args: window, "
                           "n_tasks)",
    "rgp.partition.end": "a window partition result became available "
                         "(args: window, n_tasks, edge_cut, delay, "
                         "host_us)",
    "rgp.partition.launch": "a later window's partition was launched as "
                            "a sim-time activity (args: window, n_tasks, "
                            "trigger = prefetch | demand)",
    "rgp.partition.timeout": "the partition result was declared lost "
                             "(args: deadline, delay; window for "
                             "pipelined later windows)",
    "rgp.window.resize": "the adaptive controller resized future windows "
                         "(args: window, old, new, throughput)",
    "partition.coarsen": "multilevel coarsening finished (args: levels, "
                         "n_fine, n_coarse, host_us)",
    "partition.initial": "initial bisection of the coarsest graph "
                         "(args: n_vertices, cut)",
    "partition.refine": "one uncoarsening refinement pass (args: level, "
                        "n_vertices, cut)",
    # -- cluster network (DESIGN.md §15) -------------------------------
    "msg.send": "an inter-box transfer started contending on the source "
                "box's NIC (args: tid, src_box, dst_box, nbytes)",
    "msg.recv": "an inter-box transfer fully drained at the reader "
                "(args: tid, src_box, dst_box, nbytes, duration)",
    # -- faults --------------------------------------------------------
    "fault.inject": "a planned fault fired (args: family, plus the "
                    "family's parameters)",
    "fault.core_failed": "a core was quarantined (args: core, socket, "
                         "transient)",
    "fault.core_restored": "a transiently failed core returned "
                           "(args: core, socket)",
}


@dataclass(frozen=True)
class Event:
    """One structured trace event.

    ``ts`` is simulated time; ``kind`` is a :data:`TAXONOMY` slug; ``args``
    holds JSON-safe scalars only (ints, floats, strs, bools, small lists),
    so every sink's contents can be exported losslessly.
    """

    ts: float
    kind: str
    args: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"ts": self.ts, "kind": self.kind, **self.args}


class EventSink:
    """Receiver protocol: ``emit(event)`` plus an ``enabled`` flag.

    ``enabled`` lets emit sites skip building expensive payloads (weight
    vectors, candidate lists) when nobody is listening.
    """

    enabled: bool = True

    def emit(self, event: Event) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class NullSink(EventSink):
    """Discards everything; the no-op sink of the zero-overhead guarantee."""

    enabled = False

    def emit(self, event: Event) -> None:
        pass


#: Shared no-op sink (stateless, safe to reuse across simulators).
NULL_SINK = NullSink()


class RingBufferSink(EventSink):
    """Keeps the most recent ``capacity`` events; counts what it dropped.

    ``capacity=None`` means unbounded (use for short runs and tests).
    """

    def __init__(self, capacity: int | None = 1 << 16) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self._buf: deque[Event] = deque(maxlen=capacity)
        self.capacity = capacity
        #: Total events ever emitted (including dropped ones).
        self.total = 0

    @property
    def dropped(self) -> int:
        return self.total - len(self._buf)

    def emit(self, event: Event) -> None:
        self.total += 1
        self._buf.append(event)

    @property
    def events(self) -> list[Event]:
        """Snapshot of the retained events, oldest first."""
        return list(self._buf)

    def __len__(self) -> int:
        return len(self._buf)

    def __iter__(self):
        return iter(self._buf)


def validate_events(events: Iterable[Event]) -> list[str]:
    """Check every event uses a taxonomy kind and non-decreasing time.

    Test helper: returns a list of problem descriptions (empty = clean),
    catching typo'd kinds and causality violations early.
    """
    problems: list[str] = []
    last = float("-inf")
    for ev in events:
        if ev.kind not in TAXONOMY:
            problems.append(f"unknown event kind {ev.kind!r}")
        if ev.ts < last - 1e-9:
            problems.append(
                f"event {ev.kind!r} at ts={ev.ts} emitted after ts={last}"
            )
        last = max(last, ev.ts)
    return problems

"""Decision trace: everything the reference oracle needs to replay a run.

The production simulator owns three sources of nondeterminism-from-the-
oracle's-point-of-view: the scheduler's placement decisions, the per-task
duration jitter, and the timer machinery (fault events, partition
deliveries, retry backoffs).  The :class:`DecisionRecorder` probe captures
all three while the production run executes:

* **placements** — per task, a FIFO of the post-remap
  :class:`~repro.runtime.placement.Placement` returned for each offer;
* **jitter** — the multiplicative factor drawn for each ``(tid, attempt)``;
* **events** — every timer pop and every state-changing action applied from
  inside a timer callback, in application order.

The event list is the crux of float-trajectory fidelity: draining streams
in two steps (``b - r*dt1`` then ``- r*dt2``) is *not* bit-identical to one
step (``b - r*(dt1+dt2)``), so the oracle must stop its clock at every
point the production loop stopped — including timer pops whose callbacks
changed nothing.  Since all recorded actions happen inside timer callbacks,
recording order equals application order and the oracle needs no timers of
its own: it applies the recorded queue front-to-back whenever its clock
reaches the next recorded time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..runtime.probe import SimProbe


@dataclass(frozen=True)
class TraceEvent:
    """One replayable action at one instant of simulated time."""

    time: float
    kind: str  # tick | reoffer | fail_core | restore_core | speed | bw | crash | retry_offer
    data: tuple = ()


@dataclass
class DecisionTrace:
    """The recorded decisions of one production run."""

    placements: dict[int, deque] = field(default_factory=dict)
    jitter: dict[tuple[int, int], float] = field(default_factory=dict)
    events: list[TraceEvent] = field(default_factory=list)
    injected: dict[str, int] = field(default_factory=dict)


class DecisionRecorder(SimProbe):
    """Probe that fills a :class:`DecisionTrace` during a production run."""

    def __init__(self) -> None:
        self.trace = DecisionTrace()

    def _event(self, kind: str, *data) -> None:
        self.trace.events.append(TraceEvent(self.sim.now, kind, data))

    # -- decisions ------------------------------------------------------
    def on_offer(self, task, placement) -> None:
        self.trace.placements.setdefault(task.tid, deque()).append(placement)

    def on_start(self, rt, factor: float, attempt: int) -> None:
        self.trace.jitter[(rt.task.tid, attempt)] = factor

    # -- timers and their actions --------------------------------------
    def on_timer(self, time: float) -> None:
        self.trace.events.append(TraceEvent(time, "tick"))

    def on_reoffer(self, tids: list[int]) -> None:
        self._event("reoffer", tuple(tids))

    def on_retry_offer(self, tid: int) -> None:
        self._event("retry_offer", tid)

    def on_crash(self, rt, reason: str) -> None:
        # Core-failure kills are replayed inside the oracle's ``fail_core``
        # mechanics; only the timer-scheduled mid-flight crash is an event.
        if reason == "crash":
            self._event("crash", rt.task.tid)

    def on_fault(self, kind: str, **args) -> None:
        if kind == "fail_core":
            self._event("fail_core", args["core"])
        elif kind == "restore_core":
            self._event("restore_core", args["core"])
        elif kind == "set_core_speed":
            self._event("speed", args["core"], args["speed"])
        elif kind == "set_node_bw":
            self._event("bw", args["node"], args["factor"])

    def on_inject(self, family: str, **args) -> None:
        self.trace.injected[family] = self.trace.injected.get(family, 0) + 1

"""Observability: structured events, a metrics registry and trace export.

The instrumentation layer the rest of the system reports into (DESIGN.md
§8).  One :class:`Instrumentation` object bundles an event sink with a
metrics registry and rides through a run::

    from repro.observability import Instrumentation, write_chrome_trace

    obs = Instrumentation()
    result = simulate(program, topo, make_scheduler("rgp+las"),
                      instrument=obs)
    write_chrome_trace(result, "trace.json")   # open in ui.perfetto.dev

:class:`Instrumentation` is a subscriber on the simulator's one hook
channel (:class:`~repro.runtime.probe.SimProbe`), next to the oracle's
decision recorder and the invariant checker: its ``on_*`` handlers turn
the simulator's hooks into events, counters, gauges and histograms.
Schedulers and RGP emit their policy-level events (``sched.choice``,
``rgp.*``, ``partition.*``) through the same object as ``sim.obs``.

The zero-overhead contract: with ``instrument=None`` (the default) no
handler runs at all, and with the :class:`NullSink` every emit is a
state-free no-op — either way results are byte-identical to an
uninstrumented run (tested in ``tests/test_observability_overhead.py``).
"""

from __future__ import annotations

from ..runtime.probe import SimProbe
from .events import (
    NULL_SINK,
    TAXONOMY,
    Event,
    EventSink,
    NullSink,
    RingBufferSink,
    validate_events,
)
from .export import (
    chrome_trace,
    metrics_document,
    paraver_timeline,
    render_prometheus,
    write_chrome_trace,
    write_metrics_json,
    write_paraver,
)
from .metrics import (
    DEFAULT_DURATION_BOUNDS,
    FRACTION_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_matrix,
)


class Instrumentation(SimProbe):
    """One run's event sink plus metrics registry, fed by the simulator's
    hooks.

    ``sink=None`` builds a :class:`RingBufferSink` with ``capacity``
    events; pass :data:`NULL_SINK` to keep metrics collection while
    discarding the event stream.
    """

    def __init__(
        self,
        sink: EventSink | None = None,
        registry: MetricsRegistry | None = None,
        *,
        capacity: int | None = 1 << 16,
    ) -> None:
        self.sink = RingBufferSink(capacity) if sink is None else sink
        self.registry = MetricsRegistry() if registry is None else registry

    @property
    def events_enabled(self) -> bool:
        """Whether emitting events does anything (sites may skip building
        expensive payloads when this is False)."""
        return self.sink.enabled

    def emit(self, ts: float, kind: str, **args) -> None:
        """Emit one event at simulated time ``ts`` (no-op on a null sink)."""
        if self.sink.enabled:
            self.sink.emit(Event(ts=ts, kind=kind, args=args))

    @property
    def events(self) -> list[Event]:
        """Retained events, oldest first (empty for non-buffering sinks)."""
        return getattr(self.sink, "events", [])

    # ------------------------------------------------------------------
    # Simulator hooks (read the bound simulator, never mutate it)
    # ------------------------------------------------------------------
    def attach(self, sim) -> None:
        self.sim = sim
        #: ``sim.messages`` already reported as ``msg.recv``.
        self._recv_seen = 0

    def on_offer(self, task, placement) -> None:
        sim, reg = self.sim, self.registry
        if placement.park:
            target, where = "park", {}
        elif placement.core is not None:
            core = placement.core
            socket = sim.topology.socket_of_core(core)
            target, where = "core", {"core": core, "socket": socket}
        else:
            socket = placement.socket
            target, where = "socket", {"socket": socket}
            reg.gauge(f"queue.depth.s{socket}").set(
                sim.now, len(sim.socket_queues[socket])
            )
        self.emit(sim.now, "sched.place", tid=task.tid, target=target, **where)
        reg.counter(f"place.{target}").inc()

    def on_start(self, rt, factor: float, attempt: int) -> None:
        sim, reg, task = self.sim, self.registry, rt.task
        now = sim.now
        local_bytes, remote_bytes, _ = sim._start_traffic[task.tid]
        c_local = reg.counter("bytes.local")
        c_remote = reg.counter("bytes.remote")
        c_local.inc(local_bytes)
        c_remote.inc(remote_bytes)
        reg.gauge("bytes.local").set(now, c_local.value)
        reg.gauge("bytes.remote").set(now, c_remote.value)
        self.emit(
            now, "task.start",
            tid=task.tid, name=task.name, core=rt.core, socket=rt.socket,
            local_bytes=local_bytes, remote_bytes=remote_bytes,
            attempt=attempt,
        )
        for src, dst, nbytes, _ in sim._msgs_in_flight.get(task.tid, ()):
            self.emit(now, "msg.send", tid=task.tid, src_box=src, dst_box=dst,
                      nbytes=nbytes)
            reg.counter("net.messages").inc()
            reg.counter("net.bytes").inc(nbytes)
        reg.gauge("cores.busy").set(now, len(sim.running))

    def on_finish(self, rt) -> None:
        sim, reg, task = self.sim, self.registry, rt.task
        now = sim.now
        for m in sim.messages[self._recv_seen:]:
            self.emit(
                now, "msg.recv",
                tid=m.tid, src_box=m.src_box, dst_box=m.dst_box,
                nbytes=m.nbytes, duration=now - m.send,
            )
        self._recv_seen = len(sim.messages)
        duration = now - rt.start
        reg.counter("tasks.completed").inc()
        reg.histogram("task.duration").observe(duration)
        record = sim.records[-1]
        total = record.local_bytes + record.remote_bytes
        if total > 0:
            reg.histogram("task.remote_fraction", FRACTION_BOUNDS).observe(
                record.remote_bytes / total
            )
        reg.gauge("cores.busy").set(now, len(sim.running))
        self.emit(
            now, "task.finish",
            tid=task.tid, name=task.name, core=rt.core, socket=rt.socket,
            duration=duration,
        )

    def on_crash(self, rt, reason: str) -> None:
        sim, reg, task = self.sim, self.registry, rt.task
        self.emit(
            sim.now, "task.crash",
            tid=task.tid, name=task.name, reason=reason,
            attempt=int(sim.attempts[task.tid]) - 1,
        )
        reg.counter("tasks.crashed").inc()
        reg.counter("work.wasted").inc(sim.now - rt.start)

    def on_steal(self, task, thief: int, victim: int) -> None:
        sim = self.sim
        self.emit(
            sim.now, "sched.steal", tid=task.tid, thief=thief, victim=victim,
            distance=float(sim.topology.dist(thief, victim)),
        )
        self.registry.counter("steals").inc()

    def on_epoch(self, epoch: int) -> None:
        self.emit(self.sim.now, "epoch.advance", epoch=epoch)

    def on_reoffer(self, tids: list[int]) -> None:
        self.emit(self.sim.now, "sched.reoffer", n=len(tids))

    def on_fault(self, kind: str, **args) -> None:
        if kind not in ("fail_core", "restore_core"):
            return
        sim, core = self.sim, args["core"]
        where = {"core": core, "socket": sim.topology.socket_of_core(core)}
        if kind == "restore_core":
            self.emit(sim.now, "fault.core_restored", **where)
            return
        self.emit(sim.now, "fault.core_failed", **where,
                  transient=args["duration"] is not None)
        self.registry.counter("faults.cores_failed").inc()

    def on_inject(self, family: str, **args) -> None:
        self.emit(self.sim.now, "fault.inject", family=family, **args)
        self.registry.counter(f"faults.injected.{family}").inc()

    def on_dispatch(self) -> None:
        sim, reg = self.sim, self.registry
        for s, queue in enumerate(sim.socket_queues):
            reg.gauge(f"queue.depth.s{s}").set(sim.now, len(queue))

    def on_run_end(self, sim, result) -> None:
        """Close out the registry (traffic matrices = the simulator's own
        accumulators) and attach the streams to the result."""
        reg, now = self.registry, sim.now
        capacity = now * sim.topology.cores_per_socket
        for s in sim.topology.sockets():
            busy = float(sim.busy_time[s])
            reg.gauge(f"socket.busy.s{s}").set(now, busy)
            reg.gauge(f"socket.idle.s{s}").set(now, max(0.0, capacity - busy))
        reg.gauge("makespan").set(now, now)
        traffic = reg.matrix("numa.traffic", sim.bytes_by_pair.shape)
        traffic += sim.bytes_by_pair
        if sim.bytes_by_link is not None:
            links = reg.matrix("net.traffic", sim.bytes_by_link.shape)
            links += sim.bytes_by_link
        result.events = self.events
        result.events_dropped = getattr(self.sink, "dropped", 0)
        result.metrics = reg.snapshot()


__all__ = [
    "DEFAULT_DURATION_BOUNDS",
    "FRACTION_BOUNDS",
    "Counter",
    "Event",
    "EventSink",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "MetricsRegistry",
    "NULL_SINK",
    "NullSink",
    "RingBufferSink",
    "TAXONOMY",
    "chrome_trace",
    "metrics_document",
    "paraver_timeline",
    "render_matrix",
    "render_prometheus",
    "validate_events",
    "write_chrome_trace",
    "write_metrics_json",
    "write_paraver",
]

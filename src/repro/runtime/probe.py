"""The simulator's one hook channel.

A *probe* subscribes to the simulator: it is called at every transition of
a run, and the :class:`~repro.machine.memory.MemoryManager` notifies it
after every placement mutation.  Each hook site is one ``is not None``
test on ``Simulator.probe``, all an unprobed run pays.  The subscribers:

* :class:`~repro.verify.trace.DecisionRecorder` — captures everything the
  reference oracle needs to replay the run;
* :class:`~repro.observability.Instrumentation` — turns the hooks into
  structured events and metrics (DESIGN.md §8);
* :class:`~repro.verify.invariants.InvariantChecker` — asserts runtime
  invariants as the run unfolds.

``Simulator(probe=, instrument=, verify=)`` composes them in that order
into one :class:`CompositeProbe` (the checker's run-end check reads the
events the instrumentation attached) and binds each to the simulator.  A
probe never touches simulator state or an RNG, so probed and unprobed runs
are byte-identical (tested).  The base class is a complete no-op.
"""

from __future__ import annotations


class SimProbe:
    """No-op base probe; subclasses override the hooks they care about."""

    sim = None

    def attach(self, sim) -> None:
        """Bind to the simulator this probe subscribes to."""
        self.sim = sim

    def on_offer(self, task, placement) -> None:
        """A ready task was enqueued at ``placement`` (post-fault-remap)."""

    def on_start(self, rt, factor: float, attempt: int) -> None:
        """Attempt ``attempt`` of ``rt.task`` started (jitter ``factor``)."""

    def on_finish(self, rt) -> None:
        """``rt`` completed; its record and messages have been appended."""

    def on_crash(self, rt, reason: str) -> None:
        """``rt`` was killed (``"crash"`` timer or ``"core-failure"``)."""

    def on_steal(self, task, thief: int, victim: int) -> None:
        """Socket ``thief`` took ``task`` from ``victim``'s queues."""

    def on_epoch(self, epoch: int) -> None:
        """Barrier epoch ``epoch`` became active."""

    def on_timer(self, time: float) -> None:
        """A timer popped at ``time`` (before its callback runs)."""

    def on_reoffer(self, tids: list[int]) -> None:
        """Parked tasks ``tids`` leave the temporary queue (post-filter)."""

    def on_retry_offer(self, tid: int) -> None:
        """A crashed task is re-offered after its backoff delay."""

    def on_fault(self, kind: str, **args) -> None:
        """A fault hook fired: ``fail_core``, ``restore_core``,
        ``set_core_speed`` or ``set_node_bw``."""

    def on_inject(self, family: str, **args) -> None:
        """The injector fired a ``family`` fault with parameters ``args``."""

    def on_dispatch(self) -> None:
        """A dispatch round ended: no idle core can take queued work."""

    def on_loop(self, sim) -> None:
        """One main-loop iteration ended (timers, finishes, dispatch done)."""

    def on_abort(self, sim) -> None:
        """``_abort_run`` released the run state before an error."""

    def on_run_end(self, sim, result) -> None:
        """The run completed and ``result`` is fully built."""

    def on_memory_op(self, memory, op: str, key: int) -> None:
        """``key``'s placement changed (touch, bind, migrate, interleave)."""


#: Every hook a :class:`CompositeProbe` fans out.
HOOKS = tuple(name for name in vars(SimProbe) if name.startswith("on_"))


def _fan_out(calls):
    if len(calls) == 1:
        return calls[0]

    def fan(*args, **kwargs) -> None:
        for call in calls:
            call(*args, **kwargs)

    return fan


class CompositeProbe(SimProbe):
    """Fan one probe slot out to several probes, in order.  Each hook is
    bound once to the subscribers that override it."""

    def __init__(self, probes) -> None:
        self.probes = list(probes)
        for name in HOOKS:
            noop = getattr(SimProbe, name)
            calls = [
                getattr(p, name) for p in self.probes
                if getattr(getattr(p, name), "__func__", None) is not noop
            ]
            if calls:
                setattr(self, name, _fan_out(calls))

    def attach(self, sim) -> None:
        super().attach(sim)
        for p in self.probes:
            p.attach(sim)

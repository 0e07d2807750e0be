"""Turns a :class:`~repro.faults.plan.FaultPlan` into live simulator events.

The injector is deliberately thin: every *mechanism* (quarantine, crash,
re-execution, rate changes) lives in the simulator, which already owns the
event loop and all mutable state; the injector only schedules timers that
call the simulator's fault hooks, and draws the task-crash coin flips from
its own RNG stream so that an empty plan perturbs nothing.

Timed events (core faults, slowdowns, node degradations) are armed once at
attach time.  Task crashes are probabilistic per *attempt*: the simulator
calls :meth:`FaultInjector.on_task_start` for every task start and the
injector may schedule a mid-flight crash for that attempt.
"""

from __future__ import annotations

import numpy as np

from .plan import FaultPlan, TaskCrash


class FaultInjector:
    """Binds one fault plan to one simulator run."""

    def __init__(self, plan: FaultPlan, sim, rng: np.random.Generator) -> None:
        self.plan = plan
        self.sim = sim
        self.rng = rng
        #: Injected-event counters by family (diagnostics / reports).
        self.injected: dict[str, int] = {
            "core_failures": 0,
            "slowdowns": 0,
            "task_crashes": 0,
            "node_degradations": 0,
            "node_losses": 0,
            "network_degradations": 0,
        }
        self._crashes_left: dict[int, float] = {
            i: (np.inf if tc.max_crashes is None else tc.max_crashes)
            for i, tc in enumerate(plan.task_crashes)
        }

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def _record(self, family: str, **args) -> None:
        """Count the injection and report it to the simulator's probe."""
        self.injected[family] += 1
        probe = self.sim.probe
        if probe is not None:
            probe.on_inject(family, **args)

    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Schedule every timed fault of the plan on the simulator clock."""
        sim = self.sim
        for cf in self.plan.core_faults:
            sim.schedule_timer(cf.at, self._make_core_fault(cf.core, cf.duration))
        for sl in self.plan.slowdowns:
            sim.schedule_timer(
                sl.at, self._make_slowdown(sl.core, 1.0 / sl.factor, sl.duration)
            )
        for nd in self.plan.node_degradations:
            sim.schedule_timer(
                nd.at, self._make_degradation(nd.node, nd.factor, nd.duration)
            )
        for nl in self.plan.node_losses:
            sim.schedule_timer(
                nl.at, self._make_node_loss(nl.box, nl.duration)
            )
        for nw in self.plan.network_degradations:
            sim.schedule_timer(
                nw.at,
                self._make_network_degradation(nw.box, nw.factor, nw.duration),
            )

    def _make_core_fault(self, core: int, duration: float | None):
        def fire() -> None:
            self._record("core_failures", core=core, duration=duration)
            self.sim.fail_core(core, duration=duration)

        return fire

    def _make_slowdown(self, core: int, speed: float, duration: float | None):
        def fire() -> None:
            self._record("slowdowns", core=core, speed=speed, duration=duration)
            self.sim.set_core_speed(core, speed)
            if duration is not None:
                self.sim.schedule_timer(
                    duration, lambda: self.sim.set_core_speed(core, 1.0)
                )

        return fire

    def _make_degradation(self, node: int, factor: float, duration: float | None):
        def fire() -> None:
            self._record(
                "node_degradations", node=node, factor=factor, duration=duration
            )
            self.sim.set_node_bandwidth_factor(node, factor)
            if duration is not None:
                self.sim.schedule_timer(
                    duration,
                    lambda: self.sim.set_node_bandwidth_factor(node, 1.0),
                )

        return fire

    def _make_node_loss(self, box: int, duration: float | None):
        def fire() -> None:
            self._record("node_losses", box=box, duration=duration)
            # One box loss = every core of the box failing at once; the
            # simulator's quarantine/remap machinery does the rest.
            for core in self.sim.topology.cores_of_box(box):
                self.sim.fail_core(core, duration=duration)

        return fire

    def _make_network_degradation(
        self, box: int, factor: float, duration: float | None
    ):
        nic = self.sim.topology.nic_of_box(box)

        def fire() -> None:
            self._record(
                "network_degradations", box=box, factor=factor,
                duration=duration,
            )
            self.sim.set_node_bandwidth_factor(nic, factor)
            if duration is not None:
                self.sim.schedule_timer(
                    duration,
                    lambda: self.sim.set_node_bandwidth_factor(nic, 1.0),
                )

        return fire

    # ------------------------------------------------------------------
    def on_task_start(self, rt) -> None:
        """Possibly doom the attempt that just started on the simulator.

        Draws one uniform per matching crash rule per attempt (stable
        order), so a fixed seed reproduces the exact same crash pattern.
        """
        for i, tc in enumerate(self.plan.task_crashes):
            if self._crashes_left[i] <= 0:
                continue
            if tc.match is not None and tc.match not in rt.task.name:
                continue
            if float(self.rng.random()) >= tc.probability:
                continue
            self._crashes_left[i] -= 1
            self._record(
                "task_crashes", tid=rt.task.tid, name=rt.task.name,
                core=rt.core, at_fraction=tc.at_fraction,
            )
            self._doom(rt, tc)
            return  # at most one crash per attempt

    def _doom(self, rt, tc: TaskCrash) -> None:
        sim = self.sim
        est = rt.compute_remaining
        if rt.streams:
            # Stream keys span the full resource axis (memory nodes plus,
            # on clusters, NIC resources), not just topology.n_nodes.
            bytes_per_node = np.zeros(sim.n_resources)
            for node, nbytes in rt.streams.items():
                bytes_per_node[node] = nbytes
            est += sim.interconnect.best_case_time(rt.socket, bytes_per_node)
        delay = max(0.0, tc.at_fraction * est)
        token = (rt.task.tid, rt.start)
        sim.schedule_timer(delay, lambda: sim.crash_if_running(token))

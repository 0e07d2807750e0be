"""White-box tests of simulator internals: queues, stealing, timers."""

import numpy as np
import pytest

from repro.machine import bullion_s16, presets, two_socket
from repro.runtime import Placement, Simulator, TaskProgram
from repro.schedulers.base import Scheduler


class CoreQueueScheduler(Scheduler):
    """Places task i on core i % n (DFIFO-like, but by tid)."""

    name = "coreq"

    def choose(self, task):
        return Placement(core=task.tid % self.topology.n_cores)


class SocketZero(Scheduler):
    name = "socket0"

    def choose(self, task):
        return Placement(socket=0)


def program_of(n, work=1.0):
    p = TaskProgram()
    for _ in range(n):
        p.task(work=work)
    return p.finalize()


class TestQueues:
    def test_core_queue_respected_without_steal(self):
        topo = two_socket(cores_per_socket=2)
        prog = program_of(8)
        sim = Simulator(prog, topo, CoreQueueScheduler(), steal=False,
                        duration_jitter=0.0)
        res = sim.run()
        for rec in res.records:
            assert rec.core == rec.tid % 4

    def test_steal_from_core_queues(self):
        """Idle sockets must be able to steal work parked on other cores'
        private queues."""
        topo = two_socket(cores_per_socket=2)
        p = TaskProgram()
        for _ in range(8):
            p.task(work=1.0)
        prog = p.finalize()

        class AllOnCoreZero(Scheduler):
            name = "core0"

            def choose(self, task):
                return Placement(core=0)

        res_nosteal = Simulator(prog, topo, AllOnCoreZero(), steal=False,
                                duration_jitter=0.0).run()
        res_steal = Simulator(prog, topo, AllOnCoreZero(), steal=True,
                              duration_jitter=0.0).run()
        assert res_nosteal.makespan == pytest.approx(8.0)
        assert res_steal.makespan < res_nosteal.makespan
        assert res_steal.steals > 0

    def test_socket_queue_fifo_order(self):
        topo = two_socket(cores_per_socket=1)
        prog = program_of(4)
        res = Simulator(prog, topo, SocketZero(), steal=False,
                        duration_jitter=0.0).run()
        starts = sorted(res.records, key=lambda r: r.start)
        assert [r.tid for r in starts] == [0, 1, 2, 3]


class TestTimers:
    def test_timers_fire_in_order(self, topo2):
        fired = []

        class Timed(SocketZero):
            def on_program_start(self):
                self.sim.schedule_timer(3.0, lambda: fired.append(3))
                self.sim.schedule_timer(1.0, lambda: fired.append(1))
                self.sim.schedule_timer(2.0, lambda: fired.append(2))

        prog = program_of(1, work=5.0)
        Simulator(prog, topo2, Timed(), duration_jitter=0.0).run()
        assert fired == [1, 2, 3]

    def test_same_time_timers_fifo(self, topo2):
        fired = []

        class Timed(SocketZero):
            def on_program_start(self):
                for i in range(4):
                    self.sim.schedule_timer(1.0, lambda i=i: fired.append(i))

        prog = program_of(1, work=2.0)
        Simulator(prog, topo2, Timed(), duration_jitter=0.0).run()
        assert fired == [0, 1, 2, 3]

    def test_timer_can_reoffer_subset(self, topo2):
        """reoffer() must remove exactly the passed tasks from the parked
        list and leave others parked."""

        class ParkTwoReleaseOne(SocketZero):
            def __init__(self):
                super().__init__()
                self.parked_n = 0

            def on_program_start(self):
                self.sim.schedule_timer(1.0, self._release_first)
                self.sim.schedule_timer(2.0, self._release_rest)

            def choose(self, task):
                if self.parked_n < 2:
                    self.parked_n += 1
                    return Placement(park=True)
                return Placement(socket=0)

            def _release_first(self):
                self.sim.reoffer(self.sim.parked[:1])

            def _release_rest(self):
                self.sim.reoffer(list(self.sim.parked))

        prog = program_of(2, work=0.5)
        sim = Simulator(prog, topo2, ParkTwoReleaseOne(), duration_jitter=0.0)
        res = sim.run()
        starts = sorted(r.start for r in res.records)
        assert starts[0] == pytest.approx(1.0)
        assert starts[1] == pytest.approx(2.0)
        assert not sim.parked


class TestStealDistanceOrdering:
    def test_steals_prefer_nearest_victim(self):
        """On the bullion, an idle socket must steal from its module
        sibling before anything farther."""
        topo = bullion_s16()
        p = TaskProgram()
        for _ in range(12):
            p.task(work=1.0)
        prog = p.finalize()

        class TwoVictims(Scheduler):
            name = "twovictims"

            def choose(self, task):
                # Queue everything on sockets 1 (sibling of 0) and 7 (far).
                return Placement(socket=1 if task.tid % 2 == 0 else 7)

        sim = Simulator(prog, topo, TwoVictims(), steal=True,
                        duration_jitter=0.0)
        res = sim.run()
        # Socket 0's cores stole; their tasks must come from socket 1's
        # queue (near) whenever it was non-empty.
        stolen_to_0 = [r for r in res.records if r.socket == 0]
        assert res.steals > 0
        assert stolen_to_0, "socket 0 should have stolen something"


def scan_tiers(topo, steal_distance):
    """The on-the-fly victim scan the steal tiers replace."""
    tiers = []
    for s in topo.sockets():
        tier = []
        for victim in topo.sockets_by_distance(s):
            if victim == s:
                continue
            if topo.dist(s, victim) > steal_distance:
                break
            tier.append((victim, list(topo.cores_of_socket(victim))))
        tiers.append(tier)
    return tiers


class TestStealTiers:
    """The per-thief victim tiers are computed once at construction and
    must equal the old per-probe scan on every machine and policy."""

    @pytest.mark.parametrize("preset", sorted(presets.PRESETS))
    @pytest.mark.parametrize(
        "steal,distance",
        [(True, None), ("near", None), ("near", 25.0), (False, None)],
    )
    def test_tiers_match_scan(self, preset, steal, distance):
        topo = presets.by_name(preset)
        sim = Simulator(program_of(2), topo, SocketZero(), steal=steal,
                        steal_distance=distance)
        if steal is False:
            assert sim._steal_tiers == [[] for _ in topo.sockets()]
        else:
            assert sim._steal_tiers == scan_tiers(topo, sim.steal_distance)

    def test_empty_queues_return_before_any_probe(self, monkeypatch):
        topo = presets.by_name("cluster16")
        sim = Simulator(program_of(2), topo, SocketZero(), steal=True)

        def no_probe(victim, cores):
            raise AssertionError(f"probed victim {victim} with empty queues")

        monkeypatch.setattr(sim, "_pop_victim_work", no_probe)
        assert all(sim.idle_cores)  # every socket is a would-be thief
        assert sim._try_steal() is False
        assert sim.steals == 0


class TestJitter:
    def test_jitter_bounded(self, topo2):
        prog = program_of(1, work=1.0)
        for seed in range(10):
            res = Simulator(prog, topo2, SocketZero(), seed=seed,
                            duration_jitter=0.05).run()
            assert 0.95 - 1e-9 <= res.makespan <= 1.05 + 1e-9

    def test_zero_jitter_exact(self, topo2):
        prog = program_of(1, work=1.0)
        res = Simulator(prog, topo2, SocketZero(), seed=3,
                        duration_jitter=0.0).run()
        assert res.makespan == pytest.approx(1.0)


class TestStallDiagnostics:
    """max_iterations and deadlock errors must fail fast and say *why*."""

    def test_max_iterations_raises_instead_of_looping(self):
        from repro.errors import SimulationError

        prog = program_of(8, work=1.0)
        sim = Simulator(prog, two_socket(cores_per_socket=2), SocketZero(),
                        max_iterations=1, duration_jitter=0.0)
        with pytest.raises(SimulationError, match="no convergence"):
            sim.run()

    def test_max_iterations_message_classifies_stall(self):
        from repro.errors import SimulationError

        prog = program_of(8, work=1.0)
        sim = Simulator(prog, two_socket(cores_per_socket=2), SocketZero(),
                        max_iterations=1, duration_jitter=0.0)
        with pytest.raises(SimulationError, match="not a dependence cycle"):
            sim.run()

    def test_deadlock_message_names_stuck_tasks(self, topo2):
        from repro.errors import SimulationError

        class ParkForever(Scheduler):
            name = "park-forever"

            def choose(self, task):
                return Placement(park=True)

        p = TaskProgram("stuck")
        a = p.data("a", 4096)
        p.task("alpha", outs=[a], work=1.0)
        p.task("beta", inouts=[a], work=1.0)
        prog = p.finalize()
        sim = Simulator(prog, topo2, ParkForever())
        with pytest.raises(SimulationError) as err:
            sim.run()
        msg = str(err.value)
        assert "deadlock" in msg
        assert "genuine stall" in msg
        assert "alpha" in msg  # the stuck task is named
        assert "0/2 done" in msg  # state summary present

    def test_stuck_task_list_is_truncated(self, topo2):
        from repro.errors import SimulationError

        class ParkForever(Scheduler):
            name = "park-forever"

            def choose(self, task):
                return Placement(park=True)

        prog = program_of(20, work=1.0)
        with pytest.raises(SimulationError, match="more"):
            Simulator(prog, topo2, ParkForever()).run()

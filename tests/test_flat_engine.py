"""Flat (struct-of-arrays) event engine: bit-identity and drain contracts.

PR 8 moved the simulator hot loop onto :class:`repro.runtime.engines.
FlatEngine`; the per-event :class:`~repro.runtime.engines.ObjectEngine`
stays behind as the oracle twin.  These tests pin the contracts that
rewrite rides on:

* rate-epoch drain against precomputed *absolute* deadlines leaves exact
  zero residues (no ``1e-12`` crumbs from incremental subtraction);
* flat and object engines produce bit-identical schedules — on the
  committed corpus, on fresh policy-matrix cases, and on a 10k-task
  serial chain;
* a tiny wall-clock limit aborts promptly with every core returned to
  the idle pools (the PR 4 ``_abort_run`` contract, now per engine);
* ``REPRO_CHECK_CACHE=1`` arms the engine's internal mask/mirror oracle;
* the compiled rate solver is bit-identical to the pure-python one;
* the memory manager's unbound-page counter matches a full recount.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.machine import presets, two_socket
from repro.machine.interconnect import Interconnect
from repro.machine.memory import UNBOUND, MemoryManager
from repro.runtime import Simulator, TaskProgram
from repro.runtime.engines import _INF, FlatEngine, ObjectEngine
from repro.schedulers import make_scheduler
from repro.verify import VerifyCase, compare_engines, make_case

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))

RECORD_FIELDS = (
    "tid", "core", "socket", "attempt", "start", "finish",
    "local_bytes", "remote_bytes",
)


def record_tuple(r):
    return tuple(getattr(r, f) for f in RECORD_FIELDS)


def serial_chain(n_tasks: int, nbytes: int = 65536) -> TaskProgram:
    """``n_tasks`` tasks in one dependence chain through a single object."""
    p = TaskProgram("serial-chain")
    a = p.data("a", nbytes)
    p.task("init", outs=[a], work=0.3)
    for i in range(n_tasks - 1):
        p.task(f"t{i}", inouts=[a], work=0.3)
    return p.finalize()


def stencil_program(n_sockets: int, scale: int = 6) -> TaskProgram:
    from repro.apps import make_app

    return make_app("synthetic", kind="stencil", scale=scale).build(n_sockets)


class TestSerialChainDrain:
    """Satellite 1: absolute-deadline drain leaves exact zero residues."""

    def test_10k_chain_exact_residues_and_order(self):
        prog = serial_chain(10_000)
        topo = two_socket(cores_per_socket=2)
        sim = Simulator(
            prog, topo, make_scheduler("las"), engine="flat", verify=False
        )
        assert isinstance(sim.engine, FlatEngine)
        residues = []
        orig_remove = sim.engine.remove

        def spy(rt):
            orig_remove(rt)
            residues.append((rt.compute_remaining, tuple(rt.streams.values())))

        sim.engine.remove = spy
        flat = sim.run()

        # Every completion drained to *exactly* zero: the engine snaps to
        # the precomputed absolute deadline instead of subtracting one
        # epoch at a time, so no float crumbs survive.
        assert len(residues) == prog.n_tasks
        for c_rem, streams in residues:
            assert c_rem == 0.0
            assert all(b == 0.0 for b in streams)

        # A serial chain admits exactly one completion order.
        assert [r.tid for r in flat.records] == list(range(prog.n_tasks))
        finishes = [r.finish for r in flat.records]
        assert finishes == sorted(finishes)

        # And the oracle twin agrees bit for bit.
        obj_sim = Simulator(
            prog, topo, make_scheduler("las"), engine="object", verify=False
        )
        assert isinstance(obj_sim.engine, ObjectEngine)
        obj = obj_sim.run()
        assert flat.makespan == obj.makespan
        assert [record_tuple(r) for r in flat.records] == [
            record_tuple(r) for r in obj.records
        ]


class TestCheckModeEquivalence:
    """Satellite 2: REPRO_CHECK_CACHE=1 arms the engine's internal oracle
    (mask==bytes, slot-mirror consistency) and the schedules still match."""

    def test_check_mode_engines_agree(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_CACHE", "1")
        topo = presets.by_name("four-socket")
        prog = stencil_program(topo.n_sockets)
        results = {}
        for engine in ("flat", "object"):
            sim = Simulator(
                prog, topo, make_scheduler("rgp+las", window_size=8),
                engine=engine,
            )
            assert sim.engine.check is True
            results[engine] = sim.run()
        flat, obj = results["flat"], results["object"]
        assert flat.makespan == obj.makespan
        assert [record_tuple(r) for r in flat.records] == [
            record_tuple(r) for r in obj.records
        ]


class TestWallClockAbort:
    """Satellite 3: a tiny budget aborts promptly and leaves no
    phantom-busy cores (the ``_abort_run`` contract, per engine)."""

    @pytest.mark.parametrize("engine", ["flat", "object"])
    def test_tiny_limit_returns_cores_to_idle(self, engine):
        topo = two_socket(cores_per_socket=2)
        prog = stencil_program(topo.n_sockets, scale=8)
        sim = Simulator(
            prog, topo, make_scheduler("las"),
            wall_clock_limit=1e-9, engine=engine,
        )
        with pytest.raises(SimulationError, match="wall-clock limit"):
            sim.run()
        # No half-drained attempts, every core back in an idle pool, and
        # the engine itself is empty (nothing left to complete).
        assert not sim.running
        idle = sorted(core for cores in sim.idle_cores for core in cores)
        assert idle == list(range(topo.n_cores))
        assert sim.engine.next_completion() == _INF
        assert sim.engine.completed() == []


class TestEngineBitIdentity:
    """Tentpole acceptance: flat == object, exactly, everywhere."""

    @pytest.mark.parametrize(
        "path", CORPUS, ids=[os.path.basename(p) for p in CORPUS]
    )
    def test_corpus_case(self, path):
        report = compare_engines(VerifyCase.load(path))
        assert report.status == "ok", report.summary()

    @pytest.mark.parametrize(
        "label,scheduler,kwargs",
        [
            ("las", "las", {}),
            ("rgp+las", "rgp+las", {"window_size": 8}),
            ("dfifo", "dfifo", {}),
        ],
    )
    def test_fresh_fuzz_case(self, label, scheduler, kwargs):
        # A fresh (non-corpus) scenario per policy: random topology,
        # program, fault plan and jitter from the fuzz generator.
        case = make_case(1234, label, scheduler, dict(kwargs))
        report = compare_engines(case)
        assert report.status == "ok", report.summary()

    def test_fresh_cluster_fuzz_case(self):
        # Seed 99 deterministically draws a multi-box cluster topology:
        # message events and NIC contention ride the same bit-identity
        # contract as single-box runs.
        case = make_case(99, "rgp+las", "rgp+las", {"window_size": 8})
        assert getattr(case.topology, "n_boxes", 1) > 1
        report = compare_engines(case)
        assert report.status == "ok", report.summary()

    def test_corpus_includes_grain_swept_cases(self):
        labels = [VerifyCase.load(p).label or "" for p in CORPUS]
        assert sum("grain-fine" in label for label in labels) >= 2, (
            "corpus must keep the 10x-finer-tile scenarios"
        )


class TestCSolverTwin:
    """The compiled rate solver must be bit-identical to the python one."""

    def test_randomized_configs_exact(self):
        topo = presets.by_name("four-socket")
        ic = Interconnect(topo)
        if ic._cfn is None:
            pytest.skip("C solver unavailable (no compiler?)")
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            sockets = [int(s) for s in rng.integers(0, topo.n_sockets, n)]
            nodes = [int(x) for x in rng.integers(0, topo.n_nodes, n)]
            raw = rng.integers(0, 6, n)
            relabel: dict[int, int] = {}
            canon = [relabel.setdefault(int(g), len(relabel)) for g in raw]
            c = ic._solve_c(sockets, nodes, canon)
            py = ic._solve(sockets, nodes, canon)
            assert c is not None
            assert np.array_equal(c, py), (sockets, nodes, canon)

    @staticmethod
    def cluster_problem(rng, topo, n_groups, pool):
        """Up to 4 streams per group over ``n_groups`` groups; each
        group's (socket, resource) multiset is drawn from ``pool`` (shared
        signatures) or fresh when ``pool`` is None.  Resources include the
        NIC ids at ``n_sockets + box``."""
        n_res = topo.n_resources
        sockets: list[int] = []
        nodes: list[int] = []
        groups: list[int] = []
        for g in range(n_groups):
            if pool is not None:
                members = pool[int(rng.integers(0, len(pool)))]
            else:
                members = [
                    (int(rng.integers(0, topo.n_sockets)),
                     int(rng.integers(0, n_res)))
                    for _ in range(int(rng.integers(1, 5)))
                ]
            # Stream order inside a group must not matter to the dedup.
            for i in rng.permutation(len(members)):
                s, nd = members[int(i)]
                sockets.append(s)
                nodes.append(nd)
                groups.append(g)
        return sockets, nodes, groups

    @pytest.mark.parametrize("shared", [True, False],
                             ids=["duplicate-sigs", "distinct-sigs"])
    def test_cluster16_scale_exact(self, shared):
        topo = presets.by_name("cluster16")
        ic = Interconnect(topo)
        if ic._cfn is None:
            pytest.skip("C solver unavailable (no compiler?)")
        rng = np.random.default_rng(16 if shared else 61)
        nic_seen = False
        for _ in range(40):
            n_groups = int(rng.integers(1, 129))
            pool = None
            if shared:
                pool = [
                    [(int(rng.integers(0, topo.n_sockets)),
                      int(rng.integers(0, topo.n_resources)))
                     for _ in range(int(rng.integers(1, 5)))]
                    for _ in range(int(rng.integers(1, 9)))
                ]
            sockets, nodes, groups = self.cluster_problem(
                rng, topo, n_groups, pool
            )
            assert len(nodes) <= 512
            nic_seen |= max(nodes) >= topo.n_sockets
            c = ic._solve_c(sockets, nodes, groups)
            py = ic._solve(sockets, nodes, groups)
            assert c is not None
            assert np.array_equal(c, py), (sockets, nodes, groups)
        assert nic_seen

    def test_above_capacity_falls_back_to_python(self):
        topo = presets.by_name("cluster16")
        ic = Interconnect(topo)
        if ic._cfn is None:
            pytest.skip("C solver unavailable (no compiler?)")
        n = 4097  # CAP_STREAMS in _csolve.c is 4096
        rng = np.random.default_rng(5)
        sockets = [int(s) for s in rng.integers(0, topo.n_sockets, n)]
        nodes = [int(x) for x in rng.integers(0, topo.n_resources, n)]
        groups = [i // 4 for i in range(n)]
        assert ic._solve_c(sockets, nodes, groups) is None
        rates = ic.stream_rates_canon(sockets, nodes, groups)
        assert np.array_equal(rates, ic._solve(sockets, nodes, groups))


class TestUnboundCounter:
    """The incremental unbound-page counter equals a full recount after
    any interleaving of touch / bind / interleave operations."""

    def test_counter_matches_recount(self):
        rng = np.random.default_rng(11)
        mm = MemoryManager(4)
        page = mm.page_size
        sizes = {k: int(rng.integers(1, 40)) * page // 2 for k in range(8)}
        for key, size in sizes.items():
            mm.register(key, size)
        for _ in range(300):
            key = int(rng.integers(0, 8))
            size = sizes[key]
            offset = int(rng.integers(0, size))
            length = int(rng.integers(1, size - offset + 1))
            op = rng.integers(0, 3)
            if op == 0:
                mm.touch(key, int(rng.integers(0, 4)), offset, length)
            elif op == 1:
                mm.bind(key, int(rng.integers(0, 4)), offset, length)
            else:
                mm.interleave(key)
            unbound = mm._unbound.get(key, 0)
            recount = int((mm._pages[key] == UNBOUND).sum())
            assert unbound == recount, (key, op)

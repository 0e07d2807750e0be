"""Fluid event engine: drain contracts and the compiled rate solver.

The simulator hot loop runs on :class:`repro.runtime.engines.FlatEngine`.
These tests pin the contracts it rides on:

* rate-epoch drain against precomputed *absolute* deadlines leaves exact
  zero residues (no ``1e-12`` crumbs from incremental subtraction) on a
  10k-task serial chain;
* ``REPRO_CHECK_CACHE=1`` arms the memory manager's placement-cache
  recount without changing a single bit of the schedule (the engine's
  mask/mirror check lives in the invariant checker);
* a tiny wall-clock limit aborts promptly with every core returned to
  the idle pools (the ``_abort_run`` contract);
* every committed corpus case and a few fresh fuzz cases (fault plans
  and clusters included) reproduce their golden schedule fingerprint
  exactly (``tests/data/golden_corpus.json``);
* the compiled rate solver is bit-identical to the pure-python one;
* the memory manager's unbound-page counter matches a full recount.

Regenerate the golden fingerprints (only when intentionally changing
schedule semantics) with::

    PYTHONPATH=src:tests python tests/test_flat_engine.py --regen
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from dataclasses import fields

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.machine import presets, two_socket
from repro.machine.interconnect import Interconnect
from repro.machine.memory import UNBOUND, MemoryManager
from repro.runtime import Simulator, TaskProgram
from repro.runtime.engines import _INF, FlatEngine
from repro.schedulers import make_scheduler
from repro.verify import VerifyCase, make_case
from repro.verify.differential import _run_production

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "golden_corpus.json")

#: Fresh (non-corpus) scenarios from the fuzz generator: random topology,
#: program, fault plan and jitter per policy.  Seed 99 draws a multi-box
#: cluster, so message events and NIC contention are pinned too.
FRESH_CASES = {
    "las": (1234, "las", "las", {}),
    "rgp+las": (1234, "rgp+las", "rgp+las", {"window_size": 8}),
    "dfifo": (1234, "dfifo", "dfifo", {}),
    "cluster": (99, "rgp+las", "rgp+las", {"window_size": 8}),
}

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
        sim = Simulator(prog, topo, make_scheduler("las"), verify=False)
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


class TestCheckModeEquivalence:
    """REPRO_CHECK_CACHE=1 arms the placement-cache recount and the
    schedule is unchanged bit for bit."""

    def test_check_mode_engines_agree(self, monkeypatch):
        topo = presets.by_name("four-socket")
        prog = stencil_program(topo.n_sockets)
        results = {}
        for check in ("1", ""):
            monkeypatch.setenv("REPRO_CHECK_CACHE", check)
            sim = Simulator(
                prog, topo, make_scheduler("rgp+las", window_size=8),
            )
            assert sim.memory.check_cache is bool(check)
            results[check] = sim.run()
        checked, plain = results["1"], results[""]
        assert checked.makespan == plain.makespan
        assert [record_tuple(r) for r in checked.records] == [
            record_tuple(r) for r in plain.records
        ]


class TestWallClockAbort:
    """Satellite 3: a tiny budget aborts promptly and leaves no
    phantom-busy cores (the ``_abort_run`` contract)."""

    def test_tiny_limit_returns_cores_to_idle(self):
        topo = two_socket(cores_per_socket=2)
        prog = stencil_program(topo.n_sockets, scale=8)
        sim = Simulator(
            prog, topo, make_scheduler("las"), wall_clock_limit=1e-9,
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


def _token(value) -> str:
    return value.hex() if isinstance(value, float) else repr(value)


def fingerprint(result) -> str:
    """sha256 over the exact production schedule of one run: every task
    record field of the completed and crashed attempts, the makespan, the
    message list and the traffic/resilience counters (floats via
    ``float.hex()``)."""
    tokens = ["makespan", _token(result.makespan)]
    for tag, records in (("record", result.records),
                         ("crashed", result.crashed_records)):
        for r in records:
            tokens.append(tag)
            tokens += [_token(getattr(r, f.name)) for f in fields(r)]
    for m in result.messages:
        tokens.append("message")
        tokens += [_token(getattr(m, f.name)) for f in fields(m)]
    for name in ("steals", "parked_tasks", "touch_count", "reexecutions",
                 "wasted_work", "cores_failed", "faults_injected",
                 "messages_dropped"):
        tokens += [name, _token(getattr(result, name))]
    for name in ("bytes_by_pair", "busy_time_per_socket", "bytes_on_node",
                 "bytes_by_link"):
        arr = getattr(result, name)
        tokens.append(name)
        if arr is not None:
            tokens += [_token(float(x)) for x in arr.ravel().tolist()]
    return hashlib.sha256("\n".join(tokens).encode()).hexdigest()


def golden_entry(case: VerifyCase) -> dict:
    """The golden-file entry for one case: its production fingerprint, or
    the error string when the run dies of a legitimate ``ReproError``."""
    result, error = _run_production(case)
    if error is not None:
        return {"error": error}
    return {"makespan": result.makespan, "sha256": fingerprint(result)}


def golden_cases() -> dict:
    cases = {f"corpus/{os.path.basename(p)}": (lambda p=p: VerifyCase.load(p))
             for p in CORPUS}
    for label, args in FRESH_CASES.items():
        cases[f"fresh/{label}"] = lambda args=args: make_case(*args)
    return cases


def regenerate() -> None:
    golden = {key: golden_entry(load()) for key, load in golden_cases().items()}
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} golden cases to {GOLDEN_PATH}")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


class TestEngineBitIdentity:
    """Schedules equal the golden fingerprints exactly, everywhere."""

    def test_golden_covers_every_case(self, golden):
        assert sorted(golden) == sorted(golden_cases())

    @pytest.mark.parametrize(
        "path", CORPUS, ids=[os.path.basename(p) for p in CORPUS]
    )
    def test_corpus_case(self, path, golden):
        key = f"corpus/{os.path.basename(path)}"
        assert golden_entry(VerifyCase.load(path)) == golden[key]

    @pytest.mark.parametrize(
        "label,scheduler,kwargs",
        [(label, args[2], args[3]) for label, args in FRESH_CASES.items()
         if label != "cluster"],
    )
    def test_fresh_fuzz_case(self, label, scheduler, kwargs, golden):
        case = make_case(*FRESH_CASES[label])
        assert golden_entry(case) == golden[f"fresh/{label}"]

    def test_fresh_cluster_fuzz_case(self, golden):
        case = make_case(*FRESH_CASES["cluster"])
        assert getattr(case.topology, "n_boxes", 1) > 1
        assert golden_entry(case) == golden["fresh/cluster"]

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


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)

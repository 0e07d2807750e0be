"""Differential oracle: production simulator vs naive reference replay.

The :class:`~repro.verify.oracle.ReferenceSimulator` replays a recorded
production run (placements + jitter + timer events) with none of the
production shortcuts — no placement cache, no event bus, no pipelining
state — and must agree *bit for bit* on every record and byte counter.
These tests pin that agreement across the policy matrix, exercise the
JSON repro-file round trip, and prove the oracle actually detects
tampering (a diff harness that cannot fail proves nothing).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import VerificationError
from repro.machine import two_socket
from repro.machine.interconnect import Interconnect
from repro.runtime import Simulator, TaskProgram
from repro.schedulers import make_scheduler
from repro.verify import (
    POLICY_MATRIX,
    DecisionRecorder,
    OracleParams,
    ReferenceSimulator,
    VerifyCase,
    differential_run,
    make_case,
    program_from_dict,
    program_to_dict,
    replay_file,
    run_case,
    save_repro,
)


def _labels():
    return [label for label, _, _ in POLICY_MATRIX]


# ----------------------------------------------------------------------
# Bit-exact agreement across the policy matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("label", _labels())
@pytest.mark.parametrize("seed", [0, 7])
def test_oracle_agrees_on_fuzz_case(label, seed):
    entry = next(e for e in POLICY_MATRIX if e[0] == label)
    case = make_case(seed, label, entry[1], entry[2])
    report = run_case(case)
    assert report.status in ("ok", "production-error"), report.summary()
    if report.status == "ok":
        assert not report.divergences


def test_differential_run_named_app():
    report = differential_run(
        "rgp+las", "jacobi", "two-socket",
        scheduler_kwargs={"window_size": 16},
        seed=3, duration_jitter=0.05,
    )
    assert report.status == "ok", report.summary()
    assert report.result.makespan == report.oracle.makespan


def test_differential_run_with_faults(tmp_path):
    from repro.faults import CoreFault, FaultPlan, TaskCrash

    plan = FaultPlan(
        core_faults=(CoreFault(core=1, at=0.2, duration=0.5),),
        task_crashes=(TaskCrash(probability=0.1, max_crashes=2),),
    )
    report = differential_run(
        "las", "jacobi", "two-socket",
        faults=plan, seed=11, max_retries=8,
    )
    assert report.status == "ok", report.summary()
    # Fault-injected traffic (crashed attempts) must match too.
    assert report.result.local_bytes == report.oracle.local_bytes
    assert report.result.remote_bytes == report.oracle.remote_bytes


# ----------------------------------------------------------------------
# The oracle must *detect* divergence, not just rubber-stamp
# ----------------------------------------------------------------------
def _recorded_run(seed=5):
    topo = two_socket(cores_per_socket=2)
    prog = TaskProgram("t")
    objs = [prog.data(f"a{i}", 65536) for i in range(4)]
    for i, a in enumerate(objs):
        prog.task(f"p{i}", outs=[a], work=0.5)
    for i, a in enumerate(objs):
        prog.task(f"c{i}", ins=[a], work=0.5)
    program = prog.finalize()
    rec = DecisionRecorder()
    sim = Simulator(
        program, topo, make_scheduler("las"),
        interconnect=Interconnect(topo), seed=seed, probe=rec,
        duration_jitter=0.05,
    )
    result = sim.run()
    return program, topo, sim, rec.trace, result


def test_oracle_detects_tampered_jitter():
    program, topo, sim, trace, result = _recorded_run()
    (key, factor) = next(iter(trace.jitter.items()))
    trace.jitter[key] = factor * 1.5
    oracle = ReferenceSimulator(
        program, topo, Interconnect(topo), trace,
        OracleParams.of_simulator(sim),
    )
    outcome = oracle.run()
    # The tampered attempt runs at a different speed — its finish moves.
    ours = {r.tid: r.finish for r in outcome.records}
    theirs = {r.tid: r.finish for r in result.records}
    assert ours != theirs


def test_oracle_desyncs_on_truncated_placements():
    program, topo, sim, trace, _ = _recorded_run()
    # Drop one recorded placement: the replay runs out of decisions.
    tid = next(iter(trace.placements))
    trace.placements[tid].pop()
    oracle = ReferenceSimulator(
        program, topo, Interconnect(topo), trace,
        OracleParams.of_simulator(sim),
    )
    with pytest.raises(VerificationError):
        oracle.run()


# ----------------------------------------------------------------------
# Serialization: repro files and program round trips
# ----------------------------------------------------------------------
def test_program_round_trip():
    prog = TaskProgram("rt")
    a = prog.data("a", 8192, initial_node=1)
    b = prog.data("b", 4096)
    prog.task("t0", outs=[a], work=1.0)
    prog.task("t1", ins=[a], outs=[b], work=0.5, meta={"ep_socket": 1})
    prog.barrier()
    prog.task("t2", inouts=[b], work=0.25)
    program = prog.finalize()

    clone = program_from_dict(json.loads(json.dumps(program_to_dict(program))))
    assert clone.n_tasks == program.n_tasks
    assert [t.epoch for t in clone.tasks] == [t.epoch for t in program.tasks]
    assert [t.work for t in clone.tasks] == [t.work for t in program.tasks]
    for tid in range(program.n_tasks):
        assert sorted(clone.tdg.successors(tid)) == sorted(
            program.tdg.successors(tid)
        )


def test_repro_file_round_trip(tmp_path):
    entry = POLICY_MATRIX[0]
    case = make_case(4, entry[0], entry[1], entry[2])
    report = run_case(case)
    assert report.status == "ok"
    path = save_repro(report, str(tmp_path))
    assert os.path.exists(path)
    replayed = replay_file(path)
    assert replayed.status == "ok", replayed.summary()
    assert replayed.result.makespan == pytest.approx(
        report.result.makespan, rel=1e-12
    )


def test_repro_file_name_collision(tmp_path):
    entry = POLICY_MATRIX[0]
    case = make_case(4, entry[0], entry[1], entry[2])
    report = run_case(case)
    p1 = save_repro(report, str(tmp_path))
    p2 = save_repro(report, str(tmp_path))
    assert p1 != p2 and os.path.exists(p1) and os.path.exists(p2)


def test_verify_case_from_faulted_run_round_trips(tmp_path):
    from repro.faults import FaultPlan, TaskCrash

    entry = next(e for e in POLICY_MATRIX if e[0] == "rgp-pipelined")
    case = make_case(9, entry[0], entry[1], entry[2])
    if case.faults is None:
        case = VerifyCase(
            program=case.program, topology=case.topology,
            scheduler=case.scheduler, scheduler_kwargs=case.scheduler_kwargs,
            interconnect_kwargs=case.interconnect_kwargs,
            sim_kwargs=case.sim_kwargs,
            faults=FaultPlan(task_crashes=(TaskCrash(probability=0.1),)),
            label=case.label,
        )
    report = run_case(case)
    assert report.status == "ok", report.summary()
    path = save_repro(report, str(tmp_path))
    assert replay_file(path).status == "ok"

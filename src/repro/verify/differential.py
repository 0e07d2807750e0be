"""Differential verification: production simulator vs reference oracle.

``differential_run`` executes one fully specified case twice — once on the
production :class:`~repro.runtime.simulator.Simulator` with a
:class:`~repro.verify.trace.DecisionRecorder` probe, once on the naive
:class:`~repro.verify.oracle.ReferenceSimulator` replaying the recorded
decisions — and diffs everything the two compute independently: every task
record's ``(core, socket, start, finish)``, local/remote/NUMA-pair byte
traffic, the memory image (per-node bound bytes, first-touch count),
busy/wasted time and the full fault accounting.

Because the oracle pins its clock to the production run's stop points, the
two trajectories perform the same float operations in the same order; the
comparison therefore uses a near-zero tolerance (`1e-9` relative) — any
real model discrepancy shows up as a gross mismatch, not a rounding haze.

A diverging case serializes itself to a JSON *repro file* containing the
complete case (program, topology, interconnect, scheduler spec, simulator
knobs, fault plan) — not the trace, which is regenerated deterministically
on replay via ``repro verify replay``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from ..errors import ReproError, VerificationError
from ..machine.interconnect import Interconnect
from ..machine.serialize import topology_from_dict, topology_to_dict
from ..machine.topology import NumaTopology
from ..runtime.data import AccessMode, DataAccess
from ..runtime.program import TaskProgram
from ..runtime.simulator import Simulator
from .oracle import OracleOutcome, OracleParams, ReferenceSimulator
from .trace import DecisionRecorder

#: Repro-file format tag (bump on incompatible change).
FORMAT = "repro-verify-case/1"

#: Relative float tolerance of the differential comparison.  The two
#: trajectories are float-identical by construction, so this only has to
#: absorb printing round-trips of repro files, not model noise.
REL_TOL = 1e-9
ABS_TOL = 1e-9


# ----------------------------------------------------------------------
# Program serialization (repro files must be self-contained)
# ----------------------------------------------------------------------
def program_to_dict(program: TaskProgram) -> dict:
    """JSON-safe description of a program; ``fn``/``payload`` are dropped
    (verification replays the *model*, not real computations)."""
    return {
        "name": program.name,
        "objects": [
            {
                "name": o.name,
                "size_bytes": int(o.size_bytes),
                "initial_node": o.initial_node,
                "interleaved": bool(o.interleaved),
            }
            for o in program.objects
        ],
        "tasks": [
            {
                "name": t.name,
                "work": float(t.work),
                "meta": {
                    k: v
                    for k, v in t.meta.items()
                    if isinstance(v, (int, float, str, bool))
                },
                "accesses": [
                    {
                        "obj": a.obj.key,
                        "mode": a.mode.value,
                        "offset": int(a.offset),
                        "length": None if a.length is None else int(a.length),
                    }
                    for a in t.accesses
                ],
            }
            for t in program.tasks
        ],
        "barriers": [int(b) for b in program.barriers],
    }


def program_from_dict(doc: dict) -> TaskProgram:
    """Rebuild a program by replaying the builder calls of
    :func:`program_to_dict`'s source (same tids, same TDG, same epochs)."""
    prog = TaskProgram(doc.get("name", "program"))
    objs = [
        prog.data(
            o["name"],
            o["size_bytes"],
            initial_node=o.get("initial_node"),
            interleaved=o.get("interleaved", False),
        )
        for o in doc["objects"]
    ]
    barriers = list(doc.get("barriers", []))
    bi = 0
    for t in doc["tasks"]:
        while bi < len(barriers) and barriers[bi] == prog.n_tasks:
            prog.barrier()
            bi += 1
        by_mode: dict[AccessMode, list[DataAccess]] = {
            AccessMode.IN: [], AccessMode.OUT: [], AccessMode.INOUT: [],
        }
        for a in t["accesses"]:
            mode = AccessMode(a["mode"])
            by_mode[mode].append(
                DataAccess(
                    obj=objs[a["obj"]],
                    mode=mode,
                    offset=a.get("offset", 0),
                    length=a.get("length"),
                )
            )
        prog.task(
            t["name"],
            ins=by_mode[AccessMode.IN],
            outs=by_mode[AccessMode.OUT],
            inouts=by_mode[AccessMode.INOUT],
            work=t["work"],
            meta=t.get("meta") or None,
        )
    while bi < len(barriers) and barriers[bi] == prog.n_tasks:
        prog.barrier()
        bi += 1
    return prog.finalize()


# ----------------------------------------------------------------------
# The verification case
# ----------------------------------------------------------------------
@dataclass
class VerifyCase:
    """One fully specified (program, machine, policy, knobs, faults) run."""

    program: TaskProgram
    topology: NumaTopology
    scheduler: str
    scheduler_kwargs: dict = field(default_factory=dict)
    interconnect_kwargs: dict = field(default_factory=dict)
    sim_kwargs: dict = field(default_factory=dict)
    faults: object = None  # FaultPlan | None
    label: str = ""

    def to_dict(self) -> dict:
        return {
            "format": FORMAT,
            "label": self.label,
            "program": program_to_dict(self.program),
            "topology": topology_to_dict(self.topology),
            "scheduler": {
                "name": self.scheduler, "kwargs": self.scheduler_kwargs,
            },
            "interconnect": self.interconnect_kwargs,
            "sim": self.sim_kwargs,
            "faults": None if self.faults is None else self.faults.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "VerifyCase":
        if doc.get("format") != FORMAT:
            raise VerificationError(
                f"not a {FORMAT} repro file (format={doc.get('format')!r})"
            )
        faults = None
        if doc.get("faults") is not None:
            from ..faults.plan import FaultPlan

            faults = FaultPlan.from_dict(doc["faults"])
        return cls(
            program=program_from_dict(doc["program"]),
            topology=topology_from_dict(doc["topology"]),
            scheduler=doc["scheduler"]["name"],
            scheduler_kwargs=dict(doc["scheduler"].get("kwargs", {})),
            interconnect_kwargs=dict(doc.get("interconnect", {})),
            sim_kwargs=dict(doc.get("sim", {})),
            faults=faults,
            label=doc.get("label", ""),
        )

    @classmethod
    def load(cls, path: str) -> "VerifyCase":
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise VerificationError(
                f"cannot read case file {path}: {exc}"
            ) from exc
        return cls.from_dict(doc)


@dataclass(frozen=True)
class Divergence:
    """One field on which production and oracle disagree."""

    field: str
    production: object
    oracle: object

    def __str__(self) -> str:
        return f"{self.field}: production={self.production!r} oracle={self.oracle!r}"


@dataclass
class DifferentialReport:
    """Outcome of one differential run."""

    case: VerifyCase
    status: str  # ok | divergence | production-error | oracle-desync
    divergences: list[Divergence] = field(default_factory=list)
    error: str = ""
    result: object = None  # SimulationResult | None
    oracle: OracleOutcome | None = None

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "production-error")

    def summary(self) -> str:
        head = f"[{self.case.label or self.case.scheduler}] {self.status}"
        if self.status == "divergence":
            head += f" ({len(self.divergences)} fields)"
            for d in self.divergences[:8]:
                head += f"\n    {d}"
            if len(self.divergences) > 8:
                head += f"\n    … {len(self.divergences) - 8} more"
        elif self.error:
            head += f": {self.error}"
        return head


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _compare(result, outcome: OracleOutcome) -> list[Divergence]:
    """Diff a production :class:`SimulationResult` against the oracle."""
    divs: list[Divergence] = []

    def check(name: str, got, want, exact: bool = True) -> None:
        same = (got == want) if exact else _close(got, want)
        if not same:
            divs.append(Divergence(name, got, want))

    check("makespan", result.makespan, outcome.makespan, exact=False)
    check("n_records", len(result.records), len(outcome.records))
    for pr, orr in zip(result.records, outcome.records):
        tag = f"record[{pr.tid}]"
        if orr.tid != pr.tid:
            divs.append(Divergence(f"{tag}.order", pr.tid, orr.tid))
            break
        check(f"{tag}.name", pr.name, orr.name)
        check(f"{tag}.core", pr.core, orr.core)
        check(f"{tag}.socket", pr.socket, orr.socket)
        check(f"{tag}.attempt", pr.attempt, orr.attempt)
        check(f"{tag}.start", pr.start, orr.start, exact=False)
        check(f"{tag}.finish", pr.finish, orr.finish, exact=False)
        check(f"{tag}.local_bytes", pr.local_bytes, orr.local_bytes, exact=False)
        check(
            f"{tag}.remote_bytes", pr.remote_bytes, orr.remote_bytes,
            exact=False,
        )
        check(f"{tag}.net_bytes", pr.net_bytes, orr.net_bytes, exact=False)
    check("local_bytes", result.local_bytes, outcome.local_bytes, exact=False)
    check("remote_bytes", result.remote_bytes, outcome.remote_bytes, exact=False)
    if not np.allclose(
        result.bytes_by_pair, outcome.bytes_by_pair,
        rtol=REL_TOL, atol=ABS_TOL,
    ):
        divs.append(
            Divergence(
                "bytes_by_pair",
                result.bytes_by_pair.tolist(),
                outcome.bytes_by_pair.tolist(),
            )
        )
    if not np.allclose(
        result.busy_time_per_socket, outcome.busy_time,
        rtol=REL_TOL, atol=ABS_TOL,
    ):
        divs.append(
            Divergence(
                "busy_time",
                result.busy_time_per_socket.tolist(),
                outcome.busy_time.tolist(),
            )
        )
    check("steals", result.steals, outcome.steals)
    check("parked_tasks", result.parked_tasks, outcome.parked_total)
    check("touch_count", result.touch_count, outcome.touch_count)
    check(
        "bytes_on_node",
        [int(b) for b in result.bytes_on_node],
        outcome.bytes_on_node,
    )
    check(
        "has_bytes_by_link",
        result.bytes_by_link is not None,
        outcome.bytes_by_link is not None,
    )
    if result.bytes_by_link is not None and outcome.bytes_by_link is not None:
        if not np.allclose(
            result.bytes_by_link, outcome.bytes_by_link,
            rtol=REL_TOL, atol=ABS_TOL,
        ):
            divs.append(
                Divergence(
                    "bytes_by_link",
                    result.bytes_by_link.tolist(),
                    outcome.bytes_by_link.tolist(),
                )
            )
        check("n_messages", len(result.messages), len(outcome.messages))
        check(
            "messages_dropped",
            result.messages_dropped,
            outcome.messages_dropped,
        )
        for pm, om in zip(result.messages, outcome.messages):
            tag = f"message[{pm.tid}:{pm.src_box}->{pm.dst_box}]"
            check(f"{tag}.tid", pm.tid, om.tid)
            check(f"{tag}.src_box", pm.src_box, om.src_box)
            check(f"{tag}.dst_box", pm.dst_box, om.dst_box)
            check(f"{tag}.nbytes", pm.nbytes, om.nbytes, exact=False)
            check(f"{tag}.send", pm.send, om.send, exact=False)
            check(f"{tag}.recv", pm.recv, om.recv, exact=False)
    check("reexecutions", result.reexecutions, outcome.reexecutions)
    check("wasted_work", result.wasted_work, outcome.wasted_work, exact=False)
    check("cores_failed", result.cores_failed, outcome.cores_failed)
    check("faults_injected", result.faults_injected, outcome.faults_injected)
    check("n_crashed", len(result.crashed_records), len(outcome.crashed_records))
    for pr, orr in zip(result.crashed_records, outcome.crashed_records):
        tag = f"crashed[{pr.tid}@{pr.attempt}]"
        check(f"{tag}.tid", pr.tid, orr.tid)
        check(f"{tag}.core", pr.core, orr.core)
        check(f"{tag}.outcome", pr.outcome, orr.outcome)
        check(f"{tag}.start", pr.start, orr.start, exact=False)
        check(f"{tag}.finish", pr.finish, orr.finish, exact=False)
    return divs


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def run_case(case: VerifyCase) -> DifferentialReport:
    """Run one case through both simulators and diff the outcomes."""
    from ..schedulers import make_scheduler

    scheduler = make_scheduler(case.scheduler, **case.scheduler_kwargs)
    interconnect = Interconnect(case.topology, **case.interconnect_kwargs)
    recorder = DecisionRecorder()
    sim = Simulator(
        case.program,
        case.topology,
        scheduler,
        interconnect=interconnect,
        faults=case.faults,
        probe=recorder,
        **case.sim_kwargs,
    )
    try:
        result = sim.run()
    except ReproError as exc:
        # The production run failing outright (fault plan killed the
        # machine, retry limit, partition deadline) is a legitimate outcome
        # with nothing to diff — not a divergence.
        return DifferentialReport(
            case=case, status="production-error",
            error=f"{type(exc).__name__}: {exc}",
        )
    oracle = ReferenceSimulator(
        case.program,
        case.topology,
        interconnect,
        recorder.trace,
        OracleParams.of_simulator(sim),
    )
    try:
        outcome = oracle.run()
    except VerificationError as exc:
        return DifferentialReport(
            case=case, status="oracle-desync", error=str(exc), result=result,
        )
    divergences = _compare(result, outcome)
    return DifferentialReport(
        case=case,
        status="ok" if not divergences else "divergence",
        divergences=divergences,
        result=result,
        oracle=outcome,
    )


def _run_production(case: VerifyCase):
    """One production run of the case (no oracle).

    Returns ``(result, None)`` or ``(None, error_string)`` when the run
    dies of a legitimate :class:`ReproError` (fault plan killed it).
    """
    from ..schedulers import make_scheduler

    scheduler = make_scheduler(case.scheduler, **case.scheduler_kwargs)
    interconnect = Interconnect(case.topology, **case.interconnect_kwargs)
    sim = Simulator(
        case.program,
        case.topology,
        scheduler,
        interconnect=interconnect,
        faults=case.faults,
        **case.sim_kwargs,
    )
    try:
        return sim.run(), None
    except ReproError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def differential_run(
    policy,
    app,
    machine,
    faults=None,
    *,
    scheduler_kwargs: dict | None = None,
    interconnect_kwargs: dict | None = None,
    label: str = "",
    **sim_kwargs,
) -> DifferentialReport:
    """Convenience driver: resolve names, build the case, run the diff.

    ``policy`` is a scheduler name (plus optional ``scheduler_kwargs``);
    ``app`` is a :class:`TaskProgram` or an application name from
    :data:`repro.apps.APPS`; ``machine`` is a :class:`NumaTopology` or a
    preset name; ``faults`` a :class:`FaultPlan`, a path to one, or None.
    Remaining keyword arguments go to the production simulator verbatim
    (``seed=``, ``steal=``, ``duration_jitter=``, ...).
    """
    topology = machine
    if isinstance(machine, str):
        from ..machine.presets import by_name

        topology = by_name(machine)
    program = app
    if isinstance(app, str):
        from ..apps import make_app

        program = make_app(app).build(topology.n_sockets)
    if isinstance(faults, str):
        from ..faults.plan import FaultPlan

        faults = FaultPlan.load(faults)
    case = VerifyCase(
        program=program,
        topology=topology,
        scheduler=policy,
        scheduler_kwargs=dict(scheduler_kwargs or {}),
        interconnect_kwargs=dict(interconnect_kwargs or {}),
        sim_kwargs=dict(sim_kwargs),
        faults=faults,
        label=label or policy,
    )
    return run_case(case)


def save_repro(report: DifferentialReport, out_dir: str) -> str:
    """Serialize a diverging case to ``out_dir``; returns the file path."""
    os.makedirs(out_dir, exist_ok=True)
    doc = report.case.to_dict()
    doc["status"] = report.status
    doc["divergences"] = [str(d) for d in report.divergences]
    if report.error:
        doc["error"] = report.error
    stem = (report.case.label or report.case.scheduler).replace("+", "_")
    stem = "".join(c if c.isalnum() or c in "-_" else "-" for c in stem)
    path = os.path.join(out_dir, f"divergence-{stem}.json")
    n = 1
    while os.path.exists(path):
        path = os.path.join(out_dir, f"divergence-{stem}-{n}.json")
        n += 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def replay_file(path: str) -> DifferentialReport:
    """Re-run the differential check of a serialized case (repro file or
    committed corpus entry)."""
    return run_case(VerifyCase.load(path))

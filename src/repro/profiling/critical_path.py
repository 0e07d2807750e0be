"""Critical-path extraction and makespan decomposition (DESIGN.md §13).

Walks the *executed* schedule backwards from the last task to finish,
chaining through whatever blocked each critical task from starting
earlier — its latest-finishing predecessor, or the task that held the
barrier epoch open.  The walk yields a sequence of segments that tile
``[0, makespan]`` exactly; each segment is attributed to one of seven
components:

========== ==========================================================
component  meaning
========== ==========================================================
compute    critical task executing, compute share (attribution model)
mem_local  critical task executing, local-memory share
mem_remote critical task executing, remote-memory share
mem_network critical task executing, cross-box network share (clusters)
queue_wait critical task ready (deps + epoch done) but holding no core
stall      critical task parked by the scheduler (RGP window pending)
waste      a crashed attempt of the critical task was running
dep_wait   hole in the chain (no blocker covers the interval; zero on
           healthy runs — tasks here are offered the instant their
           last dependence retires, so dependence time is carried by
           the blocking predecessor's own execution segment)
========== ==========================================================

The decomposition invariant — ``sum(totals) == makespan`` up to float
telescoping noise — is enforced with a real raise (not ``assert``; the
library must fail under ``python -O`` too).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..errors import ProfilingError
from ..machine.interconnect import Interconnect
from ..runtime.result import SimulationResult, TaskRecord
from .attribution import AttributionModel

#: Every component the decomposition can produce, display order.
COMPONENTS = (
    "compute", "mem_local", "mem_remote", "mem_network",
    "queue_wait", "dep_wait", "stall", "waste",
)

#: Components that are execution time (what-if scaling targets).
EXEC_COMPONENTS = ("compute", "mem_local", "mem_remote", "mem_network")


@dataclass(frozen=True)
class PathSegment:
    """One interval of the critical path; ``parts`` sums to ``t1 - t0``."""

    t0: float
    t1: float
    kind: str               # "exec" or a wait component name
    tid: int
    name: str
    socket: int
    core: int
    parts: dict[str, float] = field(default_factory=dict)
    remote_as_local: float = 0.0

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


def _zero_components() -> dict[str, float]:
    return {c: 0.0 for c in COMPONENTS}


@dataclass
class ProfileReport:
    """The full decomposition of one run's makespan."""

    program_name: str
    scheduler_name: str
    machine_name: str
    seed: int
    makespan: float
    segments: list[PathSegment]
    totals: dict[str, float]
    per_task: dict[int, dict[str, float]]
    task_names: dict[int, str]
    per_socket: dict[int, dict[str, float]]
    #: All-records view (not just the path): per-socket busy time split
    #: into compute/mem_local/mem_remote plus crashed-attempt waste.
    machine_view: dict[int, dict[str, float]]
    remote_as_local: float
    residual: float

    # ------------------------------------------------------------------
    @property
    def n_path_tasks(self) -> int:
        return len({s.tid for s in self.segments if s.kind == "exec"})

    def component_sum(self) -> float:
        return sum(self.totals.values())

    # -- what-if estimators (Coz-style virtual speedup) ----------------
    def whatif(self, component: str, scale: float = 0.0) -> float:
        """Estimated makespan if ``component`` time on the critical path
        were multiplied by ``scale`` (0 = removed entirely).

        Optimistic bound: waits are held fixed and the path is assumed
        not to switch to a different chain (DESIGN.md §13).
        """
        if component not in COMPONENTS:
            raise ProfilingError(
                f"unknown component {component!r}; known: {COMPONENTS}"
            )
        if scale < 0:
            raise ProfilingError(f"scale must be >= 0, got {scale!r}")
        return self.makespan - self.totals[component] * (1.0 - scale)

    def whatif_remote_local(self) -> float:
        """Estimated makespan had every remote access been local: the
        path's remote-memory time replayed at the local service rate."""
        return self.makespan - (self.totals["mem_remote"] - self.remote_as_local)

    # ------------------------------------------------------------------
    def machine_totals(self) -> dict[str, float]:
        """Machine view summed over sockets (busy-time attribution)."""
        out = {"compute": 0.0, "mem_local": 0.0, "mem_remote": 0.0,
               "mem_network": 0.0, "waste": 0.0}
        for parts in self.machine_view.values():
            for key in out:
                out[key] += parts.get(key, 0.0)
        return out

    def to_dict(self, *, compact: bool = False) -> dict[str, Any]:
        """JSON-safe dump (plain Python scalars only).

        ``compact=True`` drops the segment list and per-task map — the
        form attached to service job results.
        """
        out: dict[str, Any] = {
            "program": self.program_name,
            "scheduler": self.scheduler_name,
            "machine": self.machine_name,
            "seed": int(self.seed),
            "makespan": float(self.makespan),
            "components": {k: float(v) for k, v in self.totals.items()},
            "residual": float(self.residual),
            "n_path_tasks": int(self.n_path_tasks),
            "whatif_remote_local": float(self.whatif_remote_local()),
            "machine_view": {
                str(s): {k: float(v) for k, v in parts.items()}
                for s, parts in sorted(self.machine_view.items())
            },
        }
        if not compact:
            out["per_socket"] = {
                str(s): {k: float(v) for k, v in parts.items()}
                for s, parts in sorted(self.per_socket.items())
            }
            out["per_task"] = {
                str(t): {k: float(v) for k, v in parts.items()}
                for t, parts in sorted(self.per_task.items())
            }
            out["task_names"] = {
                str(t): n for t, n in sorted(self.task_names.items())
            }
            out["segments"] = [
                {
                    "t0": float(s.t0), "t1": float(s.t1), "kind": s.kind,
                    "tid": int(s.tid), "name": s.name,
                    "socket": int(s.socket), "core": int(s.core),
                    "parts": {k: float(v) for k, v in s.parts.items()},
                }
                for s in self.segments
            ]
        return out

    def render(self, top: int = 5) -> str:
        """Human-readable profile (the ``repro profile`` body)."""
        lines = [
            f"critical-path profile — {self.program_name} / "
            f"{self.scheduler_name} @ {self.machine_name} (seed {self.seed})",
            f"makespan {self.makespan:.6g}, {self.n_path_tasks} tasks on the "
            f"critical path (residual {self.residual:.1e})",
        ]
        span = self.makespan or 1.0
        for comp in COMPONENTS:
            value = self.totals[comp]
            bar = "#" * int(round(40 * value / span))
            lines.append(f"  {comp:<11s} {value:10.4g}  {value / span:6.1%} {bar}")
        lines.append(
            "what-if remote=local: makespan "
            f"{self.whatif_remote_local():.6g} "
            f"({(self.whatif_remote_local() - self.makespan) / span:+.1%})"
        )
        movers = sorted(
            self.per_task.items(),
            key=lambda kv: -sum(kv[1].values()),
        )[:top]
        if movers:
            lines.append("top critical-path tasks:")
            for tid, parts in movers:
                total = sum(parts.values())
                main = max(parts, key=lambda k: parts[k])
                lines.append(
                    f"  #{tid:<6d} {self.task_names.get(tid, '?'):<24s} "
                    f"{total:10.4g}  (mostly {main})"
                )
        busy = self.machine_totals()
        lines.append(
            "machine view (all records): "
            + " ".join(f"{k}={busy[k]:.4g}" for k in busy)
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# construction


def _park_intervals(
    events, rec_by_tid: dict[int, TaskRecord]
) -> dict[int, list[tuple[float, float]]]:
    """Per-task parked intervals from ``sched.place`` events.

    A park interval opens at a ``target="park"`` placement and closes at
    the task's next placement event (the re-offer); if no later placement
    survived in the ring buffer, it closes at the task's start.
    """
    placements: dict[int, list[tuple[float, str]]] = {}
    for ev in events or []:
        if ev.kind != "sched.place":
            continue
        tid = ev.args.get("tid")
        if tid is None:
            continue
        placements.setdefault(int(tid), []).append(
            (ev.ts, ev.args.get("target", ""))
        )
    intervals: dict[int, list[tuple[float, float]]] = {}
    for tid, seq in placements.items():
        for i, (ts, target) in enumerate(seq):
            if target != "park":
                continue
            if i + 1 < len(seq):
                end = seq[i + 1][0]
            elif tid in rec_by_tid:
                end = rec_by_tid[tid].start
            else:
                continue
            if end > ts:
                intervals.setdefault(tid, []).append((ts, end))
    return intervals


def _classify_gap(
    lo: float,
    hi: float,
    waste: list[tuple[float, float]],
    stall: list[tuple[float, float]],
) -> list[tuple[float, float, str]]:
    """Tile ``[lo, hi]`` with labelled intervals (waste > stall > queue).

    The boundary points of all clipped intervals cut ``[lo, hi]`` into
    elementary pieces; each piece takes the highest-priority label that
    covers it, so overlapping sources never double-count and the pieces
    sum exactly to ``hi - lo``.
    """
    clip = lambda iv: [  # noqa: E731 - tiny local helper
        (max(lo, a), min(hi, b)) for a, b in iv if min(hi, b) > max(lo, a)
    ]
    waste = clip(waste)
    stall = clip(stall)
    points = sorted({lo, hi, *(p for iv in (waste, stall) for ab in iv for p in ab)})
    out: list[tuple[float, float, str]] = []
    for a, b in zip(points, points[1:]):
        if b <= a:
            continue
        mid = 0.5 * (a + b)
        if any(x <= mid < y for x, y in waste):
            label = "waste"
        elif any(x <= mid < y for x, y in stall):
            label = "stall"
        else:
            label = "queue_wait"
        if out and out[-1][2] == label and out[-1][1] == a:
            out[-1] = (out[-1][0], b, label)
        else:
            out.append((a, b, label))
    return out


def profile_run(
    program,
    result: SimulationResult,
    topology,
    *,
    interconnect: Interconnect | None = None,
    events=None,
    tol: float = 1e-6,
) -> ProfileReport:
    """Decompose one run's makespan along its executed critical path.

    ``events`` defaults to ``result.events`` (populated on instrumented
    runs); without events the stall component degrades into queue wait —
    parked intervals are only recoverable from ``sched.place`` events.
    Raises :class:`~repro.errors.ProfilingError` if the result's event
    stream was truncated (its sink dropped events, so parked intervals
    would be misread as queue wait), or if the decomposition does not sum
    to the makespan within ``tol * max(1, makespan)``.
    """
    interconnect = interconnect or Interconnect(topology)
    if events is None:
        if result.events_dropped:
            raise ProfilingError(
                f"event stream truncated: the sink dropped "
                f"{result.events_dropped} events (raise its capacity)"
            )
        events = result.events
    model = AttributionModel(interconnect, result.bytes_by_pair)

    rec_by_tid = {r.tid: r for r in result.records}
    crashed_by_tid: dict[int, list[tuple[float, float]]] = {}
    for rec in result.crashed_records:
        crashed_by_tid.setdefault(rec.tid, []).append((rec.start, rec.finish))
    parked = _park_intervals(events, rec_by_tid)

    # Barrier bookkeeping: when does each epoch open, and which task of
    # the earlier epochs finished last (the "epoch blocker")?
    n_epochs = max((program.tasks[t].epoch for t in rec_by_tid), default=0) + 1
    epoch_max = [0.0] * n_epochs
    epoch_arg = [-1] * n_epochs
    for tid, rec in rec_by_tid.items():
        e = program.tasks[tid].epoch
        if rec.finish > epoch_max[e] or (
            rec.finish == epoch_max[e] and (epoch_arg[e] < 0 or tid < epoch_arg[e])
        ):
            epoch_max[e], epoch_arg[e] = rec.finish, tid
    ready_before = [0.0] * (n_epochs + 1)
    blocker_before = [-1] * (n_epochs + 1)
    for e in range(n_epochs):
        ready_before[e + 1] = ready_before[e]
        blocker_before[e + 1] = blocker_before[e]
        if epoch_max[e] > ready_before[e + 1]:
            ready_before[e + 1] = epoch_max[e]
            blocker_before[e + 1] = epoch_arg[e]

    segments: list[PathSegment] = []
    makespan = result.makespan

    def wait_seg(t0: float, t1: float, kind: str, rec: TaskRecord) -> None:
        segments.append(PathSegment(
            t0=t0, t1=t1, kind=kind, tid=rec.tid, name=rec.name,
            socket=rec.socket, core=rec.core, parts={kind: t1 - t0},
        ))

    if rec_by_tid:
        eps = 1e-12 * max(1.0, makespan)
        rec = max(result.records, key=lambda r: (r.finish, -r.tid))
        cursor = makespan
        if rec.finish < cursor - eps:
            wait_seg(rec.finish, cursor, "dep_wait", rec)
            cursor = rec.finish
        visited: set[int] = set()
        budget = len(result.records) + len(result.crashed_records) + 16
        while True:
            budget -= 1
            if budget < 0 or rec.tid in visited:
                # Defensive: a cycle or runaway chain would break the
                # tiling; close it as one dep_wait hole instead.
                if cursor > 0:
                    wait_seg(0.0, cursor, "dep_wait", rec)
                break
            visited.add(rec.tid)
            start = min(rec.start, cursor)
            if cursor > start:
                split = model.split(
                    work=program.tasks[rec.tid].work,
                    local_bytes=rec.local_bytes,
                    remote_bytes=rec.remote_bytes,
                    socket=rec.socket,
                    duration=cursor - start,
                    net_bytes=rec.net_bytes,
                )
                segments.append(PathSegment(
                    t0=start, t1=cursor, kind="exec", tid=rec.tid,
                    name=rec.name, socket=rec.socket, core=rec.core,
                    parts={
                        "compute": split.compute,
                        "mem_local": split.mem_local,
                        "mem_remote": split.mem_remote,
                        "mem_network": split.mem_network,
                    },
                    remote_as_local=split.remote_as_local,
                ))
            cursor = start
            task = program.tasks[rec.tid]
            preds = program.tdg.predecessors(rec.tid)
            dep_ready = max(
                (rec_by_tid[p].finish for p in preds if p in rec_by_tid),
                default=0.0,
            )
            epoch_ready = ready_before[min(task.epoch, n_epochs)]
            ready = min(max(dep_ready, epoch_ready), cursor)
            if cursor - ready > eps:
                for a, b, label in _classify_gap(
                    ready, cursor,
                    crashed_by_tid.get(rec.tid, []),
                    parked.get(rec.tid, []),
                ):
                    wait_seg(a, b, label, rec)
            cursor = ready
            if cursor <= eps:
                break
            if preds and dep_ready >= epoch_ready:
                btid = max(
                    (p for p in preds if p in rec_by_tid),
                    key=lambda p: (rec_by_tid[p].finish, -p),
                )
            elif blocker_before[min(task.epoch, n_epochs)] >= 0:
                btid = blocker_before[min(task.epoch, n_epochs)]
            else:
                wait_seg(0.0, cursor, "dep_wait", rec)
                break
            nxt = rec_by_tid[btid]
            if nxt.finish < cursor - eps:
                wait_seg(nxt.finish, cursor, "dep_wait", rec)
                cursor = nxt.finish
            rec = nxt

    segments.reverse()

    totals = _zero_components()
    per_task: dict[int, dict[str, float]] = {}
    per_socket: dict[int, dict[str, float]] = {}
    task_names: dict[int, str] = {}
    remote_as_local = 0.0
    for seg in segments:
        task_names[seg.tid] = seg.name
        t_acc = per_task.setdefault(seg.tid, _zero_components())
        s_acc = per_socket.setdefault(seg.socket, _zero_components())
        for comp, value in seg.parts.items():
            totals[comp] += value
            t_acc[comp] += value
            s_acc[comp] += value
        remote_as_local += seg.remote_as_local

    machine_view: dict[int, dict[str, float]] = {
        int(s): {"compute": 0.0, "mem_local": 0.0, "mem_remote": 0.0,
                 "mem_network": 0.0, "waste": 0.0}
        for s in range(topology.n_sockets)
    }
    for rec in result.records:
        split = model.split(
            work=program.tasks[rec.tid].work,
            local_bytes=rec.local_bytes,
            remote_bytes=rec.remote_bytes,
            socket=rec.socket,
            duration=rec.duration,
            net_bytes=rec.net_bytes,
        )
        view = machine_view[rec.socket]
        view["compute"] += split.compute
        view["mem_local"] += split.mem_local
        view["mem_remote"] += split.mem_remote
        view["mem_network"] += split.mem_network
    for rec in result.crashed_records:
        machine_view[rec.socket]["waste"] += rec.duration

    residual = makespan - sum(totals.values())
    if abs(residual) > tol * max(1.0, makespan):
        raise ProfilingError(
            f"decomposition does not sum to makespan: residual {residual!r} "
            f"over makespan {makespan!r} ({len(segments)} segments)"
        )

    return ProfileReport(
        program_name=result.program_name,
        scheduler_name=result.scheduler_name,
        machine_name=result.machine_name,
        seed=result.seed,
        makespan=makespan,
        segments=segments,
        totals=totals,
        per_task=per_task,
        task_names=task_names,
        per_socket=per_socket,
        machine_view=machine_view,
        remote_as_local=remote_as_local,
        residual=residual,
    )

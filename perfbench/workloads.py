"""The benchmark's workloads, one pass over a workload, and its checks.

A *pass* builds every program of the workload once and constructs and runs
one simulation per (program, policy).  Host time is taken in three kinds of
segment -- build, simulator set-up, run -- and nothing else: fingerprinting,
bookkeeping and the host-speed samples (hostspeed.py) are outside every
timed region.

Why these workloads (see README.md for the longer account):

* ``figure1`` -- the paper's own exhibit; app builds, window partitioning
  and RGP propagation carry much of the time.
* ``stencil10k`` -- one large program, no partitioning at all; the event
  engine, placement queries and the rate solve carry the time.
* ``cluster16`` -- the steal scan, inter-box messages and hierarchical
  partitioning dominate.
"""

from __future__ import annotations

import hashlib
import math
import struct
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

from repro.apps import make_app
from repro.bench.hotpath import build_bench_program
from repro.experiments.config import (
    FIGURE1_APPS,
    PAPER_APP_PARAMS,
    ExperimentConfig,
)
from repro.machine import presets
from repro.machine.interconnect import Interconnect
from repro.runtime.program import TaskProgram
from repro.runtime.simulator import Simulator
from repro.schedulers import make_scheduler
from repro.verify.differential import VerifyCase, run_case

import hostspeed

#: RGP+LAS over LAS geomean reported by the paper (Figure 1).
PAPER_GEOMEAN = 1.12


@dataclass(frozen=True)
class Workload:
    """A machine, the programs to build on it, and the two policies.

    ``policies[0]`` is the baseline: ``sim_speedup_geomean`` is the geomean
    over programs of makespan(baseline) / makespan(policies[1]).
    """

    name: str
    machine: Callable[[], object]
    programs: tuple[tuple[str, Callable[[int], TaskProgram]], ...]
    policies: tuple[str, str]
    interconnect_kwargs: dict = field(default_factory=dict)
    sim_kwargs: dict = field(default_factory=dict)
    scheduler_kwargs: dict = field(default_factory=dict)
    #: Published value of ``sim_speedup_geomean``, when the paper has one.
    reference_geomean: float | None = None

    def policy_kwargs(self, policy: str) -> dict:
        return dict(self.scheduler_kwargs.get(policy, {}))

    def simulator(self, program, topology, policy: str, seed: int):
        return Simulator(
            program,
            topology,
            make_scheduler(policy, **self.policy_kwargs(policy)),
            interconnect=Interconnect(topology, **self.interconnect_kwargs),
            seed=seed,
            **self.sim_kwargs,
        )

    def case(self, program, topology, policy: str, seed: int) -> VerifyCase:
        """The same simulation as :meth:`simulator`, as a verification case."""
        return VerifyCase(
            program=program,
            topology=topology,
            scheduler=policy,
            scheduler_kwargs=self.policy_kwargs(policy),
            interconnect_kwargs=dict(self.interconnect_kwargs),
            sim_kwargs=dict(seed=seed, **self.sim_kwargs),
            label=f"{self.name}/{program.name}/{policy}/seed{seed}",
        )


def _figure1() -> Workload:
    cfg = ExperimentConfig.paper()
    return Workload(
        name="figure1",
        machine=presets.bullion_s16,
        programs=tuple(
            (app, lambda n_sockets, app=app: make_app(
                app, **PAPER_APP_PARAMS[app]).build(n_sockets))
            for app in FIGURE1_APPS
        ),
        policies=("las", "rgp+las"),
        interconnect_kwargs=dict(
            remote_penalty_exp=cfg.remote_penalty_exp,
            link_fraction=cfg.link_fraction,
            core_fraction=cfg.core_fraction,
        ),
        sim_kwargs=dict(steal=cfg.steal),
        scheduler_kwargs={"rgp+las": dict(window_size=cfg.window_size)},
        reference_geomean=PAPER_GEOMEAN,
    )


def _stencil(name: str, machine, n_tasks: int, policies) -> Workload:
    """One ``repro.bench.hotpath`` stencil of at least ``n_tasks`` tasks."""
    return Workload(
        name=name,
        machine=machine,
        programs=(
            (f"stencil-{n_tasks}",
             lambda n_sockets: build_bench_program(n_tasks, n_sockets)),
        ),
        policies=tuple(policies),
    )


WORKLOADS: dict[str, Callable[[], Workload]] = {
    "figure1": _figure1,
    "stencil10k": lambda: _stencil(
        "stencil10k", presets.four_socket, 10_000, ("las", "dfifo")
    ),
    "cluster16": lambda: _stencil(
        "cluster16", presets.cluster16, 2_500, ("las", "rgp+las")
    ),
}


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
_RECORD = struct.Struct("<qqqqddddd")


def fingerprint(result) -> tuple[str, str, str]:
    """Exact identity of a schedule: makespan, records digest, traffic."""
    h = hashlib.sha256()
    for r in result.records:
        h.update(_RECORD.pack(
            r.tid, r.core, r.socket, r.attempt, r.start, r.finish,
            r.local_bytes, r.remote_bytes, r.net_bytes,
        ))
    traffic = hashlib.sha256(result.bytes_by_pair.tobytes()).hexdigest()
    return (float(result.makespan).hex(), h.hexdigest(), traffic)


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
@dataclass
class SimOutcome:
    """One simulation of a pass: what it produced, or why it failed."""

    program: str
    policy: str
    n_tasks: int = 0
    fingerprint: tuple | None = None
    makespan: float = 0.0
    local_bytes: float = 0.0
    remote_bytes: float = 0.0
    steals: int = 0
    messages: int = 0
    parked: int = 0
    windows: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_entries: int = 0
    error: str = ""


@dataclass
class PassResult:
    """Host time and simulations of one pass over a workload.

    ``wall_ns`` and ``setup_ns`` are host nanoseconds; ``ref_wall_s`` and
    ``ref_setup_s`` are the same segments in reference seconds, each scaled
    by the host speed sampled from just before it to just after it
    (hostspeed.py).  ``kernel_ns`` holds every sample, in order.
    """

    wall_ns: int = 0
    setup_ns: int = 0
    ref_wall_s: float = 0.0
    ref_setup_s: float = 0.0
    kernel_ns: list[int] = field(default_factory=list)
    sims: list[SimOutcome] = field(default_factory=list)

    @property
    def tasks(self) -> int:
        return sum(s.n_tasks for s in self.sims if not s.error)

    def add(self, meter: hostspeed.Meter, first: int, wall_ns: int,
            setup_ns: int) -> int:
        """Count one timed segment whose samples start at ``first``.

        Takes the sample after the segment and returns its index, which
        opens the next segment.
        """
        last = meter.boundary()
        speed = meter.speed_since(first)
        self.wall_ns += wall_ns
        self.setup_ns += setup_ns
        self.ref_wall_s += wall_ns / 1e9 * speed
        self.ref_setup_s += setup_ns / 1e9 * speed
        return last


def _failure(exc: BaseException) -> str:
    traceback.print_exception(exc, file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


def run_pass(workload: Workload, topology, seed: int,
             ticks: bool = True) -> PassResult:
    """Build every program once and simulate it under both policies.

    With ``ticks=False`` the host speed is sampled between segments only.
    """
    out = PassResult()
    with hostspeed.Meter(hostspeed.TICK_S if ticks else None) as meter:
        first = meter.boundary()
        for label, build in workload.programs:
            t0 = meter.clock()
            try:
                program, error = build(topology.n_sockets), ""
            except Exception as exc:  # a failed build fails its simulations
                program, error = None, _failure(exc)
            spent = meter.clock() - t0
            first = out.add(meter, first, spent, spent)
            for policy in workload.policies:
                sim_out = SimOutcome(label, policy, error=error)
                out.sims.append(sim_out)
                if program is not None:
                    first = out.add(meter, first, *_simulate(
                        meter.clock, sim_out, workload, program, topology,
                        policy, seed))
            # Drop the program before the next build: one alive at a time.
            program = None
    out.kernel_ns = meter.samples
    return out


def _simulate(clock, sim_out: SimOutcome, workload: Workload, program,
              topology, policy: str, seed: int) -> tuple[int, int]:
    """One timed simulation: its host (wall, set-up) nanoseconds.

    The simulator is freed on return.
    """
    t0 = clock()
    try:
        sim = workload.simulator(program, topology, policy, seed)
        t1 = clock()
        result = sim.run()
    except Exception as exc:  # counted in failed, the pass continues
        spent = clock() - t0
        sim_out.error = _failure(exc)
        return spent, 0
    t2 = clock()
    _describe(sim_out, sim, result)
    return t2 - t0, t1 - t0


def _describe(sim_out: SimOutcome, sim, result) -> None:
    sim_out.n_tasks = len(result.records)
    sim_out.fingerprint = fingerprint(result)
    sim_out.makespan = result.makespan
    sim_out.local_bytes = result.local_bytes
    sim_out.remote_bytes = result.remote_bytes
    sim_out.steals = result.steals
    sim_out.messages = len(result.messages)
    sim_out.parked = result.parked_tasks
    sim_out.windows = getattr(sim.scheduler, "windows_partitioned", 0)
    sim_out.cache_hits = sim.memory.cache_hits
    sim_out.cache_misses = sim.memory.cache_misses
    sim_out.cache_entries = sim.memory.cache_entries


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def verify_cases(workload: Workload, topology, seed: int) -> dict:
    """Replay every distinct case against the reference simulator.

    Returns ``(program, policy) -> fingerprint`` for the cases the oracle
    confirmed; a case that diverges, desyncs or fails is left out, so every
    timed simulation of it counts as failed.
    """
    verified = {}
    for label, build in workload.programs:
        try:
            program = build(topology.n_sockets)
        except Exception as exc:
            print(f"verify {label}: build failed: {_failure(exc)}",
                  file=sys.stderr)
            continue
        for policy in workload.policies:
            try:
                report = run_case(
                    workload.case(program, topology, policy, seed)
                )
            except Exception as exc:  # the case stays unverified
                print(f"verify {label}/{policy}: {_failure(exc)}",
                      file=sys.stderr)
                continue
            if report.status == "ok":
                verified[(label, policy)] = fingerprint(report.result)
            else:
                print(f"verify: {report.summary()}", file=sys.stderr)
    return verified


def check(passes: list[PassResult], verified: dict) -> int:
    """Mark each simulation that does not reproduce its verified case.

    Returns the number of failed simulations (raised or mismatched).
    """
    failed = 0
    for p in passes:
        for s in p.sims:
            if not s.error:
                want = verified.get((s.program, s.policy))
                if want is None:
                    s.error = "case not verified by the reference simulator"
                elif s.fingerprint != want:
                    s.error = "fingerprint differs from the verified case"
            failed += bool(s.error)
    return failed


# ----------------------------------------------------------------------
# Simulated metrics
# ----------------------------------------------------------------------
def simulated_metrics(workload: Workload, p: PassResult) -> dict[str, float]:
    """``sim_speedup_geomean`` and ``remote_frac`` of one pass.

    Both are functions of the schedules alone, so they repeat bit for bit
    whenever the fingerprints do.
    """
    base, other = workload.policies
    span = {(s.program, s.policy): s.makespan for s in p.sims if not s.error}
    logs = [
        math.log(span[(label, base)] / span[(label, other)])
        for label, _build in workload.programs
        if (label, base) in span and (label, other) in span
    ]
    ok = [s for s in p.sims if not s.error]
    total = sum(s.local_bytes + s.remote_bytes for s in ok)
    return {
        "sim_speedup_geomean": (
            math.exp(sum(logs) / len(logs)) if logs else float("nan")
        ),
        "remote_frac": (
            sum(s.remote_bytes for s in ok) / total if total else float("nan")
        ),
    }

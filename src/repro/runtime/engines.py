"""Fluid-flow engines: the simulator's drain/predict mechanics, twice.

The :class:`~repro.runtime.simulator.Simulator` owns every *decision* of a
run — offering, dispatch, stealing, timers, faults, epochs, RNG draws —
while the question "when does which running attempt finish?" is answered by
a pluggable **fluid engine**.  Two implementations share one contract
(DESIGN.md §14):

* :class:`ObjectEngine` — one :class:`_Running` object per attempt with
  per-stream dicts; plain Python scalar arithmetic.  The readable twin and
  the oracle of record.
* :class:`FlatEngine` — struct-of-arrays numpy state indexed by *core
  slot* (core exclusivity bounds running attempts by ``n_cores``): per-slot
  compute remaining/deadline vectors and per-(slot, node) stream byte/rate/
  deadline grids.  Collecting the active streams with ``nonzero`` yields
  the row-major ``(indptr, node, bytes)`` CSR view the interconnect
  consumes; the three inner operations — stream drain, next-completion
  prediction, ready-release bookkeeping on finish — are O(1) numpy calls
  per event batch instead of per-object dict traffic.

Both engines implement the same **rate-epoch deadline drain**.  Stream
rates only change when the active set changes (start, finish, crash, fault
knob), so between such changes — one *rate epoch* — every completion
instant is known in closed form.  At ``refresh`` each stream gets an
absolute deadline ``d = now + bytes / rate`` (and compute ``cd = now +
remaining / speed``); the epoch then persists through any number of no-op
timer stops with **zero drain arithmetic**.  State is *materialized* back
into byte space (``bytes = rate * (d - now)``) only when the set actually
changes.  This replaces the old incremental ``bytes -= rate * dt``
subtraction whose per-stop round-off the ``_EPS_BYTES`` tolerance papered
over: a task completing at its own deadline now materializes to exactly
0.0 remaining bytes and 0.0 compute.

Bit-identity contract: every float comparison and arithmetic expression
here exists in both engines in the same order per value (IEEE doubles make
elementwise numpy ops identical to the scalar expressions), and the
water-fill rate function is permutation/label-invariant in its stream
order, so ``Simulator(engine="flat")`` and ``engine="object"`` produce
byte-identical runs.  The replay oracle
(:mod:`repro.verify.oracle`) mirrors the same epoch logic.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field

from ..errors import SimulationError
from ..machine.interconnect import StreamKey
from ..machine.memory import _check_cache_env
from .task import Task

#: Time tolerance (timer coalescing, compute drain).
_EPS = 1e-9

#: Byte tolerance: streams hold up to ~1e8 bytes whose deadlines come from
#: float time arithmetic, so residues of ~1e-7 bytes are round-off, not
#: pending work.  A hundredth of a byte is far below model resolution.
_EPS_BYTES = 1e-2

_INF = float("inf")


@dataclass(eq=False)
class _Running:
    """One in-flight attempt.  ``compute_remaining``/``streams`` are live
    under the object engine; the flat engine keeps the truth in its arrays
    and writes the final materialized values back on removal so probes and
    the fault injector observe identical state under either engine."""

    task: Task
    core: int
    socket: int
    start: float
    compute_remaining: float
    streams: dict[int, float]  # node -> remaining bytes
    # Rate-epoch state (object engine; see module docstring).
    n_active: int = 0
    s_rate: dict[int, float] = field(default_factory=dict)
    s_deadline: dict[int, float] = field(default_factory=dict)
    c_deadline: float = 0.0
    fin_deadline: float = _INF
    done_deadline: float = _INF


class ObjectEngine:
    """Per-attempt objects + scalar epoch arithmetic (the readable twin).

    Invariant: whenever ``valid`` is True, *every* attempt in
    ``sim.running`` carries deadlines from the latest :meth:`refresh` —
    :meth:`add`/:meth:`remove` materialize first and invalidate, so a
    never-refreshed attempt can never be materialized.
    """

    name = "object"

    def __init__(self, sim) -> None:
        self.sim = sim
        self.valid = True  # an empty epoch is trivially fresh
        #: Earliest instant any active stream crosses its byte tolerance;
        #: the clock passing it is the only mid-epoch event that changes
        #: rates (a departed stream frees controller share).
        self.stream_dep_min = _INF
        #: ``REPRO_CHECK_CACHE=1`` also oracle-checks the incremental
        #: active-stream counters against a recount at every materialize.
        self.check = _check_cache_env()

    # -- membership ----------------------------------------------------
    def add(self, rt: _Running) -> None:
        """Admit a new attempt (must not be in ``sim.running`` yet)."""
        self.materialize()
        n_active = 0
        for n, b in rt.streams.items():
            if b > _EPS_BYTES:
                n_active += 1
            else:
                rt.streams[n] = 0.0
        rt.n_active = n_active
        self.valid = False

    def remove(self, rt: _Running) -> None:
        """Retire an attempt (finish or crash); state is materialized so
        ``rt`` holds its exact final bytes/compute."""
        self.materialize()
        self.valid = False

    def clear(self) -> None:
        """Drop all fluid state (after ``_abort_run``)."""
        self.valid = False

    # -- epoch transitions ---------------------------------------------
    def on_rates_changed(self) -> None:
        """A fault knob moved (core speed / node bandwidth): close the
        epoch under the old rates."""
        self.materialize()

    def materialize(self) -> None:
        """Rebase deadline state into byte space at ``sim.now`` and end
        the epoch.  No-op when no epoch is open."""
        if not self.valid:
            return
        sim = self.sim
        now = sim.now
        speed_arr = sim._core_speed
        for rt in sim.running.values():
            streams = rt.streams
            n_active = rt.n_active
            s_rate = rt.s_rate
            for n, d in rt.s_deadline.items():
                b = s_rate[n] * (d - now)
                if b > _EPS_BYTES:
                    streams[n] = b
                else:
                    streams[n] = 0.0
                    n_active -= 1
            rt.n_active = n_active
            speed = 1.0 if speed_arr is None else float(speed_arr[rt.core])
            c = speed * (rt.c_deadline - now)
            rt.compute_remaining = c if c > _EPS else 0.0
            if self.check:
                fresh = sum(1 for b in streams.values() if b > _EPS_BYTES)
                if fresh != rt.n_active:
                    raise SimulationError(
                        f"active-stream counter diverged for task "
                        f"{rt.task.tid}: counter {rt.n_active}, recount "
                        f"{fresh} at t={now:.6g}"
                    )
        self.valid = False

    def refresh(self) -> None:
        """Open a new epoch at ``sim.now``: one rate computation, absolute
        deadlines for every stream and compute component."""
        if self.valid:
            return
        sim = self.sim
        running = sim.running
        dep_min = _INF
        if running:
            now = sim.now
            keys: list[StreamKey] = []
            refs: list[tuple[_Running, int, float]] = []
            for rt in running.values():
                rt.s_rate = {}
                rt.s_deadline = {}
                tid = rt.task.tid
                socket = rt.socket
                for n, b in rt.streams.items():
                    if b > _EPS_BYTES:
                        keys.append(StreamKey(socket, n, group=tid))
                        refs.append((rt, n, b))
            rates = sim._stream_rates(keys)
            for (rt, n, b), rate in zip(refs, rates):
                rate = float(rate)
                rt.s_rate[n] = rate
                rt.s_deadline[n] = now + b / rate
            speed_arr = sim._core_speed
            for rt in running.values():
                speed = 1.0 if speed_arr is None else float(speed_arr[rt.core])
                cd = now + rt.compute_remaining / speed
                fin = cd
                done = cd - _EPS / speed
                s_rate = rt.s_rate
                for n, d in rt.s_deadline.items():
                    if d > fin:
                        fin = d
                    dd = d - _EPS_BYTES / s_rate[n]
                    if dd > done:
                        done = dd
                    if dd < dep_min:
                        dep_min = dd
                rt.c_deadline = cd
                rt.fin_deadline = fin
                rt.done_deadline = done
                rt.n_active = len(rt.s_deadline)
        self.stream_dep_min = dep_min
        self.valid = True

    def advance(self) -> None:
        """The clock moved (dt > 0) inside an epoch: if any stream crossed
        its byte tolerance its controller share is freed, so rebase."""
        if self.valid and self.sim.now >= self.stream_dep_min:
            self.materialize()

    # -- queries --------------------------------------------------------
    def next_completion(self) -> float:
        """Earliest finish deadline over running attempts (epoch open)."""
        running = self.sim.running
        if not running:
            return _INF
        return min(rt.fin_deadline for rt in running.values())

    def completed(self) -> list[_Running]:
        """Attempts done at ``sim.now``, sorted by tid."""
        sim = self.sim
        now = sim.now
        if self.valid:
            done = [
                rt for rt in sim.running.values() if rt.done_deadline <= now
            ]
        else:
            done = [
                rt for rt in sim.running.values()
                if rt.n_active == 0 and rt.compute_remaining <= _EPS
            ]
        done.sort(key=_by_tid)
        return done

    def attempt_done(self, rt: _Running) -> bool:
        """Doneness of one attempt at ``sim.now`` (crash-fizzle test)."""
        if self.valid:
            return rt.done_deadline <= self.sim.now
        return rt.n_active == 0 and rt.compute_remaining <= _EPS


def _by_tid(rt: _Running) -> int:
    return rt.task.tid


class FlatEngine:
    """Struct-of-arrays twin of :class:`ObjectEngine` (same contract).

    Slot = core index.  All state lives in preallocated slot-indexed
    vectors and dense ``[n_cores][n_nodes]`` grids; walking the active
    mask slot-major/node-ascending *is* the CSR ``(indptr, node)`` stream
    list the interconnect consumes.  The grids are plain Python lists:
    at realistic machine sizes (tens of cores, a handful of nodes) the
    per-call dispatch of numpy kernels costs more than the arithmetic
    itself, and scalar IEEE expressions are trivially bit-identical to
    the object engine's.  Group labels passed to the interconnect are the
    core slots — the water-fill is label-invariant, so this matches the
    object engine's tid labels bit-for-bit while keeping signatures dense
    and memoisable.
    """

    name = "flat"

    def __init__(self, sim) -> None:
        self.sim = sim
        topo = sim.topology
        nc = topo.n_cores
        # Grid width is the solver's *resource* axis: memory nodes plus,
        # on clusters, one NIC per box (stream keys may be NIC ids).
        nn = getattr(topo, "n_resources", topo.n_nodes)
        self.n_cores = nc
        self.n_nodes = nn
        self.core_socket = [topo.socket_of_core(c) for c in range(nc)]
        #: Occupied slots, ascending.  Invariant: exactly the slots whose
        #: ``slot_rt`` is set; every other slot's stream state is clean, so
        #: the per-event passes walk these instead of all ``n_cores``.
        self.busy_slots: list[int] = []
        self.slot_rt: list[_Running | None] = [None] * nc
        self.c_rem = [0.0] * nc
        self.c_deadline = [0.0] * nc
        self.fin_dl = [_INF] * nc
        self.done_dl = [_INF] * nc
        self.s_bytes = [[0.0] * nn for _ in range(nc)]
        self.s_active = [[False] * nn for _ in range(nc)]
        # Compact per-slot mirrors of ``s_active`` (node-ascending), kept
        # in sync at add/departure/remove so refresh assembles the stream
        # CSR with per-slot extends instead of grid scans.
        self.slot_nodes: list[list[int]] = [[] for _ in range(nc)]
        self.slot_cores: list[list[int]] = [[] for _ in range(nc)]
        self.slot_socks: list[list[int]] = [[] for _ in range(nc)]
        self.valid = True
        self.stream_dep_min = _INF
        #: Earliest finish deadline of the open epoch (``next_completion``).
        self.fin_min = _INF
        #: Earliest done-deadline of the open epoch; ``completed`` returns
        #: [] without touching the arrays while ``now`` is before it.
        self.done_min = _INF
        # Compact views of the open epoch (set by refresh, consumed by
        # materialize): the active set cannot change while an epoch is
        # open — add/remove materialize *first* — so these stay exact.
        self._ep_cores: list[int] = []
        self._ep_nds: list[int] = []
        self._ep_rates: list[float] = []
        self._ep_d: list[float] = []
        self.check = _check_cache_env()

    # -- membership ----------------------------------------------------
    def add(self, rt: _Running) -> None:
        self.materialize()
        slot = rt.core
        streams = rt.streams
        row_b = self.s_bytes[slot]
        row_a = self.s_active[slot]
        n_active = 0
        for n, b in streams.items():
            if b > _EPS_BYTES:
                row_b[n] = b
                row_a[n] = True
                n_active += 1
            else:
                streams[n] = 0.0
        rt.n_active = n_active
        nodes = [n for n in range(self.n_nodes) if row_a[n]]
        self.slot_nodes[slot] = nodes
        self.slot_cores[slot] = [slot] * len(nodes)
        self.slot_socks[slot] = [self.core_socket[slot]] * len(nodes)
        insort(self.busy_slots, slot)
        self.slot_rt[slot] = rt
        self.c_rem[slot] = rt.compute_remaining
        self.valid = False

    def remove(self, rt: _Running) -> None:
        self.materialize()
        slot = rt.core
        # Write the exact final state back onto the handle so probes, the
        # residue tests and `repr` diffs see what the object engine shows.
        rt.compute_remaining = self.c_rem[slot]
        row_b = self.s_bytes[slot]
        streams = rt.streams
        for n in streams:
            streams[n] = row_b[n]
        rt.n_active = len(self.slot_nodes[slot])
        self.busy_slots.remove(slot)
        self.slot_rt[slot] = None
        self.s_active[slot] = [False] * self.n_nodes
        self.s_bytes[slot] = [0.0] * self.n_nodes
        self.slot_nodes[slot] = []
        self.slot_cores[slot] = []
        self.slot_socks[slot] = []
        self.valid = False

    def clear(self) -> None:
        nn = self.n_nodes
        for slot in self.busy_slots:
            self.slot_rt[slot] = None
            self.s_active[slot] = [False] * nn
            self.s_bytes[slot] = [0.0] * nn
            self.slot_nodes[slot] = []
            self.slot_cores[slot] = []
            self.slot_socks[slot] = []
        self.busy_slots = []
        self.fin_min = self.done_min = _INF
        self.valid = False

    # -- epoch transitions ---------------------------------------------
    def on_rates_changed(self) -> None:
        self.materialize()

    def materialize(self) -> None:
        if not self.valid:
            return
        sim = self.sim
        now = sim.now
        cores = self._ep_cores
        if cores:
            nds = self._ep_nds
            rates = self._ep_rates
            ds = self._ep_d
            s_bytes = self.s_bytes
            s_active = self.s_active
            for i in range(len(cores)):
                b = rates[i] * (ds[i] - now)
                c = cores[i]
                n = nds[i]
                if b > _EPS_BYTES:
                    s_bytes[c][n] = b
                else:
                    s_bytes[c][n] = 0.0
                    s_active[c][n] = False
                    self.slot_nodes[c].remove(n)
                    self.slot_cores[c].pop()
                    self.slot_socks[c].pop()
        busy_idx = self.busy_slots
        if busy_idx:
            speed_arr = sim._core_speed
            c_deadline = self.c_deadline
            c_rem = self.c_rem
            if speed_arr is None:
                for s in busy_idx:
                    c = c_deadline[s] - now
                    c_rem[s] = c if c > _EPS else 0.0
            else:
                for s in busy_idx:
                    c = float(speed_arr[s]) * (c_deadline[s] - now)
                    c_rem[s] = c if c > _EPS else 0.0
        if self.check:
            for s in range(self.n_cores):
                row_b = self.s_bytes[s]
                row_a = self.s_active[s]
                for n in range(self.n_nodes):
                    if row_a[n] != (row_b[n] > _EPS_BYTES):
                        raise SimulationError(
                            f"active-stream mask diverged from byte state "
                            f"at t={now:.6g}"
                        )
                mirror = [n for n in range(self.n_nodes) if row_a[n]]
                if mirror != self.slot_nodes[s]:
                    raise SimulationError(
                        f"slot-node mirror diverged from active mask for "
                        f"slot {s} at t={now:.6g}: "
                        f"{self.slot_nodes[s]} vs {mirror}"
                    )
        self.valid = False

    def refresh(self) -> None:
        if self.valid:
            return
        sim = self.sim
        now = sim.now
        fin = self.fin_dl
        done = self.done_dl
        # Only busy slots get deadlines; the stale entries of idle slots
        # are never read (every query below walks the busy list).
        busy_idx = self.busy_slots
        dep_min = _INF
        ep_cores: list[int] = []
        ep_nds: list[int] = []
        ep_rates: list[float] = []
        ep_d: list[float] = []
        if busy_idx:
            speed_arr = sim._core_speed
            c_rem = self.c_rem
            c_deadline = self.c_deadline
            if speed_arr is None:
                # Division by a speed of exactly 1.0 is an IEEE no-op, so
                # this fast path is bit-identical to the general one.
                for s in busy_idx:
                    cd = now + c_rem[s]
                    c_deadline[s] = cd
                    fin[s] = cd
                    done[s] = cd - _EPS
            else:
                for s in busy_idx:
                    speed = float(speed_arr[s])
                    cd = now + c_rem[s] / speed
                    c_deadline[s] = cd
                    fin[s] = cd
                    done[s] = cd - _EPS / speed
            # Collect active streams slot-major, node-ascending: the
            # implicit-CSR order every consumer (and the memo key) sees.
            # Walking the per-slot mirrors also yields the canonical
            # first-occurrence group labels for free (one label per slot
            # with streams, in slot order).
            slot_nodes = self.slot_nodes
            sockets: list[int] = []
            canon: list[int] = []
            label = 0
            for s in busy_idx:
                nds_s = slot_nodes[s]
                if not nds_s:
                    continue
                ep_nds += nds_s
                ep_cores += self.slot_cores[s]
                sockets += self.slot_socks[s]
                canon += [label] * len(nds_s)
                label += 1
            if ep_cores:
                rates = sim.interconnect.stream_rates_canon(
                    sockets, ep_nds, canon
                ).tolist()
                factor = sim._node_bw_factor
                s_bytes = self.s_bytes
                rate_append = ep_rates.append
                d_append = ep_d.append
                if factor is not None:
                    rates = [
                        r * float(factor[n]) for r, n in zip(rates, ep_nds)
                    ]
                for r, c, n in zip(rates, ep_cores, ep_nds):
                    d = now + s_bytes[c][n] / r
                    sdd = d - _EPS_BYTES / r
                    if d > fin[c]:
                        fin[c] = d
                    if sdd > done[c]:
                        done[c] = sdd
                    if sdd < dep_min:
                        dep_min = sdd
                    rate_append(r)
                    d_append(d)
        self._ep_cores = ep_cores
        self._ep_nds = ep_nds
        self._ep_rates = ep_rates
        self._ep_d = ep_d
        self.stream_dep_min = dep_min
        if busy_idx:
            self.fin_min = min([fin[s] for s in busy_idx])
            self.done_min = min([done[s] for s in busy_idx])
        else:
            self.fin_min = self.done_min = _INF
        self.valid = True

    def advance(self) -> None:
        if self.valid and self.sim.now >= self.stream_dep_min:
            self.materialize()

    # -- queries --------------------------------------------------------
    def next_completion(self) -> float:
        return self.fin_min

    def completed(self) -> list[_Running]:
        now = self.sim.now
        slot_rt = self.slot_rt
        if self.valid:
            if self.done_min > now:
                return []
            done_dl = self.done_dl
            done = [slot_rt[s] for s in self.busy_slots if done_dl[s] <= now]
        else:
            c_rem = self.c_rem
            slot_nodes = self.slot_nodes
            done = [
                slot_rt[s]
                for s in self.busy_slots
                if c_rem[s] <= _EPS and not slot_nodes[s]
            ]
        if not done:
            return []
        done.sort(key=_by_tid)
        return done

    def attempt_done(self, rt: _Running) -> bool:
        slot = rt.core
        if self.valid:
            return self.done_dl[slot] <= self.sim.now
        return self.c_rem[slot] <= _EPS and not self.slot_nodes[slot]


#: Engine registry for ``Simulator(engine=...)``.
ENGINES = {"object": ObjectEngine, "flat": FlatEngine}

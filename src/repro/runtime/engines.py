"""The fluid engine: the simulator's drain/predict mechanics.

The :class:`~repro.runtime.simulator.Simulator` owns every *decision* of a
run — offering, dispatch, stealing, timers, faults, epochs, RNG draws —
while the question "when does which running attempt finish?" is answered
by the :class:`FlatEngine` (DESIGN.md §14).  Its state is indexed by *core
slot* (core exclusivity bounds running attempts by ``n_cores``): per-slot
compute remaining/deadline vectors and per-(slot, node) stream byte/active
grids.  Walking the busy slots yields the row-major ``(indptr, node,
bytes)`` CSR view the interconnect consumes.

The engine implements a **rate-epoch deadline drain**.  Stream rates only
change when the active set changes (start, finish, crash, fault knob), so
between such changes — one *rate epoch* — every completion instant is
known in closed form.  At ``refresh`` each stream gets an absolute
deadline ``d = now + bytes / rate`` (and compute ``cd = now + remaining /
speed``); the epoch then persists through any number of no-op timer stops
with **zero drain arithmetic**.  State is *materialized* back into byte
space (``bytes = rate * (d - now)``) only when the set actually changes,
so a task completing at its own deadline materializes to exactly 0.0
remaining bytes and 0.0 compute.

The replay oracle (:mod:`repro.verify.oracle`) re-implements the same
epoch logic independently, per attempt, and must agree to ``1e-9``.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from operator import attrgetter

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
    """One in-flight attempt.  The engine keeps the live drain state in
    its slot arrays and writes the final materialized values back onto
    ``compute_remaining``/``streams`` on removal, so probes and the fault
    injector observe an attempt's exact residue."""

    task: Task
    core: int
    socket: int
    start: float
    compute_remaining: float
    streams: dict[int, float]  # node -> remaining bytes


class FlatEngine:
    """Slot-indexed fluid state plus the epoch arithmetic (DESIGN.md §14).

    Slot = core index.  All state lives in preallocated slot-indexed
    vectors and dense ``[n_cores][n_nodes]`` grids; walking the active
    mask slot-major/node-ascending *is* the CSR ``(indptr, node)`` stream
    list the interconnect consumes.  The grids are plain Python lists:
    at realistic machine sizes (tens of cores, a handful of nodes) the
    per-call dispatch of numpy kernels costs more than the arithmetic
    itself.  Group labels passed to the interconnect are the core slots,
    canonicalised by first occurrence — the water-fill is label-invariant,
    so signatures stay dense and memoisable.

    Invariant: whenever ``valid`` is True, every busy slot carries
    deadlines from the latest :meth:`refresh` — :meth:`add`/:meth:`remove`
    materialize first and invalidate, so a never-refreshed attempt can
    never be materialized.
    """

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

    # -- membership ----------------------------------------------------
    def add(self, rt: _Running) -> None:
        self.materialize()
        slot = rt.core
        streams = rt.streams
        row_b = self.s_bytes[slot]
        row_a = self.s_active[slot]
        for n, b in streams.items():
            if b > _EPS_BYTES:
                row_b[n] = b
                row_a[n] = True
            else:
                streams[n] = 0.0
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
        # Write the exact final state back onto the handle so probes and
        # the fault injector see the attempt's residue.
        rt.compute_remaining = self.c_rem[slot]
        row_b = self.s_bytes[slot]
        streams = rt.streams
        for n in streams:
            streams[n] = row_b[n]
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
        done.sort(key=attrgetter("task.tid"))
        return done

    def attempt_done(self, rt: _Running) -> bool:
        slot = rt.core
        if self.valid:
            return self.done_dl[slot] <= self.sim.now
        return self.c_rem[slot] <= _EPS and not self.slot_nodes[slot]


#: Kept only as the import point of ``perfbench/tracer.py``.
ENGINES = {"flat": FlatEngine}

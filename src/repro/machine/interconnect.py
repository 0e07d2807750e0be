"""Bandwidth/latency model of the NUMA interconnect with contention.

The simulator charges a task's memory traffic as fluid *streams*: one stream
per (task, memory node) pair.  The interconnect answers one question: given
which streams are active right now, at what rate (bytes per time unit) does
each stream progress?

Model (processor sharing per memory controller):

* each memory node ``n`` has a peak bandwidth ``B_n`` (from the topology);
* a stream from socket ``s`` to node ``n`` has a *distance efficiency*
  ``e = bandwidth_factor(s, n) = local_dist / dist(s, n)`` — remote links
  move fewer bytes per unit time;
* a node serving ``k`` concurrent streams gives each an equal share of its
  controller, so the stream's rate is ``e * B_n / k``.

This captures the two first-order NUMA effects the paper exploits: remote
accesses are slower (distance factor), and piling data on one node serialises
all its consumers (contention) — the reason locality-aware placement must
*also* balance data across nodes to win.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import csolve
from .topology import NumaTopology


@dataclass(frozen=True)
class StreamKey:
    """One fluid stream: a task (``group``) on ``socket`` reading/writing
    memory node ``node``.  Streams with the same group belong to the same
    running task and share that task's core bandwidth."""

    socket: int
    node: int
    group: int = 0


def _waterfill(caps: np.ndarray, budget: float) -> np.ndarray:
    """Max-min fair rates under per-stream caps and a total budget.

    If the caps sum to less than the budget every stream runs at its cap;
    otherwise streams are filled lowest-cap first, each receiving at most
    an equal share of what remains (the classic water-filling recursion).
    """
    total = caps.sum()
    if total <= budget:
        return caps.copy()
    rates = np.empty_like(caps)
    order = np.argsort(caps, kind="stable")
    remaining = budget
    left = len(caps)
    for i in order:
        share = remaining / left
        r = caps[i] if caps[i] < share else share
        rates[i] = r
        remaining -= r
        left -= 1
    return rates


class Interconnect:
    """Computes instantaneous stream rates under processor sharing.

    Parameters
    ----------
    topology:
        Machine description (distances, per-node peak bandwidth).
    remote_penalty_exp:
        Exponent applied to the distance efficiency; ``1.0`` is the plain
        SLIT reading, larger values model machines whose remote links
        degrade faster than the SLIT ratio suggests (ablation knob).
    latency_cost_per_access:
        Fixed time charged once per (task, node) stream, scaled by
        ``dist/local``; models the latency component of an access burst.
    """

    def __init__(
        self,
        topology: NumaTopology,
        remote_penalty_exp: float = 1.0,
        latency_cost_per_access: float = 0.0,
        link_fraction: float | None = 0.45,
        core_fraction: float | None = 0.35,
    ) -> None:
        self.topology = topology
        self.remote_penalty_exp = float(remote_penalty_exp)
        self.latency_cost_per_access = float(latency_cost_per_access)
        if link_fraction is not None and link_fraction <= 0:
            raise ValueError("link_fraction must be positive or None")
        #: Each socket's off-socket (QPI/BCS) link bandwidth as a fraction
        #: of a node's local bandwidth; all remote streams touching the
        #: socket (either side) share it.  ``None`` disables the constraint.
        self.link_fraction = link_fraction
        if core_fraction is not None and core_fraction <= 0:
            raise ValueError("core_fraction must be positive or None")
        #: A single core's achievable memory bandwidth as a fraction of a
        #: node's peak (one core cannot saturate a memory controller; with
        #: the default 0.35 about three streaming cores do).  All streams
        #: of one task share this budget.  ``None`` disables the constraint.
        self.core_fraction = core_fraction
        n = topology.n_sockets
        # The solver arbitrates *resources*: the per-socket memory
        # controllers, plus (on clusters) one NIC per box appended at
        # resource ids >= n_sockets.  On a single box the resource axis is
        # exactly the node axis and nothing below changes shape.
        n_res = getattr(topology, "n_resources", topology.n_nodes)
        res_bw = np.asarray(
            getattr(topology, "resource_bandwidth", topology.node_bandwidth),
            dtype=np.float64,
        )
        # Precompute efficiency matrix eff[socket, resource] in [0, 1].
        eff = np.empty((n, n_res), dtype=np.float64)
        for s in range(n):
            for m in range(n_res):
                eff[s, m] = topology.bandwidth_factor(s, m) ** self.remote_penalty_exp
        self._eff = eff
        self._bw = res_bw
        self._link_bw = (
            None
            if link_fraction is None
            else res_bw * float(link_fraction)
        )
        # Rate memo (DESIGN.md §14): the water-fill result depends only on
        # the *set* of active streams (sockets, nodes, group partition) —
        # never on remaining bytes — and every model parameter above is
        # frozen after construction.  Steady-state simulations re-pose the
        # same set over and over, so memoising by the raw array signature
        # turns most refreshes into a dict lookup.  Cached arrays are
        # returned read-only and shared; callers must not mutate them.
        self._rate_cache: dict[tuple[bytes, bytes, bytes], np.ndarray] = {}
        self.rate_cache_hits = 0
        self.rate_cache_misses = 0
        # Python-scalar mirrors of the model arrays for the solver's hot
        # path (indexing a list of floats is ~10x cheaper than indexing a
        # numpy array element-wise).
        self._eff_l = [list(map(float, row)) for row in eff]
        self._bw_l = [float(b) for b in self._bw]
        self._link_bw_l = (
            None if self._link_bw is None
            else [float(b) for b in self._link_bw]
        )
        # Optional C twin of ``_solve`` (bit-identical; see csolve.py).
        # Flat contiguous model buffers are pre-staged so each miss only
        # converts the per-call stream lists.
        self._cfn = csolve.load()
        self._c_bw = np.ascontiguousarray(self._bw, dtype=np.float64)
        self._c_eff = np.ascontiguousarray(eff, dtype=np.float64).ravel()
        self._c_link = (
            None
            if self._link_bw is None
            else np.ascontiguousarray(self._link_bw, dtype=np.float64)
        )
        self._c_link_ptr = (
            None if self._c_link is None else self._c_link.ctypes.data
        )
        self._c_cf = -1.0 if core_fraction is None else float(core_fraction)
        # Reusable per-call scratch (grown on demand): list->buffer fills
        # are single C-level copies, much cheaper than fresh np.array()
        # allocations per miss.
        self._c_scratch_n = 0
        self._c_s = self._c_nd = self._c_g = self._c_out = None

    def efficiency(self, socket: int, node: int) -> float:
        """Distance efficiency of a socket->node stream (1.0 = local)."""
        return float(self._eff[socket, node])

    def access_latency(self, socket: int, node: int) -> float:
        """Fixed start-up cost of one stream (0 unless configured).

        ``node`` may be a NIC resource id on clusters; the network's
        latency is charged at the machine diameter (the farthest socket
        pair) — a message crosses the whole fabric.
        """
        if self.latency_cost_per_access == 0.0:
            return 0.0
        if node >= self.topology.n_sockets:
            d = self.topology.max_distance()
            local = float(self.topology.distance[socket, socket])
        else:
            d = self.topology.dist(socket, node)
            local = self.topology.dist(node, node)
        return self.latency_cost_per_access * d / local

    def stream_rates(self, streams: list[StreamKey]) -> np.ndarray:
        """Instantaneous rate of each active stream, aligned with input.

        Max-min fair allocation (progressive filling) under three families
        of constraints:

        * per-stream cap ``efficiency * B_n`` — a single stream cannot beat
          its distance-degraded point-to-point bandwidth;
        * per-node budget ``B_n`` — the memory controller;
        * per-socket link budget ``link_fraction * B_s`` — all *remote*
          streams entering or leaving a socket share its interconnect link
          (this is what makes scattered placements pay an aggregate price,
          not just a per-stream one);
        * per-task budget ``core_fraction * B`` — all streams of one task
          (= one core) share the core's achievable bandwidth.

        All unfrozen streams grow at the same rate; when a resource
        saturates, its streams freeze; bandwidth they cannot absorb keeps
        flowing to the others (water-filling).
        """
        if not streams:
            return np.empty(0, dtype=np.float64)
        sockets = [s.socket for s in streams]
        nodes = [s.node for s in streams]
        groups = [s.group for s in streams]
        return self.stream_rates_lists(sockets, nodes, groups)

    def stream_rates_arrays(
        self,
        sockets: np.ndarray,
        nodes: np.ndarray,
        groups: np.ndarray,
    ) -> np.ndarray:
        """Array-native :meth:`stream_rates` (one int64 entry per stream).

        Identical arithmetic, with no :class:`StreamKey` objects built.
        The result is *label-invariant* in ``groups``: only the partition
        they induce matters, so callers may pass task ids, core ids, or
        any other stable labels.  May return a
        shared read-only array (the rate memo) — copy before mutating.
        """
        return self.stream_rates_lists(
            sockets.tolist(), nodes.tolist(), groups.tolist()
        )

    def stream_rates_lists(
        self,
        sockets: list[int],
        nodes: list[int],
        groups: list[int],
    ) -> np.ndarray:
        """List-native allocation core behind both rate entry points.

        Plain python lists end to end: at typical active-set sizes (tens
        of streams) interpreter-level loops beat numpy dispatch, and tuple
        keys hash faster than array round-trips.  May return a shared
        read-only array (the rate memo) — copy before mutating.
        """
        n = len(nodes)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        # Canonical memo key: rates are label-invariant in ``groups``, so
        # relabel by first occurrence before hashing.  Two epochs posing
        # the same logical stream pattern under different task ids or on
        # different cores then share one entry.
        first: dict[int, int] = {}
        canon = [0] * n
        for i, g in enumerate(groups):
            c = first.get(g)
            if c is None:
                c = len(first)
                first[g] = c
            canon[i] = c
        return self.stream_rates_canon(sockets, nodes, canon)

    def stream_rates_canon(
        self,
        sockets: list[int],
        nodes: list[int],
        canon: list[int],
    ) -> np.ndarray:
        """Rate allocation for *pre-canonicalised* group labels.

        ``canon`` must already be a first-occurrence relabel (0, 1, 2, …
        in stream order) — the flat engine produces labels in that shape
        for free while walking slots, so it skips the relabel pass of
        :meth:`stream_rates_lists`.  May return a shared read-only array
        (the rate memo) — copy before mutating.
        """
        key = (tuple(sockets), tuple(nodes), tuple(canon))
        cached = self._rate_cache.get(key)
        if cached is not None:
            self.rate_cache_hits += 1
            return cached
        self.rate_cache_misses += 1
        rates = None
        if self._cfn is not None:
            rates = self._solve_c(sockets, nodes, canon)
        if rates is None:
            rates = self._solve(sockets, nodes, canon)
        if len(self._rate_cache) >= 8192:  # bound the memo footprint
            self._rate_cache.clear()
        rates.setflags(write=False)
        self._rate_cache[key] = rates
        return rates

    def _solve_c(
        self,
        sockets: list[int],
        nodes: list[int],
        groups: list[int],
    ) -> np.ndarray | None:
        """Run the compiled solver; None on capacity overflow (fallback)."""
        n = len(nodes)
        if n > self._c_scratch_n:
            cap = max(2 * n, 256)
            self._c_s = np.empty(cap, dtype=np.int64)
            self._c_nd = np.empty(cap, dtype=np.int64)
            self._c_g = np.empty(cap, dtype=np.int64)
            self._c_out = np.empty(cap, dtype=np.float64)
            self._c_scratch_n = cap
        s, nd, g, out = self._c_s, self._c_nd, self._c_g, self._c_out
        s[:n] = sockets
        nd[:n] = nodes
        g[:n] = groups
        ret = self._cfn(
            n,
            s.ctypes.data,
            nd.ctypes.data,
            g.ctypes.data,
            len(self._bw_l),
            self.topology.n_sockets,
            self._c_bw.ctypes.data,
            self._c_eff.ctypes.data,
            self._c_link_ptr,
            self._c_cf,
            out.ctypes.data,
        )
        if ret != 0:
            return None
        return out[:n].copy()

    def _solve(
        self,
        sockets: list[int],
        nodes: list[int],
        groups: list[int],
    ) -> np.ndarray:
        """Progressive-filling solver over *stream equivalence classes*.

        The allocation is symmetric: two groups (tasks) whose streams form
        the same multiset of ``(socket, node)`` pairs are exchangeable, as
        are two same-pair streams within one group — the deterministic
        fill gives them identical rates at every pass.  So the fill runs
        over collapsed classes ``(group-signature, socket, node)`` with
        multiplicity weights, which shrinks a ~100-stream problem (dozens
        of identical stencil tasks) to a handful of classes, then expands
        the class rates back onto the input streams.  Pure python scalar
        arithmetic with small-int ids and list-indexed tallies throughout:
        at these sizes per-call numpy dispatch overhead and dict-of-tuple
        hashing cost far more than the arithmetic itself.

        ``groups`` must be canonical first-occurrence labels ``0..G-1``
        (as produced by :meth:`stream_rates_lists`).
        """
        n = len(nodes)
        # Group signatures: the multiset of (socket, node) pairs per
        # group, mapped to dense small-int signature ids.
        members: list[list[tuple[int, int]]] = []
        for i in range(n):
            g = groups[i]
            if g == len(members):
                members.append([])
            members[g].append((sockets[i], nodes[i]))
        sig_id: dict[tuple, int] = {}
        sig_of_group: list[int] = []
        sig_tuples: list[tuple] = []
        sig_weight: list[int] = []  # identical groups per signature
        for mem in members:
            sig = tuple(sorted(mem))
            sid = sig_id.get(sig)
            if sid is None:
                sid = len(sig_tuples)
                sig_id[sig] = sid
                sig_tuples.append(sig)
                sig_weight.append(0)
            sig_weight[sid] += 1
            sig_of_group.append(sid)
        # Classes: one per (signature, socket, node) with the in-group
        # multiplicity; w_total = streams of the whole class.
        eff = self._eff_l
        bw = self._bw_l
        cls_sid: list[int] = []
        cls_socket: list[int] = []
        cls_node: list[int] = []
        cls_per_group: list[int] = []
        cls_weight: list[int] = []
        cls_cap: list[float] = []
        class_index: dict[tuple[int, int, int], int] = {}
        for sid, sig in enumerate(sig_tuples):
            counts: dict[tuple[int, int], int] = {}
            for sn in sig:
                counts[sn] = counts.get(sn, 0) + 1
            w = sig_weight[sid]
            for (s, nd), c in counts.items():
                class_index[(sid, s, nd)] = len(cls_sid)
                cls_sid.append(sid)
                cls_socket.append(s)
                cls_node.append(nd)
                cls_per_group.append(c)
                cls_weight.append(w * c)
                cls_cap.append(eff[s][nd] * bw[nd])

        n_classes = len(cls_sid)
        n_sig = len(sig_tuples)
        n_nodes = len(bw)
        rem_node = list(bw)
        link_bw = self._link_bw_l
        has_link = link_bw is not None
        rem_link = list(link_bw) if has_link else []
        n_link = len(rem_link)
        has_core = self.core_fraction is not None
        if has_core:
            # Core budget scaled by the local node bandwidth of the
            # group's socket (max over its sockets, matching the
            # per-stream formulation).
            cf = self.core_fraction
            core_budget0 = [
                cf * max(bw[s] for s, _nd in sig) for sig in sig_tuples
            ]
            rem_core = list(core_budget0)
        eps = 1e-12
        node_floor = [eps * b for b in bw]
        if has_link:
            link_floor = [eps * (b if b > 1.0 else 1.0) for b in link_bw]
        if has_core:
            core_floor = [eps * (b if b > 1.0 else 1.0) for b in core_budget0]

        # One mutable record per class, iterated directly (no index
        # lookups in the fill loop):
        # [rate, cap, node, remote_socket (-1 = local / no link), sid,
        #  weight, per_group]
        recs = [
            [
                0.0,
                cls_cap[ci],
                cls_node[ci],
                cls_socket[ci]
                if has_link and cls_socket[ci] != cls_node[ci]
                else -1,
                cls_sid[ci],
                cls_weight[ci],
                cls_per_group[ci],
            ]
            for ci in range(n_classes)
        ]
        active = recs

        inf = math.inf
        n_sock = self.topology.n_sockets
        for _ in range(2 * n_classes + 2 * n_sock + 2):
            if not active:
                break
            # Uniform growth delta limited by the tightest constraint.
            node_users = [0] * n_nodes
            link_users = [0] * n_link
            sig_users = [0] * n_sig
            delta = inf
            for c in active:
                head = c[1] - c[0]
                if head < delta:
                    delta = head
                nd = c[2]
                w = c[5]
                node_users[nd] += w
                rs = c[3]
                if rs >= 0:
                    link_users[rs] += w
                    link_users[nd] += w
                if has_core:
                    sig_users[c[4]] += c[6]
            for nd in range(n_nodes):
                u = node_users[nd]
                if u:
                    d = rem_node[nd] / u
                    if d < delta:
                        delta = d
            for s in range(n_link):
                u = link_users[s]
                if u:
                    d = rem_link[s] / u
                    if d < delta:
                        delta = d
            if has_core:
                for sid in range(n_sig):
                    u = sig_users[sid]
                    if u:
                        d = rem_core[sid] / u
                        if d < delta:
                            delta = d
            if delta < 0.0:
                delta = 0.0
            for nd in range(n_nodes):
                u = node_users[nd]
                if u:
                    rem_node[nd] -= delta * u
            for s in range(n_link):
                u = link_users[s]
                if u:
                    rem_link[s] -= delta * u
            if has_core:
                for sid in range(n_sig):
                    u = sig_users[sid]
                    if u:
                        rem_core[sid] -= delta * u
            # Apply the growth and freeze in one sweep: cap reached or
            # any used resource saturated.
            still: list[list] = []
            for c in active:
                r = c[0] + delta
                c[0] = r
                if r >= c[1] - eps:
                    continue
                nd = c[2]
                if rem_node[nd] <= node_floor[nd]:
                    continue
                rs = c[3]
                if rs >= 0 and (
                    rem_link[rs] <= link_floor[rs]
                    or rem_link[nd] <= link_floor[nd]
                ):
                    continue
                if has_core and rem_core[c[4]] <= core_floor[c[4]]:
                    continue
                still.append(c)
            if len(still) == len(active):
                break  # numerical stall guard: freeze everything
            active = still

        # Expand class rates back onto streams; every stream ends with a
        # strictly positive rate.
        out = [0.0] * n
        for i in range(n):
            r = recs[class_index[(sig_of_group[groups[i]], sockets[i], nodes[i])]][0]
            out[i] = r if r > eps else eps
        return np.array(out, dtype=np.float64)

    def best_case_time(self, socket: int, bytes_per_node: np.ndarray) -> float:
        """Uncontended time for a task on ``socket`` to move its traffic.

        Used by cost estimators (not by the simulator, which applies real
        contention): sum over nodes of bytes / (B_n * efficiency).
        """
        t = 0.0
        for node, nbytes in enumerate(np.asarray(bytes_per_node)):
            if nbytes > 0:
                t += float(nbytes) / (self._bw[node] * self._eff[socket, node])
                t += self.access_latency(socket, node)
        return t

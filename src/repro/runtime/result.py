"""Simulation outcome: per-task records and aggregate NUMA statistics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class TaskRecord:
    """Execution record of one task attempt.

    ``attempt`` counts earlier failed attempts of the same task (0 = first
    try); ``outcome`` is ``"ok"`` for the completing attempt and a short
    reason (``"crash"``, ``"core-failure"``) for attempts killed by an
    injected fault — those land in
    :attr:`SimulationResult.crashed_records`, never in ``records``.
    """

    tid: int
    name: str
    socket: int
    core: int
    start: float
    finish: float
    local_bytes: float = 0.0
    remote_bytes: float = 0.0
    attempt: int = 0
    outcome: str = "ok"
    #: Bytes that crossed the network (cluster runs; a subset of
    #: ``remote_bytes``, zero on a single box).
    net_bytes: float = 0.0

    @property
    def duration(self) -> float:
        return self.finish - self.start

    @property
    def remote_fraction(self) -> float:
        total = self.local_bytes + self.remote_bytes
        return self.remote_bytes / total if total > 0 else 0.0


@dataclass(frozen=True)
class Message:
    """One explicit inter-box message of a cluster run.

    A task reading bytes that live on another box *receives* them over the
    network: the simulator re-keys that traffic onto the source box's NIC
    resource, so ``send`` marks when the transfer started contending on
    the wire (the reader's start) and ``recv`` when the last byte landed
    (the reader's finish — the fluid stream drains over the whole
    attempt).  Crashed attempts drop their in-flight messages; only
    completed transfers appear in :attr:`SimulationResult.messages`.
    """

    tid: int
    src_box: int
    dst_box: int
    nbytes: float
    send: float
    recv: float

    @property
    def duration(self) -> float:
        return self.recv - self.send


@dataclass(eq=False)
class SimulationResult:
    """Everything a run produced.

    ``bytes_by_pair[s, n]`` is the memory traffic issued by tasks running
    on socket ``s`` against node ``n`` — the matrix from which locality
    metrics derive.
    """

    program_name: str
    scheduler_name: str
    machine_name: str
    makespan: float
    records: list[TaskRecord]
    bytes_by_pair: np.ndarray
    busy_time_per_socket: np.ndarray
    steals: int = 0
    parked_tasks: int = 0
    touch_count: int = 0
    bytes_on_node: np.ndarray = field(default_factory=lambda: np.zeros(0))
    seed: int = 0
    # Resilience accounting (all zero/empty on fault-free runs).
    crashed_records: list[TaskRecord] = field(default_factory=list)
    reexecutions: int = 0
    wasted_work: float = 0.0
    cores_failed: int = 0
    faults_injected: int = 0
    # Cluster runs only (both stay empty/None on a single box):
    # ``bytes_by_link[src_box, dst_box]`` is the network traffic matrix,
    # ``messages`` the completed inter-box transfers in receive order.
    bytes_by_link: np.ndarray | None = None
    messages: list[Message] = field(default_factory=list)
    messages_dropped: int = 0
    # Observability (populated only on instrumented runs): the retained
    # event stream, how many older events the sink dropped, and the
    # metrics-registry snapshot (see :mod:`repro.observability`);
    # exporters consume these.
    events: list = field(default_factory=list)
    events_dropped: int = 0
    metrics: dict | None = None

    # ------------------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        return len(self.records)

    @property
    def total_traffic(self) -> float:
        return float(self.bytes_by_pair.sum())

    @property
    def local_bytes(self) -> float:
        return float(np.trace(self.bytes_by_pair))

    @property
    def remote_bytes(self) -> float:
        return self.total_traffic - self.local_bytes

    @property
    def remote_fraction(self) -> float:
        """Fraction of traffic served from a remote node (0 = all local)."""
        total = self.total_traffic
        return self.remote_bytes / total if total > 0 else 0.0

    @property
    def net_bytes(self) -> float:
        """Total bytes moved across the network (0 on a single box)."""
        if self.bytes_by_link is None:
            return 0.0
        return float(self.bytes_by_link.sum())

    @property
    def net_fraction(self) -> float:
        """Fraction of all traffic that crossed the network."""
        total = self.total_traffic
        return self.net_bytes / total if total > 0 else 0.0

    def mean_access_distance(self, distance: np.ndarray) -> float:
        """Traffic-weighted mean SLIT distance of accesses."""
        total = self.total_traffic
        if total == 0:
            return 0.0
        return float((self.bytes_by_pair * np.asarray(distance)).sum() / total)

    def completion_order(self) -> list[int]:
        """Task ids sorted by finish time (ties by id) — a legal execution
        order the sequential executor can replay."""
        return [r.tid for r in sorted(self.records, key=lambda r: (r.finish, r.tid))]

    def tasks_per_socket(self) -> np.ndarray:
        n = len(self.busy_time_per_socket)
        counts = np.zeros(n, dtype=np.int64)
        for r in self.records:
            counts[r.socket] += 1
        return counts

    def load_imbalance(self) -> float:
        """max/mean of per-socket busy time (1.0 = perfectly balanced)."""
        busy = self.busy_time_per_socket
        mean = busy.mean()
        return float(busy.max() / mean) if mean > 0 else 1.0

    def summary(self) -> str:
        text = (
            f"{self.program_name} / {self.scheduler_name} @ {self.machine_name}: "
            f"makespan={self.makespan:.4g} remote={self.remote_fraction:.1%} "
            f"imbalance={self.load_imbalance():.2f} steals={self.steals}"
        )
        if self.bytes_by_link is not None:
            text += (
                f" net={self.net_fraction:.1%} msgs={len(self.messages)}"
            )
        if self.reexecutions or self.cores_failed:
            text += (
                f" reexec={self.reexecutions} wasted={self.wasted_work:.4g}"
                f" cores_failed={self.cores_failed}"
            )
        return text

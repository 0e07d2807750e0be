"""Supervised worker pool: crash isolation for simulation jobs.

Each worker is a dedicated OS process joined to the supervisor by a pipe.
Running jobs out-of-process is what turns a hard worker death (SIGKILL,
segfault, OOM-kill) into an *observable event* instead of a lost server:
the supervisor polls the pipe and the process liveness together, so every
dispatch resolves to exactly one of four outcomes:

``ok``         the worker returned a result dict;
``error``      the job itself failed with a library error (deterministic
               — retrying is pointless, the job is failed);
``crashed``    the worker process died mid-job (retryable: the job may be
               poison, or the worker may have been killed externally);
``timeout``    the job exceeded its deadline and the worker was killed
               (the only way to reclaim a wedged worker).

After ``crashed``/``timeout`` the slot's process is dead; the pool
replaces it with a fresh worker before returning, so the slot is always
usable again immediately.

``run`` is blocking by design — the asyncio service calls it via
``asyncio.to_thread``, one thread per busy slot.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
from dataclasses import dataclass
from typing import Any

from ..errors import ServiceError
from .jobs import execute_spec

#: Pipe poll granularity; bounds both crash-detection and deadline latency.
_POLL_S = 0.02


def _worker_main(conn) -> None:
    """Worker process loop: recv spec dict, run it, send outcome dict."""
    from ..errors import ReproError

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        try:
            result = execute_spec(msg)
            out = {"ok": True, "result": result}
        except ReproError as exc:
            out = {"ok": False, "error": type(exc).__name__,
                   "message": str(exc)}
        except Exception as exc:  # defensive: never kill the loop silently
            out = {"ok": False, "error": "InternalError",
                   "message": f"{type(exc).__name__}: {exc}"}
        try:
            conn.send(out)
        except (BrokenPipeError, OSError):
            return


@dataclass
class Outcome:
    """Result of one dispatch (see module docstring for the kinds)."""

    kind: str  # "ok" | "error" | "crashed" | "timeout"
    payload: dict[str, Any] | None = None
    exitcode: int | None = None


class _Worker:
    __slots__ = ("process", "conn", "_kill_lock", "_killed")

    def __init__(self, ctx) -> None:
        parent, child = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main, args=(child,), daemon=True
        )
        self.process.start()
        child.close()
        self.conn = parent
        self._kill_lock = threading.Lock()
        self._killed = False

    @property
    def pid(self) -> int:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.is_alive()

    def stop(self, grace_s: float = 1.0) -> None:
        """Ask nicely, then kill."""
        if self.process.is_alive():
            try:
                self.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            self.process.join(timeout=grace_s)
        self.kill()

    def kill(self) -> None:
        """Kill and close, once: ``stop()`` on the service thread and a
        job thread noticing the dead pipe may both get here."""
        with self._kill_lock:
            if self._killed:
                return
            self._killed = True
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=5.0)
            self.conn.close()


class WorkerPool:
    """Fixed number of supervised slots; dead workers are replaced."""

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ServiceError(f"need >= 1 worker, got {n_workers}")
        self.n_workers = n_workers
        # Never plain fork: workers are (re)started from asyncio.to_thread
        # worker threads, and forking a multi-threaded process can leave
        # the child holding locks (import/logging/malloc) whose owners
        # don't exist on its side — a deadlock on the child's first
        # import.  forkserver forks from a dedicated single-threaded
        # helper instead (preloaded with the simulation modules so worker
        # start stays cheap); spawn is the portable fallback.
        try:
            self._ctx = mp.get_context("forkserver")
            self._ctx.set_forkserver_preload(["repro.service.jobs"])
        except ValueError:  # platform without forkserver
            self._ctx = mp.get_context("spawn")
        self._workers: list[_Worker | None] = [None] * n_workers
        self._started = False
        #: Workers replaced after a crash/timeout (observability).
        self.replacements = 0

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        for slot in range(self.n_workers):
            self._workers[slot] = _Worker(self._ctx)
        self._started = True

    def stop(self) -> None:
        # Flag first: a job thread whose pipe is closed below must see a
        # stopped pool and not respawn a worker into it.
        self._started = False
        for slot, worker in enumerate(self._workers):
            if worker is not None:
                worker.stop()
                self._workers[slot] = None

    def pids(self) -> list[int]:
        return [w.pid for w in self._workers if w is not None and w.alive()]

    def _crashed(self, slot: int, exitcode: int | None) -> Outcome:
        """Report a dead worker, respawning it unless the pool stopped."""
        if self._started:
            self._replace(slot)
        return Outcome("crashed", exitcode=exitcode)

    def _replace(self, slot: int) -> None:
        worker = self._workers[slot]
        if worker is not None:
            worker.kill()
        self._workers[slot] = _Worker(self._ctx)
        self.replacements += 1

    # -- dispatch --------------------------------------------------------
    def run(
        self, slot: int, spec_dict: dict[str, Any],
        timeout_s: float | None = None,
    ) -> Outcome:
        """Run one job on ``slot``'s worker; blocking (use a thread).

        Always leaves the slot with a live worker, whatever happened —
        unless :meth:`stop` ran meanwhile: the job then resolves to
        ``crashed`` and the slot stays empty.
        """
        if not self._started:
            raise ServiceError("pool is not started")
        worker = self._workers[slot]
        if worker is None or not worker.alive():
            # A worker can die between jobs (external kill): heal silently.
            self._replace(slot)
            worker = self._workers[slot]
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        try:
            worker.conn.send(spec_dict)
        except (BrokenPipeError, OSError):
            return self._crashed(slot, worker.process.exitcode)
        while True:
            try:
                if worker.conn.poll(_POLL_S):
                    payload = worker.conn.recv()
                    if payload.get("ok"):
                        return Outcome("ok", payload=payload["result"])
                    return Outcome("error", payload=payload)
            except (EOFError, OSError):
                # Also the path when stop() closed this pipe under us.
                return self._crashed(slot, worker.process.exitcode)
            if not worker.alive():
                # Drain a result that raced the death of its sender.
                try:
                    if worker.conn.poll(0):
                        payload = worker.conn.recv()
                        if payload.get("ok"):
                            return Outcome("ok", payload=payload["result"])
                        return Outcome("error", payload=payload)
                except (EOFError, OSError):
                    pass
                return self._crashed(slot, worker.process.exitcode)
            if deadline is not None and time.monotonic() > deadline:
                self._replace(slot)
                return Outcome("timeout")

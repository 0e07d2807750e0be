"""Service failure paths (DESIGN.md §12 robustness state machine).

Covers every transition the issue demands: worker SIGKILL mid-job
(retry + re-dispatch), deadline expiry (running and queued), queue-full
shedding, duplicate-submission coalescing, poison-job quarantine, and
the SIGTERM drain / journal-resume round trip.
"""

import asyncio
import os
import signal
import time

import pytest

from repro.errors import QueueFullError, PoisonJobError, ShuttingDownError
from repro.service import (
    JobState,
    ServiceConfig,
    SimulationService,
)

TINY = {"n_blocks": 6, "block_elems": 1024, "iterations": 2}


def tiny_spec(seed=0, **overrides):
    spec = {"app": "nstream", "policy": "las", "seed": seed,
            "app_params": dict(TINY)}
    spec.update(overrides)
    return spec


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=120))


async def make_service(**config_overrides):
    defaults = dict(workers=1, queue_capacity=8,
                    retry_base_s=0.02, retry_max_s=0.2)
    defaults.update(config_overrides)
    service = SimulationService(ServiceConfig(**defaults))
    await service.start()
    return service


class TestHappyPath:
    def test_submit_run_done_and_cache_hit(self, tmp_path):
        async def scenario():
            service = await make_service(data_dir=tmp_path)
            try:
                record = service.submit(tiny_spec(seed=1))
                assert record.state == JobState.QUEUED
                record = await service.wait(record.job_id)
                assert record.state == JobState.DONE
                assert record.result["makespan"] > 0
                # same canonical request -> served from cache, new job id
                dup = service.submit(tiny_spec(seed=1))
                assert dup.state == JobState.DONE
                assert dup.cached
                assert dup.job_id != record.job_id
                assert dup.result == record.result
                stats = service.stats()
                assert stats["counters"]["service.cache.hits"] == 1
                return True
            finally:
                await service.stop()

        assert run(scenario())

    def test_sim_error_fails_without_retry(self):
        async def scenario():
            service = await make_service()
            try:
                # unknown scheduler kwarg -> deterministic library error
                record = service.submit(
                    tiny_spec(seed=2, sched_kwargs={"bogus_kwarg": 1})
                )
                record = await service.wait(record.job_id)
                assert record.state == JobState.FAILED
                assert record.attempts == 1  # deterministic: no retry
                assert record.error
                return True
            finally:
                await service.stop()

        assert run(scenario())


class TestWorkerCrash:
    def test_sigkill_mid_job_retried_to_completion(self):
        async def scenario():
            service = await make_service(workers=1)
            try:
                record = service.submit(
                    tiny_spec(seed=3, chaos={"sleep_s": 0.6})
                )
                # wait until the job is actually on the worker, then murder it
                for _ in range(200):
                    if record.state == JobState.RUNNING:
                        break
                    await asyncio.sleep(0.01)
                assert record.state == JobState.RUNNING
                (pid,) = service.pool.pids()
                os.kill(pid, signal.SIGKILL)
                record = await service.wait(record.job_id)
                assert record.state == JobState.DONE
                assert record.crashes == 1
                assert record.attempts == 2
                counters = service.stats()["counters"]
                assert counters["service.retries"] == 1
                assert counters["service.workers.crashed"] == 1
                assert service.pool.replacements >= 1
                return True
            finally:
                await service.stop()

        assert run(scenario())

    def test_worker_killed_between_jobs_heals_silently(self):
        async def scenario():
            service = await make_service(workers=1)
            try:
                (pid,) = service.pool.pids()
                os.kill(pid, signal.SIGKILL)
                time.sleep(0.05)
                record = service.submit(tiny_spec(seed=4))
                record = await service.wait(record.job_id)
                assert record.state == JobState.DONE
                assert record.crashes == 0  # job never saw the dead worker
                return True
            finally:
                await service.stop()

        assert run(scenario())


class TestDeadlines:
    def test_running_job_killed_at_deadline(self):
        async def scenario():
            service = await make_service(workers=1)
            try:
                record = service.submit(
                    tiny_spec(seed=5, chaos={"sleep_s": 30.0},
                              deadline_s=0.3)
                )
                t0 = time.monotonic()
                record = await service.wait(record.job_id)
                elapsed = time.monotonic() - t0
                assert record.state == JobState.FAILED
                assert "deadline" in record.error
                assert elapsed < 5.0  # killed, not waited out
                # the worker that ran it was replaced and still serves
                follow_up = service.submit(tiny_spec(seed=6))
                follow_up = await service.wait(follow_up.job_id)
                assert follow_up.state == JobState.DONE
                return True
            finally:
                await service.stop()

        assert run(scenario())

    def test_deadline_expired_while_queued_is_shed(self):
        async def scenario():
            service = await make_service(workers=1)
            try:
                # occupy the only worker...
                blocker = service.submit(
                    tiny_spec(seed=7, chaos={"sleep_s": 0.6})
                )
                # ...so this one's deadline burns out in the queue
                stale = service.submit(tiny_spec(seed=8, deadline_s=0.05))
                stale = await service.wait(stale.job_id)
                assert stale.state == JobState.SHED
                assert "queued" in stale.error
                blocker = await service.wait(blocker.job_id)
                assert blocker.state == JobState.DONE
                return True
            finally:
                await service.stop()

        assert run(scenario())


class TestBackpressure:
    def test_queue_full_sheds_with_retry_after(self):
        async def scenario():
            service = await make_service(workers=1, queue_capacity=1)
            try:
                running = service.submit(
                    tiny_spec(seed=9, chaos={"sleep_s": 0.5})
                )
                # let the worker pick it up so the queue is truly empty
                for _ in range(100):
                    if running.state == JobState.RUNNING:
                        break
                    await asyncio.sleep(0.01)
                service.submit(tiny_spec(seed=10))  # fills the queue
                with pytest.raises(QueueFullError) as info:
                    service.submit(tiny_spec(seed=11))
                assert info.value.retry_after_s > 0
                counters = service.stats()["counters"]
                assert counters["service.jobs.shed"] == 1
                return True
            finally:
                await service.stop()

        assert run(scenario())

    def test_rate_limit_per_tenant(self):
        from repro.errors import RateLimitError

        async def scenario():
            service = await make_service(rate_per_s=0.001, burst=1.0)
            try:
                service.submit(tiny_spec(seed=12, tenant="alice"))
                with pytest.raises(RateLimitError):
                    service.submit(tiny_spec(seed=13, tenant="alice"))
                # a different tenant is unaffected
                service.submit(tiny_spec(seed=14, tenant="bob"))
                counters = service.stats()["counters"]
                assert counters["service.jobs.rate_limited"] == 1
                return True
            finally:
                await service.stop()

        assert run(scenario())


class TestCoalescing:
    def test_duplicate_submission_shares_one_execution(self):
        async def scenario():
            service = await make_service(workers=1)
            try:
                spec = tiny_spec(seed=15, chaos={"sleep_s": 0.3})
                first = service.submit(spec)
                second = service.submit(spec)
                assert second.job_id == first.job_id  # coalesced
                record = await service.wait(first.job_id)
                assert record.state == JobState.DONE
                counters = service.stats()["counters"]
                assert counters["service.jobs.coalesced"] == 1
                assert counters["service.jobs.done"] == 1  # ran once
                return True
            finally:
                await service.stop()

        assert run(scenario())


class TestQuarantine:
    def test_poison_job_quarantined_with_artifact(self, tmp_path):
        async def scenario():
            service = await make_service(
                workers=1, data_dir=tmp_path, poison_threshold=2
            )
            try:
                poison = tiny_spec(seed=16, chaos={"kill_worker": True})
                record = service.submit(poison)
                record = await service.wait(record.job_id)
                assert record.state == JobState.QUARANTINED
                assert record.crashes == 2
                artifact = tmp_path / "quarantine" / f"{record.hash}.json"
                assert artifact.exists()
                import json

                diagnostic = json.loads(artifact.read_text())
                assert diagnostic["crashes"] == 2
                assert diagnostic["spec"]["chaos"] == {"kill_worker": True}
                # never retried again: resubmission resolves instantly
                again = service.submit(poison)
                assert again.state == JobState.QUARANTINED
                assert again.job_id == record.job_id
                with pytest.raises(PoisonJobError):
                    service.get_result(record.hash)
                # ...and the service still works for honest jobs
                ok = service.submit(tiny_spec(seed=17))
                ok = await service.wait(ok.job_id)
                assert ok.state == JobState.DONE
                return True
            finally:
                await service.stop()

        assert run(scenario())

    def test_quarantine_survives_restart(self, tmp_path):
        async def scenario():
            service = await make_service(
                workers=1, data_dir=tmp_path, poison_threshold=1
            )
            poison = tiny_spec(seed=18, chaos={"kill_worker": True})
            record = service.submit(poison)
            record = await service.wait(record.job_id)
            assert record.state == JobState.QUARANTINED
            await service.stop()

            reborn = await make_service(workers=1, data_dir=tmp_path)
            try:
                again = reborn.submit(poison)
                assert again.state == JobState.QUARANTINED  # not re-run
                return True
            finally:
                await reborn.stop()

        assert run(scenario())


class TestBoundedRetention:
    def test_terminal_records_and_events_are_evicted(self):
        async def scenario():
            service = await make_service(workers=1, max_records=3)
            try:
                for seed in range(40, 46):
                    record = service.submit(tiny_spec(seed=seed))
                    record = await service.wait(record.job_id)
                    assert record.state == JobState.DONE
                # one-shot events are dropped at completion, terminal
                # records beyond max_records are evicted oldest-first
                assert not service._events
                assert len(service.records) <= 3
                assert "j-6" in service.records  # newest survives
                return True
            finally:
                await service.stop()

        assert run(scenario())

    def test_quarantined_records_survive_eviction(self, tmp_path):
        async def scenario():
            service = await make_service(
                workers=1, data_dir=tmp_path,
                poison_threshold=1, max_records=1,
            )
            try:
                poison = tiny_spec(seed=50, chaos={"kill_worker": True})
                record = service.submit(poison)
                record = await service.wait(record.job_id)
                assert record.state == JobState.QUARANTINED
                for seed in range(51, 54):
                    ok = service.submit(tiny_spec(seed=seed))
                    await service.wait(ok.job_id)
                # eviction churned past max_records, but the poison
                # record is exempt: resubmission still short-circuits
                again = service.submit(poison)
                assert again.state == JobState.QUARANTINED
                assert again.job_id == record.job_id
                return True
            finally:
                await service.stop()

        assert run(scenario())


class TestWorkerStartMethod:
    def test_pool_never_uses_plain_fork(self):
        # pool workers are (re)started from asyncio.to_thread threads;
        # plain fork of a multi-threaded process can deadlock the child
        from repro.service.pool import WorkerPool

        pool = WorkerPool(1)
        assert pool._ctx.get_start_method() in ("forkserver", "spawn")


class TestPoolStopDuringJob:
    def test_stop_mid_job_resolves_crashed_without_respawn(self):
        """stop() closes the pipe a job thread is polling.  The thread must
        resolve to ``crashed`` without a second close of the same fd and
        without respawning a worker into the stopped pool."""
        import threading

        from repro.service.jobs import JobSpec
        from repro.service.pool import WorkerPool

        spec = JobSpec.from_dict(
            tiny_spec(seed=24, chaos={"sleep_s": 5.0})
        ).validated().to_dict()
        pool = WorkerPool(1)
        pool.start()
        outcome = {}
        job = threading.Thread(
            target=lambda: outcome.setdefault("value", pool.run(0, spec))
        )
        job.start()
        try:
            time.sleep(0.3)  # the job thread is now polling the pipe
            pool.stop()  # must not raise (EBADF from a racing close)
            job.join(timeout=10.0)
            assert not job.is_alive()
            assert outcome["value"].kind == "crashed"
            assert pool._workers == [None]
            assert pool.replacements == 0
        finally:
            pool.stop()


class TestDrainAndResume:
    def test_drain_rejects_new_finishes_running(self, tmp_path):
        async def scenario():
            service = await make_service(workers=1, data_dir=tmp_path)
            record = service.submit(
                tiny_spec(seed=19, chaos={"sleep_s": 0.3})
            )
            for _ in range(100):
                if record.state == JobState.RUNNING:
                    break
                await asyncio.sleep(0.01)
            drain = asyncio.ensure_future(service.drain())
            await asyncio.sleep(0.02)
            assert not service.ready()
            with pytest.raises(ShuttingDownError):
                service.submit(tiny_spec(seed=20))
            await drain
            assert record.state == JobState.DONE  # running job finished
            return True

        assert run(scenario())

    def test_recovery_with_more_jobs_than_queue_capacity(self, tmp_path):
        """An unclean crash can journal more unfinished submits than
        queue_capacity (queued + running + retrying).  Recovery must
        bypass the capacity check — not raise QueueFullError on every
        start() in a permanent crash-loop."""
        from repro.service.jobs import JobSpec
        from repro.service.journal import Journal

        async def scenario():
            journal = Journal(tmp_path / "journal.jsonl")
            n_jobs = 5
            for i in range(1, n_jobs + 1):
                spec = JobSpec.from_dict(tiny_spec(seed=60 + i)).validated()
                journal.append({
                    "kind": "submit", "id": f"j-{i}",
                    "hash": spec.content_hash(), "spec": spec.to_dict(),
                    "t": 0.0,
                })
            journal.close()

            service = SimulationService(ServiceConfig(
                workers=1, queue_capacity=2, data_dir=tmp_path,
            ))
            await service.start()  # must not raise despite 5 > capacity 2
            try:
                assert service.queue.depth == n_jobs
                for i in range(1, n_jobs + 1):
                    record = await service.wait(f"j-{i}")
                    assert record.state == JobState.DONE
                counters = service.stats()["counters"]
                assert counters["service.jobs.resumed"] == n_jobs
                return True
            finally:
                await service.stop()

        assert run(scenario())

    def test_restart_resumes_queued_jobs_and_keeps_results(self, tmp_path):
        async def scenario():
            service = await make_service(workers=1, data_dir=tmp_path)
            done = service.submit(tiny_spec(seed=21))
            done = await service.wait(done.job_id)
            assert done.state == JobState.DONE
            # accepted but never run: the worker is busy, then we stop hard
            service.submit(tiny_spec(seed=22, chaos={"sleep_s": 5.0}))
            pending = service.submit(tiny_spec(seed=23))
            await asyncio.sleep(0.05)
            await service.stop()  # crash-like: no drain, no checkpoint

            reborn = await make_service(workers=1, data_dir=tmp_path)
            try:
                # completed result survived (cache) without re-running
                hit = reborn.submit(tiny_spec(seed=21))
                assert hit.state == JobState.DONE
                assert hit.cached
                assert hit.result == done.result  # bit-identical
                # the never-run job was resumed from the journal
                resumed = reborn.get_job(pending.job_id)
                terminal = await reborn.wait(pending.job_id)
                assert terminal.state == JobState.DONE
                assert resumed.job_id == pending.job_id
                counters = reborn.stats()["counters"]
                assert counters["service.jobs.resumed"] >= 1
                return True
            finally:
                await reborn.stop()

        assert run(scenario())

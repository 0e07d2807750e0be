"""Critical-path profiler: decomposition invariant, attribution, what-ifs.

Acceptance (ISSUE PR 7): on a seed-pinned figure-1 app, the ``repro
profile`` decomposition sums exactly to the makespan for every policy in
the verification POLICY_MATRIX.
"""

from __future__ import annotations

import pytest

from repro.apps import make_app
from repro.errors import ProfilingError
from repro.experiments.config import ExperimentConfig
from repro.faults import CoreFault, FaultPlan, TaskCrash
from repro.machine import bullion_s16, presets
from repro.machine.interconnect import Interconnect
from repro.observability import Instrumentation, RingBufferSink
from repro.profiling import (
    COMPONENTS,
    AttributionModel,
    ProfileReport,
    profile_run,
)
from repro.runtime.simulator import Simulator
from repro.schedulers import make_scheduler
from repro.verify import POLICY_MATRIX


def _run(program, topo, scheduler_name, *, cfg=None, faults=None,
         sched_kwargs=None, seed=0, instrument=True, max_retries=3):
    cfg = cfg or ExperimentConfig.quick()
    interconnect = Interconnect(
        topo, remote_penalty_exp=cfg.remote_penalty_exp,
        link_fraction=cfg.link_fraction, core_fraction=cfg.core_fraction,
    )
    kwargs = dict(sched_kwargs or {})
    obs = (
        Instrumentation(sink=RingBufferSink(1 << 20)) if instrument else None
    )
    sim = Simulator(
        program, topo, make_scheduler(scheduler_name, **kwargs),
        interconnect=interconnect, seed=seed, steal=cfg.steal,
        faults=faults, instrument=obs, max_retries=max_retries,
    )
    result = sim.run()
    return result, interconnect


def _profile(scheduler_name, *, faults=None, sched_kwargs=None, seed=0,
             machine="bullion-s16", app="jacobi", instrument=True,
             max_retries=3):
    cfg = ExperimentConfig.quick()
    topo = presets.by_name(machine)
    params = dict(cfg.app_params.get(app, {}))
    program = make_app(app, **params).build(topo.n_sockets)
    result, interconnect = _run(
        program, topo, scheduler_name, cfg=cfg, faults=faults,
        sched_kwargs=sched_kwargs, seed=seed, instrument=instrument,
        max_retries=max_retries,
    )
    return program, result, profile_run(
        program, result, topo, interconnect=interconnect
    )


# ---------------------------------------------------------------------------
# The acceptance matrix: exact decomposition for every verified policy.


@pytest.mark.parametrize(
    "label,scheduler,kwargs",
    POLICY_MATRIX,
    ids=[label for label, _, _ in POLICY_MATRIX],
)
def test_decomposition_sums_to_makespan_policy_matrix(label, scheduler, kwargs):
    _, result, report = _profile(scheduler, sched_kwargs=kwargs)
    assert report.makespan == pytest.approx(result.makespan)
    # The invariant the module enforces with a raise; assert it anyway so
    # a weakened tolerance can never slip through the suite.
    assert report.component_sum() == pytest.approx(report.makespan, abs=1e-9)
    assert abs(report.residual) <= 1e-6 * max(1.0, report.makespan)
    assert set(report.totals) == set(COMPONENTS)
    assert all(v >= -1e-12 for v in report.totals.values())
    assert report.n_path_tasks >= 1


def test_segments_tile_zero_to_makespan():
    _, _, report = _profile("ep")
    cursor = 0.0
    for seg in report.segments:
        assert seg.t0 == pytest.approx(cursor, abs=1e-9)
        assert seg.t1 >= seg.t0
        assert sum(seg.parts.values()) == pytest.approx(seg.duration)
        cursor = seg.t1
    assert cursor == pytest.approx(report.makespan)


def test_dep_wait_zero_on_healthy_run():
    # Tasks are offered the instant their last dependence retires, so the
    # chain never has holes on a fault-free run (DESIGN.md §13).
    _, _, report = _profile("ep")
    assert report.totals["dep_wait"] == pytest.approx(0.0, abs=1e-9)
    assert report.totals["waste"] == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Faulted runs: waste/stall attribution still tiles exactly.


def test_decomposition_under_task_crashes():
    plan = FaultPlan(task_crashes=(TaskCrash(probability=0.08),))
    _, result, report = _profile("las", faults=plan, machine="two-socket")
    assert result.reexecutions > 0
    assert abs(report.residual) <= 1e-6 * max(1.0, report.makespan)
    # Machine view charges every crashed attempt as waste.
    assert report.machine_totals()["waste"] == pytest.approx(
        sum(r.duration for r in result.crashed_records)
    )


def test_decomposition_under_core_fault():
    plan = FaultPlan(core_faults=(CoreFault(core=1, at=1.0),))
    _, result, report = _profile("ep", faults=plan, machine="two-socket")
    assert abs(report.residual) <= 1e-6 * max(1.0, report.makespan)
    assert report.component_sum() == pytest.approx(report.makespan)


def test_stall_attribution_rgp_window():
    # RGP with a tiny window parks tasks while partitions are pending;
    # the profile must still tile exactly (stall may or may not land on
    # the critical path, but the decomposition must hold).
    _, _, report = _profile(
        "rgp+las", sched_kwargs={"window_size": 8},
    )
    assert abs(report.residual) <= 1e-6 * max(1.0, report.makespan)
    assert report.totals["stall"] >= 0.0


def test_profile_without_events_degrades_gracefully():
    # No instrumentation: sched.place events are unavailable, parked time
    # degrades into queue_wait, the invariant still holds.
    _, _, report = _profile(
        "rgp+las", sched_kwargs={"window_size": 8}, instrument=False,
    )
    assert abs(report.residual) <= 1e-6 * max(1.0, report.makespan)
    assert report.totals["stall"] == pytest.approx(0.0, abs=1e-9)


def test_truncated_event_stream_is_refused():
    # A ring buffer that dropped the early sched.place events would hide
    # the parked intervals: stall 2.0 silently became queue wait.
    topo = presets.by_name("bullion-s16")
    program = make_app("jacobi").build(topo.n_sockets)
    runs = {}
    for capacity in (None, 2000):
        obs = Instrumentation(sink=RingBufferSink(capacity))
        runs[capacity] = Simulator(
            program, topo, make_scheduler("rgp+las", partition_delay=2.0),
            seed=0, instrument=obs,
        ).run()
    full = runs[None]
    assert full.events_dropped == 0
    report = profile_run(program, full, topo)
    assert report.totals["stall"] == pytest.approx(2.0)
    assert report.totals["queue_wait"] == pytest.approx(33.29, abs=0.01)
    truncated = runs[2000]
    assert truncated.events_dropped == len(full.events) - 2000 == 3532
    with pytest.raises(ProfilingError, match="dropped 3532 events"):
        profile_run(program, truncated, topo)


# ---------------------------------------------------------------------------
# What-if estimators.


def test_whatif_remote_local_bounds():
    _, _, report = _profile("ep")
    predicted = report.whatif_remote_local()
    # Remote-as-local can only help, and never below the non-remote time.
    assert predicted <= report.makespan + 1e-9
    assert predicted >= report.makespan - report.totals["mem_remote"] - 1e-9


def test_whatif_component_scaling():
    _, _, report = _profile("ep")
    assert report.whatif("mem_remote", 1.0) == pytest.approx(report.makespan)
    assert report.whatif("mem_remote", 0.0) == pytest.approx(
        report.makespan - report.totals["mem_remote"]
    )
    half = report.whatif("queue_wait", 0.5)
    assert half == pytest.approx(
        report.makespan - 0.5 * report.totals["queue_wait"]
    )
    with pytest.raises(ProfilingError):
        report.whatif("nonsense")
    with pytest.raises(ProfilingError):
        report.whatif("compute", -0.5)


# ---------------------------------------------------------------------------
# Attribution model units.


def test_attribution_split_sums_exactly():
    topo = bullion_s16()
    model = AttributionModel(Interconnect(topo))
    split = model.split(
        work=1.0, local_bytes=1e6, remote_bytes=5e5, socket=0, duration=7.3
    )
    assert split.compute + split.mem_local + split.mem_remote == pytest.approx(
        7.3, abs=1e-12
    )
    assert split.compute > 0 and split.mem_local > 0 and split.mem_remote > 0
    assert all(
        isinstance(v, float)
        for v in (split.compute, split.mem_local, split.mem_remote)
    )


def test_attribution_remote_costs_more_than_local():
    topo = bullion_s16()
    model = AttributionModel(Interconnect(topo))
    # Same byte count: the remote share of the duration must be larger.
    split = model.split(
        work=0.0, local_bytes=1e6, remote_bytes=1e6, socket=0, duration=1.0
    )
    assert split.mem_remote > split.mem_local
    # And re-running those remote bytes at the local rate must be cheaper.
    assert split.remote_as_local < split.mem_remote


def test_attribution_pure_compute():
    topo = bullion_s16()
    model = AttributionModel(Interconnect(topo))
    split = model.split(
        work=2.0, local_bytes=0.0, remote_bytes=0.0, socket=0, duration=4.0
    )
    assert split.compute == 4.0
    assert split.mem_local == 0.0 and split.mem_remote == 0.0


def test_attribution_negative_duration_rejected():
    topo = bullion_s16()
    model = AttributionModel(Interconnect(topo))
    with pytest.raises(ProfilingError):
        model.split(
            work=1.0, local_bytes=0.0, remote_bytes=0.0, socket=0,
            duration=-1.0,
        )


# ---------------------------------------------------------------------------
# Serialization / rendering.


def test_report_to_dict_json_safe():
    import json

    _, _, report = _profile("ep")
    full = report.to_dict()
    compact = report.to_dict(compact=True)
    json.dumps(full)
    json.dumps(compact)
    assert "segments" in full and "segments" not in compact
    assert compact["components"] == pytest.approx(full["components"])
    assert sum(compact["components"].values()) == pytest.approx(
        compact["makespan"]
    )


def test_report_render_mentions_components():
    _, _, report = _profile("ep")
    text = report.render()
    for comp in COMPONENTS:
        assert comp in text
    assert "what-if remote=local" in text


def test_profile_run_rejects_broken_tiling(monkeypatch):
    # Sabotage gap classification: wait intervals vanish from the tiling,
    # so the decomposition cannot sum to the makespan and the invariant
    # guard must fire (a real raise, not an assert — DESIGN.md §13).
    from repro.profiling import critical_path as cp

    program, result, report = _profile("ep")
    assert report.totals["queue_wait"] > 0  # the sabotage must matter
    topo = presets.by_name("bullion-s16")
    monkeypatch.setattr(cp, "_classify_gap", lambda lo, hi, w, s: [])
    with pytest.raises(ProfilingError, match="does not sum"):
        profile_run(program, result, topo)

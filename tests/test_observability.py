"""Unit tests for the observability subsystem (events, metrics, export)."""

import json

import numpy as np
import pytest

from repro.machine import two_socket
from repro.observability import (
    NULL_SINK,
    TAXONOMY,
    Counter,
    Event,
    Gauge,
    Histogram,
    Instrumentation,
    MetricsRegistry,
    NullSink,
    RingBufferSink,
    chrome_trace,
    metrics_document,
    paraver_timeline,
    validate_events,
    write_chrome_trace,
    write_metrics_json,
    write_paraver,
)
from repro.runtime import simulate
from repro.schedulers import make_scheduler

from conftest import make_fan_program


def instrumented_run(policy="rgp+las", seed=0, **sched_kwargs):
    obs = Instrumentation()
    topo = two_socket(cores_per_socket=2)
    result = simulate(
        make_fan_program(), topo,
        make_scheduler(policy, **sched_kwargs), seed=seed, instrument=obs,
    )
    return result, obs, topo


# ----------------------------------------------------------------------
# Event bus
# ----------------------------------------------------------------------
class TestEventBus:
    def test_ring_buffer_keeps_order_and_drops_oldest(self):
        sink = RingBufferSink(capacity=4)
        for i in range(6):
            sink.emit(Event(ts=float(i), kind="task.start", args={"i": i}))
        assert sink.total == 6
        assert sink.dropped == 2
        assert [e.args["i"] for e in sink.events] == [2, 3, 4, 5]

    def test_null_sink_is_disabled_noop(self):
        assert not NULL_SINK.enabled
        NULL_SINK.emit(Event(ts=0.0, kind="task.start", args={}))  # no-op
        assert isinstance(NULL_SINK, NullSink)

    def test_instrumentation_skips_event_construction_on_null_sink(self):
        obs = Instrumentation(sink=NULL_SINK)
        obs.emit(0.0, "task.start", tid=0)
        assert obs.events == []
        assert not obs.events_enabled

    def test_validate_events_flags_unknown_kind_and_time_travel(self):
        bad = [
            Event(ts=1.0, kind="no.such.kind", args={}),
            Event(ts=0.5, kind="task.start", args={}),
        ]
        problems = validate_events(bad)
        assert problems

    def test_every_emitted_kind_is_in_taxonomy(self):
        result, _, _ = instrumented_run()
        assert result.events
        for ev in result.events:
            assert ev.kind in TAXONOMY

    def test_event_stream_is_time_ordered(self):
        result, _, _ = instrumented_run()
        assert validate_events(result.events) == []


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_monotonic(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_collapses_same_timestamp(self):
        g = Gauge("x")
        g.set(1.0, 10.0)
        g.set(1.0, 20.0)
        g.set(2.0, 30.0)
        assert g.samples == [(1.0, 20.0), (2.0, 30.0)]
        assert g.value == 30.0

    def test_histogram_buckets_and_quantiles(self):
        h = Histogram("x", bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.counts.tolist() == [1, 1, 1]
        assert h.count == 3
        assert h.mean == pytest.approx((0.5 + 5.0 + 50.0) / 3)

    def test_registry_lazy_and_snapshot_json_safe(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.gauge("b").set(1.0, 3.0)
        reg.histogram("c").observe(0.2)
        reg.matrix("m", (2, 2))[0, 1] += 5.0
        snap = reg.snapshot()
        json.dumps(snap)  # must be JSON-serialisable as-is
        assert snap["counters"]["a"] == 2
        assert snap["matrices"]["m"][0][1] == 5.0

    def test_histogram_bounds_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", bounds=(1.0, 2.0))
        with pytest.raises(ValueError):
            reg.histogram("h", bounds=(1.0, 3.0))


# ----------------------------------------------------------------------
# Simulator integration
# ----------------------------------------------------------------------
class TestSimulatorIntegration:
    def test_result_carries_events_and_metrics(self):
        result, obs, _ = instrumented_run()
        assert result.events is obs.events or result.events == obs.events
        assert result.metrics is not None
        counters = result.metrics["counters"]
        assert counters["tasks.completed"] == result.n_tasks

    def test_traffic_matrix_matches_byte_split(self):
        """Acceptance: rows of the NUMA traffic matrix (minus the
        diagonal) sum to each socket's remote bytes; the diagonal sums
        to the run's local bytes."""
        result, _, topo = instrumented_run()
        m = np.asarray(result.metrics["matrices"]["numa.traffic"])
        assert m.shape == (topo.n_sockets, topo.n_nodes)
        assert np.trace(m) == pytest.approx(result.local_bytes)
        assert m.sum() - np.trace(m) == pytest.approx(result.remote_bytes)
        np.testing.assert_allclose(m, result.bytes_by_pair)

    def test_byte_counters_match_result_aggregates(self):
        result, _, _ = instrumented_run()
        counters = result.metrics["counters"]
        assert counters.get("bytes.local", 0.0) == pytest.approx(
            result.local_bytes
        )
        assert counters.get("bytes.remote", 0.0) == pytest.approx(
            result.remote_bytes
        )

    def test_task_lifecycle_events_pair_up(self):
        result, _, _ = instrumented_run()
        starts = [e for e in result.events if e.kind == "task.start"]
        finishes = [e for e in result.events if e.kind == "task.finish"]
        assert len(starts) == len(finishes) == result.n_tasks
        assert {e.args["tid"] for e in starts} == set(range(result.n_tasks))

    def test_rgp_partition_events_present(self):
        result, _, _ = instrumented_run("rgp+las", window_size=8)
        kinds = {e.kind for e in result.events}
        assert "rgp.window" in kinds
        assert "rgp.partition.begin" in kinds
        assert "rgp.partition.end" in kinds
        assert "partition.coarsen" in kinds or "partition.initial" in kinds
        end = next(e for e in result.events if e.kind == "rgp.partition.end")
        assert end.args["edge_cut"] is not None
        # host_us is real wall clock: range and finiteness only, never an
        # exact value — anything tighter couples the suite to host speed.
        import math

        assert end.args["host_us"] >= 0.0
        assert math.isfinite(end.args["host_us"])

    def test_las_choice_events_carry_evidence(self):
        result, _, topo = instrumented_run("las")
        choices = [e for e in result.events if e.kind == "sched.choice"]
        assert len(choices) == result.n_tasks
        for ev in choices:
            assert ev.args["branch"] in ("random", "weighted", "tie", "first")
            assert len(ev.args["weights"]) == topo.n_sockets

    def test_null_sink_still_collects_metrics(self):
        obs = Instrumentation(sink=NULL_SINK)
        topo = two_socket(cores_per_socket=2)
        result = simulate(
            make_fan_program(), topo, make_scheduler("las"),
            seed=0, instrument=obs,
        )
        assert result.events == []
        assert result.metrics is not None
        assert result.metrics["counters"]["tasks.completed"] == result.n_tasks


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestChromeTrace:
    def test_golden_small_trace_valid_and_monotonic(self, tmp_path):
        """Golden-file acceptance: a small exported trace is valid JSON
        and every (pid, tid) track's ``ts`` is monotonically
        non-decreasing."""
        result, _, _ = instrumented_run()
        path = tmp_path / "trace.json"
        write_chrome_trace(result, path)
        doc = json.loads(path.read_text())  # valid JSON
        events = doc["traceEvents"]
        assert events
        per_track: dict = {}
        for ev in events:
            if "ts" not in ev:
                continue  # metadata records carry no timestamp
            key = (ev["pid"], ev.get("tid"))
            last = per_track.get(key)
            assert last is None or ev["ts"] >= last, key
            per_track[key] = ev["ts"]

    def test_slices_cover_every_task(self):
        result, _, _ = instrumented_run()
        doc = chrome_trace(result)
        slices = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert len(slices) == result.n_tasks

    def test_counter_tracks_reproduce_byte_split(self):
        """Acceptance: the final value of the bytes.local / bytes.remote
        counter tracks equals the run's byte split."""
        result, _, _ = instrumented_run()
        doc = chrome_trace(result)
        finals = {}
        for ev in doc["traceEvents"]:
            if ev.get("ph") == "C":
                finals[ev["name"]] = ev["args"]["value"]
        assert finals["bytes.local"] == pytest.approx(result.local_bytes)
        assert finals["bytes.remote"] == pytest.approx(result.remote_bytes)

    def test_metadata_names_sockets_and_cores(self):
        result, _, topo = instrumented_run()
        doc = chrome_trace(result)
        names = {
            ev["args"]["name"]
            for ev in doc["traceEvents"]
            if ev.get("ph") == "M" and ev["name"] == "process_name"
        }
        for s in range(topo.n_sockets):
            assert f"socket {s}" in names
        assert "metrics" in names

    def test_export_is_deterministic(self):
        r1, _, _ = instrumented_run()
        r2, _, _ = instrumented_run()
        d1, d2 = chrome_trace(r1), chrome_trace(r2)
        # Partitioner phase payloads carry host-clock durations; strip
        # them before comparing (everything else must be identical).
        def strip(doc):
            out = []
            for ev in doc["traceEvents"]:
                ev = dict(ev)
                args = dict(ev.get("args", {}))
                args.pop("host_us", None)
                ev["args"] = args
                out.append(ev)
            return out
        assert strip(d1) == strip(d2)


class TestParaverAndMetricsExport:
    def test_paraver_header_and_records(self, tmp_path):
        result, _, _ = instrumented_run()
        path = tmp_path / "trace.prv"
        write_paraver(result, path)
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0].startswith("#Paraver (01/01/2018 at 00:00):")
        states = [ln for ln in lines if ln.startswith("1:")]
        assert len(states) == result.n_tasks
        # State records are colon-separated with 8 fields.
        assert all(len(ln.split(":")) == 8 for ln in states)

    def test_paraver_deterministic(self):
        r1, _, _ = instrumented_run()
        r2, _, _ = instrumented_run()
        assert paraver_timeline(r1) == paraver_timeline(r2)

    def test_metrics_json_document(self, tmp_path):
        result, _, _ = instrumented_run()
        path = tmp_path / "metrics.json"
        write_metrics_json(result, path)
        doc = json.loads(path.read_text())
        assert doc["makespan"] == result.makespan
        assert doc["registry"]["counters"]["tasks.completed"] == result.n_tasks

    def test_exporters_work_without_instrumentation(self):
        """Exporters degrade gracefully on an uninstrumented result."""
        topo = two_socket(cores_per_socket=2)
        result = simulate(
            make_fan_program(), topo, make_scheduler("las"), seed=0
        )
        doc = chrome_trace(result)
        assert [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert paraver_timeline(result)
        assert metrics_document(result)["registry"] == {}


# ----------------------------------------------------------------------
# Figure-1 pair acceptance: LAS vs RGP+LAS byte split in the trace
# ----------------------------------------------------------------------
class TestFigurePairAcceptance:
    def test_las_vs_rgp_las_counter_tracks_match_byte_split(self):
        """The headline comparison: for both policies of the paper's
        figure, the exported counter tracks must reproduce each run's
        local/remote byte split, and the traffic-matrix row sums must
        equal each socket's total bytes."""
        for policy in ("las", "rgp+las"):
            result, _, topo = instrumented_run(policy, seed=1)
            doc = chrome_trace(result)
            finals = {
                ev["name"]: ev["args"]["value"]
                for ev in doc["traceEvents"]
                if ev.get("ph") == "C"
            }
            assert finals["bytes.local"] == pytest.approx(result.local_bytes)
            assert finals["bytes.remote"] == pytest.approx(
                result.remote_bytes
            )
            m = np.asarray(result.metrics["matrices"]["numa.traffic"])
            for s in range(topo.n_sockets):
                remote_s = m[s].sum() - m[s, s]
                assert remote_s == pytest.approx(
                    result.bytes_by_pair[s].sum() - result.bytes_by_pair[s, s]
                )


# ----------------------------------------------------------------------
# One hook channel: recorder, instrumentation and checker compose
# ----------------------------------------------------------------------
class TestOneChannel:
    @pytest.mark.parametrize("label", [
        "four-socket/rgp+las/faulted",
        "four-socket/redblack/rgp+las",
        "cluster16/rgp+las",
    ])
    def test_all_subscribers_match_recorder_only(self, label):
        """All three subscribers on one channel: the schedule and the
        oracle's decision trace equal a recorder-only run exactly."""
        from repro.runtime import Simulator
        from repro.runtime.probe import CompositeProbe
        from repro.verify import DecisionRecorder, InvariantChecker
        from test_flat_engine import fingerprint
        from test_observability_golden import GRID

        runs = []
        for composed in (False, True):
            program, topo, policy, kwargs, seed, faults = GRID[label]()
            recorder = DecisionRecorder()
            obs = Instrumentation(sink=RingBufferSink(None))
            sim = Simulator(
                program, topo, make_scheduler(policy, **kwargs), seed=seed,
                faults=faults, probe=recorder,
                instrument=obs if composed else None, verify=composed,
            )
            if composed:
                assert isinstance(sim.probe, CompositeProbe)
                assert [type(p) for p in sim.probe.probes] == [
                    DecisionRecorder, Instrumentation, InvariantChecker,
                ]
                assert sim.memory.probe is sim.probe
            else:
                assert sim.probe is recorder
            result = sim.run()
            assert bool(result.events) == composed
            runs.append((fingerprint(result), recorder.trace))
        assert runs[0] == runs[1]

    def test_traffic_matrices_equal_the_accumulators(self):
        from test_observability_golden import instrumented

        result, _ = instrumented("cluster16/rgp+las")
        matrices = result.metrics["matrices"]
        assert np.array_equal(matrices["numa.traffic"], result.bytes_by_pair)
        assert np.array_equal(matrices["net.traffic"], result.bytes_by_link)

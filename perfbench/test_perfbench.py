"""The benchmark's own tests, on tiny versions of its three workloads.

A tiny workload keeps the real workload's machine, policies and simulator
settings and swaps its programs for small ones, so each test runs in
seconds.
"""

import dataclasses
import io
import json
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import hostspeed
import records
import run as bench
import workloads
from repro.apps import make_app
from repro.bench.hotpath import build_bench_program
from repro.runtime.simulator import Simulator
from tracer import LAYERS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY_PROGRAMS = {
    "figure1": (
        ("jacobi", lambda n: make_app("jacobi", nt=4, tile=64,
                                      sweeps=2).build(n)),
        ("qr", lambda n: make_app("qr", nt=3, tile=32).build(n)),
    ),
    "stencil10k": (("stencil-60", lambda n: build_bench_program(60, n)),),
    "cluster16": (("stencil-300", lambda n: build_bench_program(300, n)),),
}


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name](),
                               programs=TINY_PROGRAMS[name])


def fingerprints(workload, seed):
    p = workloads.run_pass(workload, workload.machine(), seed)
    assert not [s.error for s in p.sims if s.error]
    return [s.fingerprint for s in p.sims]


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["paths"] == ["perfbench"]


@pytest.mark.parametrize("name", list(TINY_PROGRAMS))
def test_workload_honours_its_seed(name):
    w = tiny(name)
    first = fingerprints(w, 3)
    assert fingerprints(w, 3) == first
    other = fingerprints(w, 4)
    assert all(a != b for a, b in zip(first, other))


def _main_result(monkeypatch, name, trace):
    monkeypatch.chdir(ROOT)
    small = tiny(name)
    monkeypatch.setitem(workloads.WORKLOADS, name, lambda: small)
    out = io.StringIO()
    with redirect_stdout(out):
        code = bench.main(["--workload", name, "--seed", "1",
                           "--seconds", "0.01", "--trace", str(trace)])
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(monkeypatch, trace, section):
    result = _main_result(monkeypatch, "figure1", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def test_corrupted_fingerprint_counts_as_failed():
    w = tiny("stencil10k")
    topology = w.machine()
    verified = workloads.verify_cases(w, topology, 0)
    assert len(verified) == 2
    key = ("stencil-60", "las")
    makespan, records_digest, traffic = verified[key]
    verified[key] = (makespan, records_digest[::-1], traffic)
    rec = bench.run(w, 0, 0.01, False, ROOT, verified=verified)
    n_passes = len(rec["passes"])
    assert rec["failed"] == n_passes
    assert rec["attempted"] == 2 * n_passes
    assert rec["metrics"]["verified_frac"]["value"] == 0.5
    assert rec["correct"] is False


def test_traced_pass_balances_and_restores_the_program():
    original_run = Simulator.run
    rec = bench.run(tiny("cluster16"), 2, 0.01, True, ROOT)
    assert Simulator.run is original_run
    assert rec["correct"] is True, rec["problems"]
    ledger = rec["ledger"]
    rows = [lay.time_metric for lay in LAYERS] + ["other_s"]
    assert list(ledger["rows"]) == rows
    total = sum(row["s"] for row in ledger["rows"].values())
    assert total == pytest.approx(ledger["traced_wall_s"], rel=1e-9)
    assert rec["metrics"]["other_s"]["value"] >= 0
    assert rec["metrics"]["partition.calls"]["value"] > 0
    assert (ROOT / ledger["perfetto"]).is_file()


def test_stencil_without_partitioning_makes_no_partition_calls():
    rec = bench.run(tiny("stencil10k"), 0, 0.01, True, ROOT)
    assert rec["correct"] is True, rec["problems"]
    assert rec["metrics"]["partition.calls"]["value"] == 0


def test_reference_seconds_cancel_the_host_speed():
    meter = hostspeed.Meter(tick_s=None)
    meter.samples = [hostspeed.REF_KERNEL_NS] * 2
    assert meter.speed_since(0) == 1.0
    # On a host half as fast the kernel takes twice as long.
    meter.samples = [2 * hostspeed.REF_KERNEL_NS] * 2
    assert meter.speed_since(0) == 0.5
    w = tiny("stencil10k")
    p = workloads.run_pass(w, w.machine(), 0, ticks=False)
    # One sample before the first segment and one after each: a build and
    # two simulations.
    assert len(p.kernel_ns) == 4 and min(p.kernel_ns) > 0
    assert 0 < p.ref_setup_s < p.ref_wall_s


def test_timer_samples_are_left_out_of_the_segments():
    import signal
    handler = signal.getsignal(signal.SIGALRM)
    with hostspeed.Meter(tick_s=0.01) as meter:
        t0 = meter.clock()
        hostspeed.kernel(100_000)
    assert len(meter.samples) > 0 and meter.tick_ns == sum(meter.samples)
    assert meter.clock() - t0 < time.perf_counter_ns() - t0
    assert signal.getsignal(signal.SIGALRM) is handler


def test_records_with_different_solvers_are_not_comparable():
    base = {"workload": "figure1", "seconds": 20, "trace": 0,
            "provenance": {"solver": "c"},
            "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
    same = json.loads(json.dumps(base))
    assert records.compare(base, same)[0]
    other = json.loads(json.dumps(base))
    other["provenance"]["solver"] = "python"
    ok, lines = records.compare(base, other)
    assert not ok and "solver" in lines[0]


def test_summary_gives_a_tail_only_with_ten_samples_beyond_it():
    assert records.summarize([1.0, 2.0, 3.0])["tail"] is None
    s = records.summarize([float(i) for i in range(1, 101)])
    assert s["n"] == 100 and s["tail"] == {"p": 90.0, "value": 90.0}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figure1",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

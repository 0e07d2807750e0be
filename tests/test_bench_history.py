"""Perf-regression observatory: history, compare, CLI exit codes.

Acceptance (ISSUE PR 7): ``repro bench --compare`` exits non-zero on an
injected synthetic regression and zero when comparing identical runs.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    append_history,
    compare_bench_files,
    derive_metrics,
    load_bench_file,
    load_history,
)
from repro.cli import main
from repro.errors import EXIT_BENCHMARK, BenchmarkError

HOTPATH_ENTRIES = [
    {"name": "decision/stencil-1000/uncached", "n_tasks": 1000,
     "policy": "rgp+las", "wall_s": 2.0, "decisions_per_s": 500.0},
    {"name": "decision/stencil-1000/cached", "n_tasks": 1000,
     "policy": "rgp+las", "wall_s": 0.5, "decisions_per_s": 2000.0},
    {"name": "e2e/stencil-1000/las/uncached", "n_tasks": 1000,
     "policy": "las", "wall_s": 3.0, "decisions_per_s": 333.0},
    {"name": "e2e/stencil-1000/las/cached", "n_tasks": 1000,
     "policy": "las", "wall_s": 2.0, "decisions_per_s": 500.0},
]

SERVICE_ENTRIES = [
    {"name": "service/cold", "jobs": 10, "jobs_per_s": 2.0, "p50_ms": 100.0,
     "p99_ms": 400.0, "cache_hit_rate": 0.0, "wall_s": 5.0},
    {"name": "service/warm", "jobs": 10, "jobs_per_s": 40.0, "p50_ms": 5.0,
     "p99_ms": 20.0, "cache_hit_rate": 1.0, "wall_s": 0.25},
    {"name": "service/restart-recall", "jobs": 10, "jobs_per_s": 30.0,
     "p50_ms": 6.0, "p99_ms": 25.0, "cache_hit_rate": 1.0, "wall_s": 0.33,
     "lost_results": 0},
]


def _write(tmp_path, name, entries):
    path = tmp_path / name
    path.write_text(json.dumps(entries))
    return str(path)


# ---------------------------------------------------------------------------
# Loading / kind detection.


def test_load_bench_file_detects_kinds(tmp_path):
    hot = _write(tmp_path, "hot.json", HOTPATH_ENTRIES)
    svc = _write(tmp_path, "svc.json", SERVICE_ENTRIES)
    assert load_bench_file(hot)[0] == "hotpath"
    assert load_bench_file(svc)[0] == "service"


def test_load_bench_file_rejects_garbage(tmp_path):
    with pytest.raises(BenchmarkError, match="cannot read"):
        load_bench_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(BenchmarkError, match="not valid JSON"):
        load_bench_file(bad)
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    with pytest.raises(BenchmarkError, match="non-empty"):
        load_bench_file(empty)
    alien = tmp_path / "alien.json"
    alien.write_text('[{"weird": 1}]')
    with pytest.raises(BenchmarkError, match="cannot detect"):
        load_bench_file(alien)


def test_derive_ratio_metrics():
    metrics = derive_metrics("hotpath", HOTPATH_ENTRIES)
    assert metrics["decision-speedup/stencil-1000"].value == pytest.approx(4.0)
    assert metrics["e2e-speedup/stencil-1000/las"].value == pytest.approx(1.5)
    svc = derive_metrics("service", SERVICE_ENTRIES)
    assert svc["service/warm-speedup"].value == pytest.approx(20.0)
    assert svc["service/warm-hit-rate"].value == 1.0
    assert svc["service/restart-recall/lost-results"].value == 0.0
    with pytest.raises(BenchmarkError, match="unknown bench kind"):
        derive_metrics("nonsense", [])


# ---------------------------------------------------------------------------
# Comparison semantics.


def test_compare_identical_passes(tmp_path):
    path = _write(tmp_path, "a.json", HOTPATH_ENTRIES)
    report = compare_bench_files(path, path)
    assert report.ok
    assert not report.regressions
    assert "PASS" in report.render()


def test_compare_flags_regression_beyond_tolerance(tmp_path):
    base = _write(tmp_path, "base.json", HOTPATH_ENTRIES)
    worse = json.loads(json.dumps(HOTPATH_ENTRIES))
    worse[1]["decisions_per_s"] /= 10.0  # cached decision rate collapses
    cur = _write(tmp_path, "cur.json", worse)
    report = compare_bench_files(base, cur, tolerance=0.3)
    assert not report.ok
    names = [r.name for r in report.regressions]
    assert names == ["decision-speedup/stencil-1000"]
    assert "FAIL" in report.render()


def test_compare_within_tolerance_is_noise(tmp_path):
    base = _write(tmp_path, "base.json", HOTPATH_ENTRIES)
    wobble = json.loads(json.dumps(HOTPATH_ENTRIES))
    for entry in wobble:
        entry["decisions_per_s"] *= 0.85  # -15%: inside the 30% band
    cur = _write(tmp_path, "cur.json", wobble)
    assert compare_bench_files(base, cur).ok


def test_compare_lower_better_zero_baseline(tmp_path):
    base = _write(tmp_path, "base.json", SERVICE_ENTRIES)
    worse = json.loads(json.dumps(SERVICE_ENTRIES))
    worse[2]["lost_results"] = 2  # any loss against a zero baseline fails
    cur = _write(tmp_path, "cur.json", worse)
    report = compare_bench_files(base, cur)
    assert [r.name for r in report.regressions] == [
        "service/restart-recall/lost-results"
    ]


def test_compare_absolute_mode(tmp_path):
    base = _write(tmp_path, "base.json", HOTPATH_ENTRIES)
    worse = json.loads(json.dumps(HOTPATH_ENTRIES))
    for entry in worse:
        entry["decisions_per_s"] /= 4.0  # uniform slowdown: ratios hide it
    cur = _write(tmp_path, "cur.json", worse)
    assert compare_bench_files(base, cur).ok  # ratio mode: no change
    report = compare_bench_files(base, cur, absolute=True)
    assert not report.ok  # absolute mode: -75% everywhere


def test_compare_rejects_kind_mismatch(tmp_path):
    hot = _write(tmp_path, "hot.json", HOTPATH_ENTRIES)
    svc = _write(tmp_path, "svc.json", SERVICE_ENTRIES)
    with pytest.raises(BenchmarkError, match="cannot compare"):
        compare_bench_files(hot, svc)


def test_compare_surfaces_coverage_changes(tmp_path):
    base = _write(tmp_path, "base.json", HOTPATH_ENTRIES)
    cur = _write(tmp_path, "cur.json", HOTPATH_ENTRIES[:2])
    report = compare_bench_files(base, cur)
    assert report.ok  # missing metrics are surfaced, not failed
    assert "e2e-speedup/stencil-1000/las" in report.only_baseline
    assert "missing from current" in report.render()


def test_compare_report_json_safe(tmp_path):
    path = _write(tmp_path, "a.json", HOTPATH_ENTRIES)
    json.dumps(compare_bench_files(path, path).to_dict())


# ---------------------------------------------------------------------------
# History (append-only JSONL).


def test_history_append_and_load(tmp_path):
    path = tmp_path / "BENCH_history.jsonl"
    append_history(path, "hotpath", HOTPATH_ENTRIES,
                   headline={"decision_speedup": 4.0}, written_at=100.0)
    append_history(path, "service", SERVICE_ENTRIES, written_at=200.0)
    records = load_history(path)
    assert [r["kind"] for r in records] == ["hotpath", "service"]
    assert records[0]["written_at"] == 100.0
    assert records[0]["headline"] == {"decision_speedup": 4.0}
    assert records[0]["metrics"]["decision-speedup/stencil-1000"] == (
        pytest.approx(4.0)
    )
    assert records[0]["entries"] == HOTPATH_ENTRIES
    # Append-only: a third run extends the file without rewriting it.
    before = path.read_text()
    append_history(path, "hotpath", HOTPATH_ENTRIES, written_at=300.0)
    assert path.read_text().startswith(before)
    assert len(load_history(path)) == 3


def test_history_load_rejects_garbage(tmp_path):
    path = tmp_path / "h.jsonl"
    path.write_text('{"kind": "hotpath"}\nnot json\n')
    with pytest.raises(BenchmarkError, match="line 2"):
        load_history(path)
    path.write_text("[1,2]\n")
    with pytest.raises(BenchmarkError, match="malformed record"):
        load_history(path)


# ---------------------------------------------------------------------------
# CLI acceptance: exit 0 on identical, exit 6 on synthetic regression.


def test_cli_compare_identical_exits_zero(tmp_path, capsys):
    path = _write(tmp_path, "a.json", HOTPATH_ENTRIES)
    code = main(["bench", "--compare", path, "--against", path])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_compare_regression_exits_six(tmp_path, capsys):
    base = _write(tmp_path, "base.json", HOTPATH_ENTRIES)
    worse = json.loads(json.dumps(HOTPATH_ENTRIES))
    worse[1]["decisions_per_s"] /= 10.0
    cur = _write(tmp_path, "cur.json", worse)
    code = main(["bench", "--compare", base, "--against", cur])
    assert code == EXIT_BENCHMARK == 6
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "regression" in captured.err


def test_cli_compare_unreadable_baseline_exits_six(tmp_path):
    path = _write(tmp_path, "a.json", HOTPATH_ENTRIES)
    code = main(["bench", "--compare", str(tmp_path / "nope.json"),
                 "--against", path])
    assert code == EXIT_BENCHMARK


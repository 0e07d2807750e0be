"""Host-time benchmark of the simulator, from app build to result.

Run from the repository root::

    python3 perfbench/run.py --workload figure1 --seed 0 --seconds 20 --trace 0

One invocation runs one workload (``figure1``, ``stencil10k``,
``cluster16``; see workloads.py) in this single process, with BLAS pinned
to one thread.  It repeats passes over the workload until ``--seconds``
have been measured, replays every distinct simulation once against the
reference simulator (outside the timed region), and checks that every timed
simulation reproduced the verified schedule exactly.

Host times are reported in reference seconds: each timed segment is scaled
by the host speed sampled around and inside it (see hostspeed.py), so that
a shared host speeding up or slowing down between runs does not move them.
The record keeps the unscaled host seconds too.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
untraced passes, then one more pass under the layer tracer, and reports the
per-layer ledger.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; a full record with
provenance goes to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

#: Thread-pool variables pinned to one thread before numpy loads.
_POOL_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

#: End-to-end metrics and their units (``--trace 0``).
E2E_UNITS = {
    "wall_s": "s",
    "tasks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "verified_frac": "frac",
    "sim_speedup_geomean": "x",
    "remote_frac": "frac",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def _load_program(root: Path):
    """Put the checkout's ``src`` first on the path and import ``repro``."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no src/repro under {root}; run from the repository "
            "root"
        )
    for var in _POOL_VARS:
        os.environ[var] = "1"
    # Keep the C solver's build artifact inside the checkout.
    os.environ["REPRO_CSOLVE_DIR"] = str(root / ".bench_build" / "csolve")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def timed_passes(workload, topology, seed: int, seconds: float):
    """Untraced passes until ``seconds`` of host time have been spent."""
    from workloads import run_pass

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        gc.collect()  # every pass starts from a collected heap
        passes.append(run_pass(workload, topology, seed))
    return passes


def e2e_metrics(workload, passes, peak_rss_mb: float, failed: int,
                attempted: int):
    from records import summarize
    from workloads import simulated_metrics

    samples = {
        "wall_s": [p.ref_wall_s for p in passes],
        "setup_s": [p.ref_setup_s for p in passes],
        "tasks_per_s": [p.tasks / p.ref_wall_s for p in passes],
        "host_wall_s": [p.wall_ns / 1e9 for p in passes],
        "host_setup_s": [p.setup_ns / 1e9 for p in passes],
        "kernel_ms": [k / 1e6 for p in passes for k in p.kernel_ns],
    }
    summaries = {k: summarize(v) for k, v in samples.items()}
    values = {k: summaries[k]["median"]
              for k in ("wall_s", "setup_s", "tasks_per_s")}
    values["peak_rss_mb"] = peak_rss_mb
    values["verified_frac"] = 1.0 - failed / attempted
    values.update(simulated_metrics(workload, passes[0]))
    return values, summaries


def layer_metrics(tracer, traced, untraced_wall_s: float) -> dict:
    """The ledger of the traced pass plus the counts the results carry.

    ``untraced_wall_s`` is in reference seconds, like ``traced.ref_wall_s``.
    """
    values = tracer.ledger(traced.wall_ns)
    sims = [s for s in traced.sims if not s.error]
    lookups = sum(s.cache_hits + s.cache_misses for s in sims)
    values.update({
        "core.windows": sum(s.windows for s in sims),
        "machine.memory.cache_hit_ratio": (
            sum(s.cache_hits for s in sims) / lookups if lookups else 0.0
        ),
        "machine.memory.cache_entries": max(
            (s.cache_entries for s in sims), default=0
        ),
        "runtime.simulator.steals": sum(s.steals for s in sims),
        "runtime.simulator.messages": sum(s.messages for s in sims),
        "runtime.simulator.parked": sum(s.parked for s in sims),
        "trace.overhead_frac": traced.ref_wall_s / untraced_wall_s - 1.0,
    })
    return values


def layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "frac"
    return "count"


def _finite(v):
    return v if isinstance(v, int) or math.isfinite(v) else None


def run(workload, seed: int, seconds: float, trace: bool, root: Path,
        verified=None) -> dict:
    """One invocation: timed passes, optional traced pass, checks, record.

    ``verified`` replaces the reference replay with given fingerprints (the
    benchmark's own tests use it to plant a corrupted fingerprint).
    """
    from records import provenance
    from tracer import LAYERS, LayerTracer
    from workloads import check, run_pass, verify_cases

    prov = provenance(root)
    topology = workload.machine()
    passes = timed_passes(workload, topology, seed, seconds)
    # Read before the traced pass and the reference replay can raise it.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "provenance": prov}
    checked = list(passes)
    if trace:
        tracer = LayerTracer()
        gc.collect()
        with tracer:  # no timer samples: the spans must not absorb them
            traced = run_pass(workload, topology, seed, ticks=False)
        checked.append(traced)
    if verified is None:
        verified = verify_cases(workload, topology, seed)
    failed = check(checked, verified)
    attempted = sum(len(p.sims) for p in checked)
    problems = [s.error for p in checked for s in p.sims if s.error]

    e2e, summaries = e2e_metrics(workload, passes, peak_rss_mb, failed,
                                 attempted)
    record["summaries"] = summaries
    record["passes"] = [
        {"wall_s": p.ref_wall_s, "setup_s": p.ref_setup_s,
         "host_wall_s": p.wall_ns / 1e9, "host_setup_s": p.setup_ns / 1e9,
         "kernel_ns": p.kernel_ns, "tasks": p.tasks}
        for p in passes
    ]
    if workload.reference_geomean is not None:
        measured = e2e["sim_speedup_geomean"]
        ref = workload.reference_geomean
        record["model_error"] = {
            "metric": "sim_speedup_geomean", "paper": ref,
            "measured": measured, "rel_error": (measured - ref) / ref,
        }
    else:
        record["model_error"] = None  # no reference: the model is unvalidated

    if trace:
        try:
            values = layer_metrics(tracer, traced, e2e["wall_s"])
        except ValueError as exc:  # the ledger does not balance
            problems.append(f"layer ledger: {exc}")
            values = {}
        wall_s = traced.wall_ns / 1e9
        record["ledger"] = {
            "traced_wall_s": wall_s,
            "rows": {
                name: {"s": values[name], "share": values[name] / wall_s}
                for name in [lay.time_metric for lay in LAYERS] + ["other_s"]
                if name in values
            },
        }
        out_dir = root / ".bench_build" / "perfbench"
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_path = out_dir / f"trace-{workload.name}.json"
        record["ledger"]["perfetto"] = str(trace_path.relative_to(root))
        record["ledger"]["spans"] = tracer.write_perfetto(
            trace_path, {"workload": workload.name, "seed": seed, **prov}
        )
        metrics = {k: {"value": _finite(v), "unit": layer_units(k)}
                   for k, v in values.items()}
    else:
        metrics = {k: {"value": _finite(e2e[k]), "unit": u}
                   for k, u in E2E_UNITS.items()}
    correct = not problems and all(m["value"] is not None
                                   for m in metrics.values())
    record.update(correct=correct, attempted=attempted, failed=failed,
                  problems=problems[:20], metrics=metrics)
    return record


def report(record: dict, out=sys.stderr) -> None:
    """Human-readable summary of a record."""
    prov = record["provenance"]
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"solver={prov['solver']} python={prov['python']} "
          f"numpy={prov['numpy']} nproc={prov['nproc']} "
          f"commit={prov['commit'] or 'src:' + prov['src_sha256'][:12]}",
          file=out)
    for name, s in record["summaries"].items():
        tail = (f"p{s['tail']['p']:g}={s['tail']['value']:.4f}"
                if s["tail"] else "no tail (n < 20)")
        print(f"  {name:14s} median={s['median']:.4f} {tail} n={s['n']}",
              file=out)
    err = record["model_error"]
    if err:
        print(f"  model error: sim_speedup_geomean {err['measured']:.4f} vs "
              f"paper {err['paper']} ({err['rel_error']:+.1%})", file=out)
    else:
        print("  model error: no reference for this workload (unvalidated)",
              file=out)
    ledger = record.get("ledger")
    if ledger:
        print(f"  layer ledger, traced wall {ledger['traced_wall_s']:.4f} s:",
              file=out)
        for name, row in ledger["rows"].items():
            print(f"    {name:36s} {row['s']:9.4f} s {row['share']:7.1%}",
                  file=out)
        total = sum(row["s"] for row in ledger["rows"].values())
        print(f"    {'sum':36s} {total:9.4f} s", file=out)
    for problem in record["problems"]:
        print(f"  FAILED: {problem}", file=out)
    print(f"  correct={record['correct']} attempted={record['attempted']} "
          f"failed={record['failed']}", file=out)


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    _load_program(root)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    record = run(workload, args.seed, args.seconds, bool(args.trace), root)
    report(record)
    out_dir = root / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

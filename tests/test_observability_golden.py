"""Exact observability golden: the event stream and the metrics registry.

``test_observability_overhead.py`` proves instrumentation never perturbs a
schedule; this file pins what the instrumentation *says*.  For a fixed grid
of instrumented runs, every retained event (``ts`` via ``float.hex()``,
``kind``, sorted args except the host-time ``host_us``) and the full
``registry.snapshot()`` are hashed and
compared against ``tests/data/golden_events.json``.  A reordered emit
site, a renamed counter or a changed payload fails here.

The grid: every shipped policy on the fan program of
``test_observability_overhead.py``, the four-socket stencil under LAS and
RGP+LAS, cluster16 under RGP+LAS (``msg.send``/``msg.recv``), one faulted
run (core fault, task crashes, node degradation), and one red-black run
whose barriers and delayed partition exercise ``epoch.advance``, parking
and ``sched.reoffer``.  Every run keeps its whole stream
(``RingBufferSink(None)``).

Regenerate (only when intentionally changing what is emitted) with::

    PYTHONPATH=src:tests python tests/test_observability_golden.py --regen
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.apps import make_app
from repro.faults import CoreFault, FaultPlan, NodeDegradation, TaskCrash
from repro.machine import presets, two_socket
from repro.observability import Instrumentation, RingBufferSink
from repro.runtime import simulate
from repro.schedulers import SCHEDULERS, make_scheduler

from test_observability_overhead import make_program

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "golden_events.json")

FAULTS = FaultPlan(
    core_faults=(CoreFault(core=2, at=0.5, duration=2.0),),
    task_crashes=(TaskCrash(probability=0.05, max_crashes=6),),
    node_degradations=(NodeDegradation(node=1, at=0.3, factor=0.5),),
)


def _stencil(scale: int):
    return make_app("synthetic", kind="stencil", scale=scale)


def _fan(policy):
    return make_program(), two_socket(cores_per_socket=2), policy, {}, 3, None


def _box(preset, policy, kwargs, app=None, faults=None):
    def build():
        topo = presets.by_name(preset)
        program = (app or _stencil(6)).build(topo.n_sockets)
        return program, topo, policy, kwargs, 0, faults

    return build


#: label -> () -> (program, topology, policy, scheduler kwargs, seed, faults)
GRID = {f"fan/{p}": (lambda p=p: _fan(p)) for p in sorted(SCHEDULERS)}
GRID.update({
    "four-socket/las": _box("four-socket", "las", {}),
    "four-socket/rgp+las": _box("four-socket", "rgp+las", {"window_size": 8}),
    "cluster16/rgp+las": _box("cluster16", "rgp+las", {"window_size": 32},
                              app=_stencil(4)),
    "four-socket/rgp+las/faulted": _box(
        "four-socket", "rgp+las", {"window_size": 8}, faults=FAULTS
    ),
    "four-socket/redblack/rgp+las": _box(
        "four-socket", "rgp+las", {"window_size": 16, "partition_delay": 0.5},
        app=make_app("redblack", nt=4, tile=32, sweeps=2),
    ),
})


def _token(value) -> str:
    return value.hex() if isinstance(value, float) else repr(value)


def _canon(obj):
    """JSON-safe copy of ``obj`` with every float spelled via ``hex()``."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    return obj


#: Payload keys measured in host (wall-clock) time: they vary run to run.
HOST_TIME_ARGS = {"host_us"}


def events_sha256(events) -> str:
    h = hashlib.sha256()
    for ev in events:
        tokens = [_token(float(ev.ts)), ev.kind]
        for key in sorted(ev.args.keys() - HOST_TIME_ARGS):
            value = ev.args[key]
            if isinstance(value, (list, tuple)):
                value = tuple(_token(v) for v in value)
            tokens += [key, _token(value)]
        h.update(("\x1f".join(tokens) + "\n").encode())
    return h.hexdigest()


def registry_sha256(snapshot: dict) -> str:
    blob = json.dumps(_canon(snapshot), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def instrumented(label: str):
    program, topo, policy, kwargs, seed, faults = GRID[label]()
    obs = Instrumentation(sink=RingBufferSink(None))
    result = simulate(program, topo, make_scheduler(policy, **kwargs),
                      seed=seed, faults=faults, instrument=obs)
    return result, obs


def golden_entry(label: str) -> dict:
    result, obs = instrumented(label)
    kinds = sorted({ev.kind for ev in result.events})
    return {
        "n_events": len(result.events),
        "kinds": kinds,
        "events_sha256": events_sha256(result.events),
        "registry_sha256": registry_sha256(obs.registry.snapshot()),
    }


def regenerate() -> None:
    golden = {label: golden_entry(label) for label in GRID}
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} golden runs to {GOLDEN_PATH}")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


class TestEventGolden:
    def test_golden_covers_the_grid(self, golden):
        assert sorted(golden) == sorted(GRID)
        assert {f"fan/{p}" for p in SCHEDULERS} <= set(golden)

    def test_grid_exercises_messages_and_faults(self, golden):
        kinds = set()
        for entry in golden.values():
            kinds.update(entry["kinds"])
        for kind in ("msg.send", "msg.recv", "fault.inject",
                     "fault.core_failed", "fault.core_restored",
                     "task.crash", "sched.steal", "epoch.advance",
                     "sched.reoffer"):
            assert kind in kinds, kind

    @pytest.mark.parametrize("label", sorted(GRID))
    def test_run_matches_golden(self, label, golden):
        assert golden_entry(label) == golden[label]


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)

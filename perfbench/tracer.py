"""Host-time layer ledger: timing wrappers installed around public methods.

The program itself carries no tracing hooks.  :class:`LayerTracer` replaces
selected public functions and methods of the ``repro`` package with thin
wrappers for the duration of a traced pass, and puts the originals back
afterwards.  Each wrapper records one span (name, start, duration) and
charges the span's *self time* -- its duration minus the time covered by
the spans it encloses -- to the span's layer.  Because every nanosecond
inside a root span is charged to exactly one span, the per-layer self times
sum exactly (integer nanoseconds) to the time covered by root spans; what
the traced wall holds beyond that is the residual ``other_s``.

Calls are counted per layer *entry*: a span whose enclosing span belongs to
the same layer (a subclass method calling ``super()``, a rate entry point
delegating to another) adds time but no call.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable

#: Root of the span stack: its layer index matches no real layer.
_ROOT = -1


@dataclass(frozen=True)
class Layer:
    """One ledger row: a module's self time plus its entry counts."""

    name: str
    time_metric: str
    calls_metric: str | None = None
    units_metric: str | None = None


#: The ledger rows.  Their self times plus ``other_s`` equal the traced wall.
LAYERS: tuple[Layer, ...] = (
    Layer("apps", "apps.build_s", units_metric="apps.tasks"),
    Layer(
        "runtime.dependencies", "runtime.dependencies.edges_for_s",
        units_metric="runtime.dependencies.edges",
    ),
    Layer(
        "partition", "partition.busy_s", "partition.calls",
        "partition.vertices",
    ),
    Layer("core", "core.on_program_start_s"),
    Layer("schedulers", "schedulers.choose_s", "schedulers.choose_calls"),
    Layer(
        "machine.memory.touch", "machine.memory.touch_s",
        "machine.memory.touch_calls",
    ),
    Layer(
        "machine.memory.range", "machine.memory.range_s",
        "machine.memory.range_calls",
    ),
    Layer(
        "machine.interconnect", "machine.interconnect.solve_s",
        "machine.interconnect.solve_calls", "machine.interconnect.streams",
    ),
    Layer(
        "runtime.engines.refresh", "runtime.engines.refresh_s",
        "runtime.engines.refresh_calls",
    ),
    Layer("runtime.engines.drain", "runtime.engines.drain_s"),
    Layer("runtime.simulator", "runtime.simulator.self_s"),
)
_INDEX = {layer.name: i for i, layer in enumerate(LAYERS)}


def _n_tasks(args, out) -> int:
    return out.n_tasks


def _n_returned(args, out) -> int:
    return len(out)


def _n_vertices(args, out) -> int:
    return args[1].n_vertices


def _n_streams(args, out) -> int:
    return len(args[1])


def _import_all(package: str) -> None:
    """Import every submodule so that all subclasses exist to be wrapped."""
    pkg = importlib.import_module(package)
    for info in pkgutil.iter_modules(pkg.__path__, package + "."):
        importlib.import_module(info.name)


def _subclasses(base: type) -> list[type]:
    seen: list[type] = []
    todo = [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def _own_methods(classes, name: str):
    """``(cls, name)`` for each class that defines a concrete ``name`` itself."""
    for cls in classes:
        fn = cls.__dict__.get(name)
        if fn is not None and not getattr(fn, "__isabstractmethod__", False):
            yield cls, name


def wrap_targets() -> list[tuple[str, type, str, Callable | None]]:
    """Every ``(layer, class, method, unit counter)`` the tracer wraps."""
    for package in ("repro.apps", "repro.partition", "repro.schedulers",
                    "repro.core", "repro.runtime"):
        _import_all(package)
    from repro.apps.base import TaskApplication
    from repro.core.rgp import RGPScheduler
    from repro.machine.interconnect import Interconnect
    from repro.machine.memory import MemoryManager
    from repro.partition.interface import Partitioner
    from repro.runtime.dependencies import DependencyTracker
    from repro.runtime.engines import ENGINES
    from repro.runtime.simulator import Simulator
    from repro.schedulers.base import Scheduler

    targets: list[tuple[str, type, str, Callable | None]] = []

    def add(layer, pairs, units=None):
        targets.extend((layer, cls, name, units) for cls, name in pairs)

    add("apps", _own_methods(_subclasses(TaskApplication), "build"), _n_tasks)
    add("runtime.dependencies", [(DependencyTracker, "edges_for")],
        _n_returned)
    add("partition", _own_methods(_subclasses(Partitioner), "partition"),
        _n_vertices)
    add("core", [(RGPScheduler, "on_program_start")])
    add("schedulers", _own_methods(_subclasses(Scheduler), "choose"))
    add("machine.memory.touch", [(MemoryManager, "touch")])
    add("machine.memory.range", [(MemoryManager, "node_bytes_of_range")])
    add(
        "machine.interconnect",
        [(Interconnect, m) for m in ("stream_rates", "stream_rates_arrays",
                                     "stream_rates_lists",
                                     "stream_rates_canon")],
        _n_streams,
    )
    engines = list(ENGINES.values())
    add("runtime.engines.refresh", _own_methods(engines, "refresh"))
    for method in ("advance", "next_completion", "completed", "materialize"):
        add("runtime.engines.drain", _own_methods(engines, method))
    add("runtime.simulator", [(Simulator, "__init__"), (Simulator, "run")])
    return targets


class LayerTracer:
    """Installs the timing wrappers, accumulates the ledger, keeps spans.

    Use as a context manager around the traced pass; the originals are
    restored on exit even when the pass raises.
    """

    def __init__(self) -> None:
        n = len(LAYERS)
        self.self_ns = [0] * n
        self.calls = [0] * n
        self.units = [0] * n
        #: Open spans as ``[layer, child_ns]``; the root collects the total
        #: duration of every top-level span.
        self._stack: list[list[int]] = [[_ROOT, 0]]
        self.span_names: list[str] = []
        self.span_layers: list[int] = []
        #: Flat ``(name id, start ns, duration ns)`` triples, in end order.
        self.spans = array("q")
        self._saved: list[tuple[type, str, Any]] = []

    # -- installation --------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        for layer, cls, name, units in wrap_targets():
            original = cls.__dict__[name]
            self._saved.append((cls, name, original))
            setattr(cls, name, self._wrap(original, _INDEX[layer],
                                          f"{cls.__name__}.{name}", units))
        return self

    def __exit__(self, *exc) -> None:
        for cls, name, original in reversed(self._saved):
            setattr(cls, name, original)
        self._saved.clear()

    def _wrap(self, fn, layer: int, span_name: str, units):
        sid = len(self.span_names)
        self.span_names.append(span_name)
        self.span_layers.append(layer)
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        unit_totals = self.units
        spans_extend = self.spans.extend
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [layer, 0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stack.pop()
                parent[1] += d
                self_ns[layer] += d - frame[1]
                spans_extend((sid, t0, d))
            if parent[0] != layer:
                calls[layer] += 1
                if units is not None:
                    unit_totals[layer] += units(args, out)
            return out

        return wrapper

    # -- results -------------------------------------------------------
    @property
    def spanned_ns(self) -> int:
        """Total duration of the top-level spans."""
        return self._stack[0][1]

    def ledger(self, wall_ns: int) -> dict[str, float]:
        """Per-layer metrics for a traced interval of ``wall_ns``.

        Raises ``ValueError`` when the books do not balance: the self times
        must sum exactly to the spanned time, and the spanned time cannot
        exceed the wall.
        """
        if len(self._stack) != 1:
            raise ValueError(f"{len(self._stack) - 1} spans still open")
        spanned = self.spanned_ns
        if sum(self.self_ns) != spanned:
            raise ValueError(
                f"layer self times sum to {sum(self.self_ns)} ns, "
                f"top-level spans cover {spanned} ns"
            )
        if spanned > wall_ns:
            raise ValueError(
                f"spans cover {spanned} ns, more than the {wall_ns} ns wall"
            )
        out: dict[str, float] = {}
        for i, layer in enumerate(LAYERS):
            out[layer.time_metric] = self.self_ns[i] / 1e9
            if layer.calls_metric:
                out[layer.calls_metric] = self.calls[i]
            if layer.units_metric:
                out[layer.units_metric] = self.units[i]
        out["other_s"] = (wall_ns - spanned) / 1e9
        return out

    def write_perfetto(self, path, metadata: dict) -> int:
        """Write the spans as Chrome/Perfetto trace JSON; returns the count.

        Complete (``"ph": "X"``) events on one thread nest by time, which
        is how Perfetto rebuilds the parent/child relation.
        """
        spans = self.spans
        n = len(spans) // 3
        base = min((spans[3 * i + 1] for i in range(n)), default=0)
        cats = [LAYERS[lay].name for lay in self.span_layers]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"displayTimeUnit": "ns", "otherData": ')
            json.dump(metadata, fh, sort_keys=True)
            fh.write(', "traceEvents": [\n')
            fh.write(json.dumps({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
                "args": {"name": "host layers"},
            }))
            for i in range(n):
                sid, t0, d = spans[3 * i], spans[3 * i + 1], spans[3 * i + 2]
                fh.write(
                    ',\n{"name": "%s", "cat": "%s", "ph": "X", "pid": 1, '
                    '"tid": 1, "ts": %.3f, "dur": %.3f}'
                    % (self.span_names[sid], cats[sid],
                       (t0 - base) / 1e3, d / 1e3)
                )
            fh.write("\n]}\n")
        return n


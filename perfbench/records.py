"""Benchmark records: provenance, summaries, and comparison of two records.

Every run writes one JSON record.  Its ``provenance`` says which rate solver
ran (the C twin or the pure-Python fallback), the Python and numpy
versions, the commit (or, in a checkout without git, a digest of ``src/``)
and the CPUs the process may use.  Two records whose solver differs are not
comparable -- the C solver alone moves host time by about 1.6x -- and
:func:`compare` refuses them instead of printing a misleading ratio.

Compare two records::

    python3 perfbench/records.py BASE.json NEW.json
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path

#: Percentiles considered for the tail figure, highest first.
_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Record fields that must match for two records to be comparable.
MUST_MATCH = ("workload", "seconds", "trace")


def _commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest(root: Path) -> str:
    """SHA-256 over the paths and bytes of every source file under src/."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance(root: Path) -> dict:
    """Where a record's numbers came from."""
    import numpy

    from repro.machine import csolve

    return {
        "solver": "c" if csolve.load() is not None else "python",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(root),
        "src_sha256": src_digest(root),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "repro_env": {
            k: v for k, v in sorted(os.environ.items())
            if k.startswith("REPRO_") and k != "REPRO_CSOLVE_DIR"
        },
    }


def summarize(samples: list[float]) -> dict:
    """Median, the highest percentile with >= 10 samples beyond it, and n.

    With fewer than 20 samples no percentile qualifies, and ``tail`` is
    None rather than a figure resting on a handful of points.
    """
    ordered = sorted(samples)
    n = len(ordered)
    tail = None
    for p in _TAIL_LADDER:
        if math.floor(n * (100 - p) / 100) >= 10:
            rank = max(1, math.ceil(p * n / 100))
            tail = {"p": p, "value": ordered[rank - 1]}
            break
    return {
        "median": statistics.median(ordered) if ordered else None,
        "tail": tail,
        "n": n,
    }


def comparable(a: dict, b: dict) -> list[str]:
    """Reasons two records cannot be compared; empty when they can."""
    pairs = [("solver", a["provenance"]["solver"], b["provenance"]["solver"])]
    pairs += [(key, a[key], b[key]) for key in MUST_MATCH]
    return [f"{key} differs: {va!r} vs {vb!r}" for key, va, vb in pairs
            if va != vb]


def compare(a: dict, b: dict) -> tuple[bool, list[str]]:
    """Side-by-side metrics of two records, or why they are not comparable."""
    reasons = comparable(a, b)
    if reasons:
        return False, ["not comparable: " + r for r in reasons]
    lines = []
    for name, ma in a["metrics"].items():
        va = ma["value"]
        vb = b["metrics"].get(name, {}).get("value")
        ratio = f"{vb / va:.4f}" if va and vb is not None else "n/a"
        lines.append(f"{name:36s} {va!r:>22} {vb!r:>22}  new/base {ratio}")
    return True, lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    ok, lines = compare(a, b)
    print("\n".join(lines))
    return 0 if ok else 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

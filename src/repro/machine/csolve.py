"""Lazy build-and-load of the C twin of the interconnect solver.

``_csolve.c`` re-implements :meth:`Interconnect._solve` in C with the
exact same floating-point operation order, so the two produce
bit-identical rates (see the contract comment at the top of the C file).
This module compiles it on first use with whatever system C compiler is
available and loads it through :mod:`ctypes` — no build system, no
package installs.  Any failure (no compiler, read-only filesystem,
exotic platform) falls back to the pure-python solver and says so with
one :class:`RuntimeWarning` per process, carrying the tail of the
compiler's stderr.

The artifact name carries a short SHA-256 of the C source and the
compiler flags, so a kernel built from another source version (a copied
tree, a restored cache, the shared temp-dir fallback) is never loaded:
a different source simply names a different file.

Environment switches:

``REPRO_PURE_SOLVER=1``
    Never build or use the C solver (pure-python only).
``REPRO_CSOLVE_DIR``
    Directory for the compiled artifact (default: alongside the C
    source, falling back to a per-user temp directory).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

_SRC = Path(__file__).with_name("_csolve.c")
_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]

_fn = None
_failed = False


def _build_dir() -> Path:
    env = os.environ.get("REPRO_CSOLVE_DIR")
    if env:
        return Path(env)
    return _SRC.parent


def _artifact_name() -> str:
    """``_csolve-<python tag>-<digest>.so``; the digest covers the source
    bytes and ``_CFLAGS``, so any change to either names a new file."""
    tag = sys.implementation.cache_tag or "py"
    h = hashlib.sha256(_SRC.read_bytes())
    h.update("\0".join(_CFLAGS).encode())
    return f"_csolve-{tag}-{h.hexdigest()[:16]}.so"


def _compile(out: Path) -> str | None:
    """Compile the solver into ``out``.

    Returns None on success, else the tail of the last compiler's error
    output (or of the reason no compiler could run).
    """
    error = "no C compiler found (tried cc, gcc, clang)"
    for cc in ("cc", "gcc", "clang"):
        tmp = out.with_name(
            f".{out.name}.{os.getpid()}.tmp"
        )
        try:
            res = subprocess.run(
                [cc, *_CFLAGS, "-o", str(tmp), str(_SRC)],
                capture_output=True,
                timeout=60,
            )
            if res.returncode == 0 and tmp.exists():
                os.replace(tmp, out)  # atomic vs concurrent builders
                return None
            stderr = res.stderr.decode(errors="replace").strip()
            error = f"{cc} exited {res.returncode}: {stderr[-500:]}"
        except FileNotFoundError:
            pass
        except (OSError, subprocess.TimeoutExpired) as exc:
            error = f"{cc}: {exc}"
        finally:
            if tmp.exists():
                try:
                    tmp.unlink()
                except OSError:
                    pass
    return error


def _load_from(so: Path) -> ctypes.CFUNCTYPE | None:
    lib = ctypes.CDLL(str(so))
    fn = lib.repro_solve
    fn.restype = ctypes.c_int
    fn.argtypes = [
        ctypes.c_int,       # n
        ctypes.c_void_p,    # sockets (int64*)
        ctypes.c_void_p,    # nodes (int64*)
        ctypes.c_void_p,    # groups (int64*)
        ctypes.c_int,       # n_nodes
        ctypes.c_int,       # n_sock
        ctypes.c_void_p,    # bw (double*)
        ctypes.c_void_p,    # eff (double*, row-major)
        ctypes.c_void_p,    # link_bw (double* or NULL)
        ctypes.c_double,    # core_fraction (< 0 disables)
        ctypes.c_void_p,    # out (double*)
    ]
    return fn


def load():
    """Return the compiled ``repro_solve`` or None (pure-python mode).

    Caches the outcome process-wide: one build attempt per process.  An
    artifact is loaded only under its content-keyed name, so one built
    from another source version is rebuilt, never reused.  Falling back
    to pure python warns once (``REPRO_PURE_SOLVER=1`` stays silent).
    """
    global _fn, _failed
    if _fn is not None or _failed:
        return _fn
    if os.environ.get("REPRO_PURE_SOLVER"):
        _failed = True
        return None
    error = "no build directory was usable"
    try:
        name = _artifact_name()
        candidates = [
            _build_dir() / name,
            Path(tempfile.gettempdir()) / f"repro-csolve-{os.getuid()}" / name,
        ]
        for so in candidates:
            try:
                if not so.exists():
                    so.parent.mkdir(parents=True, exist_ok=True)
                    failure = _compile(so)
                    if failure is not None:
                        error = failure
                        continue
                _fn = _load_from(so)
                return _fn
            except OSError as exc:
                error = f"{so}: {exc}"
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    _failed = True
    warnings.warn(
        "C rate solver unavailable, using the slower pure-python solver "
        f"(set REPRO_PURE_SOLVER=1 to silence): {error}",
        RuntimeWarning,
        stacklevel=2,
    )
    return None

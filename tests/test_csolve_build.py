"""Build-and-load contract of the compiled rate solver (``csolve``).

* the artifact is keyed by a digest of the C source and flags, so a
  kernel compiled from another source version is rebuilt, never loaded —
  even when its mtime is newer than the source;
* when no compiler works, ``load()`` falls back to pure python with one
  ``RuntimeWarning`` carrying the compiler's error, and stays silent
  under ``REPRO_PURE_SOLVER=1``.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.machine import csolve

REAL_SRC = Path(csolve.__file__).with_name("_csolve.c")


@pytest.fixture
def fresh_csolve(monkeypatch, tmp_path):
    """An unloaded ``csolve`` whose build dirs are empty temp dirs; the
    process-wide cached outcome is restored afterwards."""
    monkeypatch.setattr(csolve, "_fn", None)
    monkeypatch.setattr(csolve, "_failed", False)
    monkeypatch.delenv("REPRO_PURE_SOLVER", raising=False)
    monkeypatch.setenv("REPRO_CSOLVE_DIR", str(tmp_path / "build"))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    return tmp_path


def reset(monkeypatch):
    monkeypatch.setattr(csolve, "_fn", None)
    monkeypatch.setattr(csolve, "_failed", False)


def call_tiny(fn) -> tuple[int, float]:
    """One local stream on a one-socket machine; (return code, rate)."""
    i64 = np.zeros(1, dtype=np.int64)
    bw = np.array([10.0])
    eff = np.array([1.0])
    out = np.zeros(1)
    ret = fn(1, i64.ctypes.data, i64.ctypes.data, i64.ctypes.data, 1, 1,
             bw.ctypes.data, eff.ctypes.data, None, ctypes.c_double(-1.0),
             out.ctypes.data)
    return ret, float(out[0])


STALE_KERNEL = """\
#include <stdint.h>
int repro_solve(int n, const int64_t *s, const int64_t *nd,
                const int64_t *g, int n_nodes, int n_sock, const double *bw,
                const double *eff, const double *link, double cf,
                double *out) {
    for (int i = 0; i < n; i++) out[i] = -1.0;
    return 0;
}
"""


class TestContentKeyedArtifact:
    def test_artifact_from_other_source_is_rebuilt(
        self, fresh_csolve, monkeypatch
    ):
        if shutil.which("cc") is None and shutil.which("gcc") is None:
            pytest.skip("no C compiler")
        src = fresh_csolve / "_csolve.c"
        monkeypatch.setattr(csolve, "_SRC", src)

        # Build a kernel from a *different* source version first.
        src.write_text(STALE_KERNEL)
        stale_fn = csolve.load()
        assert stale_fn is not None
        assert call_tiny(stale_fn) == (0, -1.0)
        stale_name = csolve._artifact_name()

        # Swap in the real source but make it *older* than the stale
        # artifact: the old mtime rule would have loaded the stale kernel.
        shutil.copyfile(REAL_SRC, src)
        os.utime(src, (0, 0))
        assert csolve._artifact_name() != stale_name

        builds = []
        real_compile = csolve._compile

        def spy(out):
            builds.append(out.name)
            return real_compile(out)

        monkeypatch.setattr(csolve, "_compile", spy)
        reset(monkeypatch)
        fn = csolve.load()
        assert builds == [csolve._artifact_name()]
        assert fn is not None
        assert call_tiny(fn) == (0, 10.0)  # the real kernel, not the stale one

    def test_existing_artifact_is_loaded_without_compiling(
        self, fresh_csolve, monkeypatch
    ):
        if shutil.which("cc") is None and shutil.which("gcc") is None:
            pytest.skip("no C compiler")
        assert csolve.load() is not None
        reset(monkeypatch)
        monkeypatch.setattr(
            csolve, "_compile",
            lambda out: pytest.fail("rebuilt an up-to-date artifact"),
        )
        assert csolve.load() is not None


class TestLoudFallback:
    def test_compiler_failure_warns_once_with_stderr(
        self, fresh_csolve, monkeypatch
    ):
        monkeypatch.setattr(
            csolve, "_compile",
            lambda out: "cc exited 1: _csolve.c:1: error: broken toolchain",
        )
        with pytest.warns(RuntimeWarning, match="broken toolchain") as rec:
            assert csolve.load() is None
        assert len(rec) == 1
        # The outcome is cached: later calls in the process stay quiet.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert csolve.load() is None

    def test_pure_solver_env_is_silent(self, fresh_csolve, monkeypatch):
        monkeypatch.setenv("REPRO_PURE_SOLVER", "1")
        monkeypatch.setattr(
            csolve, "_compile",
            lambda out: pytest.fail("compiled under REPRO_PURE_SOLVER"),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert csolve.load() is None

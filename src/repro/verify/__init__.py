"""repro.verify — differential-oracle verification subsystem (DESIGN.md §11).

Three layers of correctness tooling for the simulator:

* :mod:`~repro.verify.oracle` — a deliberately naive reference simulator
  that replays a recorded production run and must agree bit-for-bit;
* :mod:`~repro.verify.invariants` — an online :class:`InvariantChecker`
  probe (``REPRO_VERIFY=1``) asserting structural invariants mid-run;
* :mod:`~repro.verify.fuzz` — the metamorphic + differential fuzzing
  harness behind ``repro verify fuzz``.
"""

from ..runtime.probe import CompositeProbe, SimProbe
from .differential import (
    DifferentialReport,
    Divergence,
    VerifyCase,
    differential_run,
    program_from_dict,
    program_to_dict,
    replay_file,
    run_case,
    save_repro,
)
from .fuzz import POLICY_MATRIX, FuzzReport, fuzz, make_case, make_strategies
from .invariants import InvariantChecker
from .oracle import NaiveMemory, OracleOutcome, OracleParams, ReferenceSimulator
from .trace import DecisionRecorder, DecisionTrace, TraceEvent

__all__ = [
    "CompositeProbe",
    "DecisionRecorder",
    "DecisionTrace",
    "DifferentialReport",
    "Divergence",
    "FuzzReport",
    "InvariantChecker",
    "NaiveMemory",
    "OracleOutcome",
    "OracleParams",
    "POLICY_MATRIX",
    "ReferenceSimulator",
    "SimProbe",
    "TraceEvent",
    "VerifyCase",
    "differential_run",
    "fuzz",
    "make_case",
    "make_strategies",
    "program_from_dict",
    "program_to_dict",
    "replay_file",
    "run_case",
    "save_repro",
]

"""Committed regression corpus: every case must replay with zero divergence.

``tests/corpus/*.json`` holds serialized :class:`~repro.verify.VerifyCase`
documents (one per policy, most with fault plans) generated by the fuzz
harness.  Any future schedule-semantics change that breaks oracle
agreement fails here before it ever reaches the randomised fuzzer.  The
same files double as fixtures for the ``repro verify`` CLI paths.
"""

from __future__ import annotations

import glob
import json
import os

import pytest

from repro.cli import main
from repro.verify import VerifyCase, replay_file

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))


def test_corpus_exists():
    assert len(CORPUS) >= 6
    labels = {VerifyCase.load(p).scheduler for p in CORPUS}
    # The corpus must span the whole scheduler surface.
    assert {"dfifo", "las", "ep", "rgp", "rgp+las"} <= labels


def test_corpus_includes_fault_injection():
    assert any(
        json.load(open(path, encoding="utf-8")).get("faults")
        for path in CORPUS
    ), "corpus must cover at least one fault-injected run"


def test_corpus_includes_cluster_cases():
    docs = [json.load(open(p, encoding="utf-8")) for p in CORPUS]
    cluster_docs = [d for d in docs if d["topology"].get("cluster")]
    assert len(cluster_docs) >= 2, (
        "corpus must cover the cluster machine model"
    )
    assert any(
        (d.get("faults") or {}).get("node_losses") for d in cluster_docs
    ), "corpus must include a node-loss fault plan on a cluster"


def test_cluster_corpus_case_exercises_messages():
    from repro.verify.differential import _run_production

    path = os.path.join(CORPUS_DIR, "case-cluster-msgs.json")
    result, error = _run_production(VerifyCase.load(path))
    assert error is None
    assert result.messages, (
        "the committed cluster case must produce inter-box messages"
    )
    assert result.bytes_by_link is not None
    assert result.bytes_by_link.sum() > 0


@pytest.mark.parametrize(
    "path", CORPUS, ids=[os.path.basename(p) for p in CORPUS]
)
def test_corpus_case_replays_clean(path):
    report = replay_file(path)
    assert report.status == "ok", f"{path}: {report.summary()}"


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_cli_verify_replay_corpus(capsys):
    rc = main(["verify", "replay", CORPUS_DIR])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("ok") >= len(CORPUS)


def test_cli_verify_fuzz(capsys):
    rc = main(["verify", "fuzz", "--seeds", "1", "--policies", "dfifo", "las"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 divergences" in out


def test_cli_verify_diff(tmp_path, capsys):
    rc = main([
        "verify", "diff", "--app", "jacobi", "--scheduler", "las",
        "--machine", "two-socket", "--seed", "2",
        "--out", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ok" in out
    written = list(tmp_path.glob("*.json"))
    assert len(written) == 1
    assert replay_file(str(written[0])).status == "ok"


def test_cli_verify_fuzz_budget_units():
    from repro.cli import _parse_budget

    assert _parse_budget("120") == 120.0
    assert _parse_budget("120s") == 120.0
    assert _parse_budget("2m") == 120.0
    with pytest.raises(Exception):
        _parse_budget("soon")


def test_cli_verify_replay_missing_file(capsys):
    rc = main(["verify", "replay", "/nonexistent-case.json"])
    assert rc == 4  # VerificationError -> documented EXIT_VERIFICATION
    assert "error:" in capsys.readouterr().err

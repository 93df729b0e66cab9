"""Tests for the protocol model extraction + trace conformance checker."""

import json

import pytest

from repro.analysis.conformance import check_trace
from repro.analysis.protomodel import (
    default_model_path,
    extract_model,
    load_model,
    render_model,
)

_META = {"kind": "trace.meta", "schema": 1}


# -- model extraction -----------------------------------------------------


def test_committed_model_matches_extraction():
    """analysis/protocol_model.json is generated, reviewed, committed —
    and must never drift from what udt/core.py's guards actually imply."""
    committed = default_model_path().read_text(encoding="utf-8")
    assert committed == render_model(extract_model())


def test_model_constraint_shapes():
    model = load_model()
    by_type = {}
    for c in model["constraints"]:
        by_type.setdefault(c["type"], []).append(c)
    unique = {c["kind"] for c in by_type["unique"]}
    assert {"conn.connected", "conn.closed"} <= unique
    assert "conn.closed" in {c["kind"] for c in by_type["terminal"]}
    rp = {c["kind"]: c["prior"] for c in by_type["requires_prior"]}
    # Every guarded emit requires the handshake first.
    assert set(rp.values()) == {"conn.connected"}
    assert {"pkt.snd", "snd.ack", "snd.nak", "exp.timeout"} <= set(rp)
    # Honesty check: kinds reachable outside the guarded core paths
    # (DelayWarningCC's monkeypatched tap) must NOT be claimed.
    assert "cc.delay_warning" not in rp and "cc.slowstart_exit" not in rp


# -- synthetic traces -----------------------------------------------------


def _write_jsonl(path, events):
    with open(path, "w", encoding="utf-8") as f:
        for rec in [_META] + events:
            f.write(json.dumps(rec) + "\n")


def _evt(t, kind, src):
    return {"t": t, "kind": kind, "src": src}


def test_requires_prior_violation_with_context():
    events = [
        _evt(0.0, "conn.connected", "a"),
        _evt(0.1, "pkt.snd", "a"),
        _evt(0.2, "pkt.snd", "b"),  # b never connected
    ]
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.jsonl")
        _write_jsonl(path, events)
        report = check_trace(path)
    assert not report.ok and len(report.violations) == 1
    v = report.violations[0]
    assert (v.index, v.src, v.constraint) == (2, "b", "requires_prior")
    assert "conn.connected" in v.message


def test_unique_and_terminal_violations(tmp_path):
    events = [
        _evt(0.0, "conn.connected", "a"),
        _evt(0.1, "conn.connected", "a"),  # duplicate
        _evt(0.2, "conn.closed", "a"),
        _evt(0.3, "pkt.snd", "a"),  # after terminal close
    ]
    path = tmp_path / "t.jsonl"
    _write_jsonl(path, events)
    report = check_trace(str(path))
    assert [v.constraint for v in report.violations] == ["unique", "terminal"]
    assert [v.index for v in report.violations] == [1, 3]
    # Violations carry the preceding same-src events as readable context.
    assert any("conn.closed" in line for line in report.violations[1].context)


def test_violation_cap_truncates(tmp_path):
    from repro.analysis.conformance import MAX_VIOLATIONS

    events = [_evt(i * 0.01, "pkt.snd", "a") for i in range(MAX_VIOLATIONS + 20)]
    path = tmp_path / "t.jsonl"
    _write_jsonl(path, events)
    report = check_trace(str(path))
    assert len(report.violations) == MAX_VIOLATIONS and report.truncated
    assert "suppressed" in report.format()


def test_report_json_shape(tmp_path):
    path = tmp_path / "t.jsonl"
    _write_jsonl(path, [_evt(0.0, "pkt.snd", "a")])
    d = check_trace(str(path)).to_dict()
    assert d["ok"] is False and d["violations"][0]["constraint"] == "requires_prior"
    assert d["events_checked"] == 1 and d["srcs"] == ["a"]


# -- real traced experiment (reduced fig02) -------------------------------


@pytest.fixture(scope="module")
def fig02_trace(tmp_path_factory):
    """One reduced single-RTT fig02 run recorded to the binary store.

    A single RTT point matters: the full grid replays udt+tcp dumbbells
    per RTT into one trace with *reused* flow ids, so ``conn.connected``
    legitimately repeats per src and uniqueness would (correctly) fire.
    """
    from repro.experiments import get_experiment
    from repro.experiments.common import traced

    path = tmp_path_factory.mktemp("conformance") / "fig02.rtrc"
    with traced(str(path), generator="pytest", experiments=["fig02"]):
        get_experiment("fig02").runner(duration=3.0, n_flows=4, rtts=(0.01,))
    return path


@pytest.mark.slow
def test_traced_fig02_conforms(fig02_trace):
    report = check_trace(str(fig02_trace))
    assert report.ok, report.format()
    assert report.events_checked > 100
    # 4 flows x (sender, receiver) endpoints.
    assert len(report.srcs) == 8


@pytest.mark.slow
def test_fig02_mutation_flagged_at_exact_index(fig02_trace, tmp_path):
    """Corrupt exactly one event kind in the real trace; the checker must
    report a violation anchored at exactly that stream index."""
    from repro.obs.export import read_events

    model = load_model()
    events = list(read_events(str(fig02_trace), kinds=frozenset(model["kinds"])))
    target = next(
        i
        for i, rec in enumerate(events)
        if rec["kind"] == "conn.connected" and rec["src"] == "f1-rcv"
    )
    mutated = [dict(rec) for rec in events]
    mutated[target]["kind"] = "pkt.rcv"  # the handshake record vanishes

    clean_path = tmp_path / "clean.jsonl"
    _write_jsonl(clean_path, events)
    assert check_trace(str(clean_path)).ok  # rewrite alone is innocent

    mut_path = tmp_path / "mutated.jsonl"
    _write_jsonl(mut_path, mutated)
    report = check_trace(str(mut_path))
    assert not report.ok
    first = report.violations[0]
    # The corrupted record itself is the first violation: pkt.rcv is a
    # guarded kind and f1-rcv now has no conn.connected before it.
    assert first.index == target
    assert (first.src, first.kind, first.constraint) == (
        "f1-rcv",
        "pkt.rcv",
        "requires_prior",
    )


@pytest.mark.slow
def test_cli_conform_subcommand(fig02_trace, tmp_path, capsys):
    from repro.cli import main

    assert main(["conform", str(fig02_trace)]) == 0
    assert "OK" in capsys.readouterr().out

    bad = tmp_path / "bad.jsonl"
    _write_jsonl(bad, [_evt(0.0, "pkt.snd", "x")])
    assert main(["conform", str(bad)]) == 1
    assert "before 'conn.connected'" in capsys.readouterr().out

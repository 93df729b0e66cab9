"""Tests for the protocol-invariant static analysis suite (repro.analysis)."""

import json

import pytest

from repro.analysis import all_checkers, rule_ids, run_analysis
from repro.analysis.core import Finding, default_root, repo_root, run_checkers
from repro.analysis.event_schema import EventSchemaChecker
from repro.analysis.sanitizer import Divergence, SanitizerResult, diff_traces
from repro.analysis.sansio import SansioPurityChecker
from repro.analysis.seqno_taint import SeqnoTaintChecker


def _tree(tmp_path, files):
    """Materialise {relpath: source} under tmp_path; returns the root."""
    for rel, src in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(src)
    return tmp_path


def _rules(findings):
    return [f.rule for f in findings]


# -- self-hosting gate ----------------------------------------------------


def test_self_hosting_tree_matches_baseline():
    """The baseline is "zero findings": the full checker suite over
    src/repro must come back empty (a deliberate exception is an inline
    ``# lint: disable=<rule>`` with its reason, never a side file)."""
    findings = run_analysis()
    assert findings == [], "lint findings:\n" + "\n".join(
        f.format() for f in findings
    )
    root = repo_root()
    assert root is not None, "tests must run from the source checkout"
    assert not (root / "analysis" / "baseline.json").exists()


def test_rule_ids_cover_all_checkers():
    assert rule_ids() == ["seqno-taint", "sansio-purity", "event-schema"]


# -- seqno-taint ----------------------------------------------------------


def test_seqno_taint_flags_raw_compare(tmp_path):
    root = _tree(
        tmp_path,
        {"udt/x.py": "def f(a_seq, b_seq):\n    return a_seq < b_seq\n"},
    )
    findings = run_checkers(root, [SeqnoTaintChecker()])
    assert _rules(findings) == ["seqno-taint"]
    assert "seq_cmp" in findings[0].message


def test_seqno_taint_flags_raw_arith_and_aliases(tmp_path):
    root = _tree(
        tmp_path,
        {
            "udt/x.py": (
                "def f(self, n):\n"
                "    a = self.lrsn + 1\n"
                "    b = self.ack_seq - n\n"
                "    return a, b\n"
            )
        },
    )
    findings = run_checkers(root, [SeqnoTaintChecker()])
    assert _rules(findings) == ["seqno-taint", "seqno-taint"]


def test_seqno_taint_tracks_through_assignment(tmp_path):
    """The dataflow upgrade over PR 3's name heuristic: copying a seqno
    into an innocently-named local must not launder it."""
    root = _tree(
        tmp_path,
        {
            "udt/x.py": (
                "def f(self, limit):\n"
                "    hole = seq_inc(self.lrsn)\n"
                "    if hole < limit:\n"
                "        return hole\n"
                "    return None\n"
            )
        },
    )
    findings = run_checkers(root, [SeqnoTaintChecker()])
    assert _rules(findings) == ["seqno-taint"]
    assert "sequence-derived value" in findings[0].message
    assert "hole" in findings[0].message


def test_seqno_taint_sanitizers_and_projections_clear_taint(tmp_path):
    """seq_cmp/seq_off/seq_len/valid_seq results are plain ints/bools,
    and % / // / & / >> project out of the circular space."""
    root = _tree(
        tmp_path,
        {
            "udt/x.py": (
                "def f(a_seq, b_seq, w):\n"
                "    d = seq_off(a_seq, b_seq)\n"
                "    phase = a_seq % 16\n"
                "    return d > 0, phase + w, d + 1\n"
            )
        },
    )
    assert run_checkers(root, [SeqnoTaintChecker()]) == []


def test_seqno_taint_scope_excludes_tcp_and_seqno_module(tmp_path):
    src = "def f(a_seq, b_seq):\n    return a_seq - b_seq\n"
    root = _tree(
        tmp_path,
        {"tcp/x.py": src, "udt/seqno.py": src, "obs/x.py": src},
    )
    assert run_checkers(root, [SeqnoTaintChecker()]) == []


def test_seqno_taint_ignores_space_size_constants(tmp_path):
    root = _tree(
        tmp_path,
        {"udt/x.py": "def f(w, MAX_SEQ_NO):\n    return w & (MAX_SEQ_NO - 1)\n"},
    )
    assert run_checkers(root, [SeqnoTaintChecker()]) == []


def test_line_suppression(tmp_path):
    root = _tree(
        tmp_path,
        {
            "udt/x.py": (
                "def f(a_seq, b_seq):\n"
                "    return a_seq == b_seq  # lint: disable=seqno-taint\n"
            )
        },
    )
    assert run_checkers(root, [SeqnoTaintChecker()]) == []


def test_file_suppression(tmp_path):
    root = _tree(
        tmp_path,
        {
            "udt/x.py": (
                "# lint: disable-file=seqno-taint\n"
                "def f(a_seq, b_seq):\n"
                "    return a_seq < b_seq\n"
                "def g(a_seq, b_seq):\n"
                "    return a_seq > b_seq\n"
            )
        },
    )
    assert run_checkers(root, [SeqnoTaintChecker()]) == []


def test_suppression_spans_multiline_statement(tmp_path):
    """A disable on any physical line of a multi-line *simple* statement
    covers the whole statement — the finding anchors to the expression's
    first line, which need not be the line carrying the comment."""
    root = _tree(
        tmp_path,
        {
            "udt/x.py": (
                "def f(a_seq, b_seq, c_seq):\n"
                "    return (\n"
                "        a_seq\n"
                "        < b_seq  # lint: disable=seqno-taint\n"
                "        < c_seq\n"
                "    )\n"
            )
        },
    )
    assert run_checkers(root, [SeqnoTaintChecker()]) == []


def test_suppression_does_not_span_compound_statement(tmp_path):
    """On a compound statement header the disable stays exact-line: it
    must not blanket the whole suite under an `if`/`def`."""
    root = _tree(
        tmp_path,
        {
            "udt/x.py": (
                "def f(a_seq, b_seq):  # lint: disable=seqno-taint\n"
                "    if a_seq < b_seq:\n"
                "        return 1\n"
                "    return 0\n"
            )
        },
    )
    findings = run_checkers(root, [SeqnoTaintChecker()])
    assert _rules(findings) == ["seqno-taint"]


def test_rule_filter(tmp_path):
    root = _tree(
        tmp_path,
        {
            "udt/x.py": (
                "import socket\n"
                "def f(a_seq, b_seq):\n"
                "    return a_seq < b_seq\n"
            )
        },
    )
    both = run_checkers(root, [SeqnoTaintChecker(), SansioPurityChecker()])
    assert sorted(_rules(both)) == ["sansio-purity", "seqno-taint"]
    only = run_checkers(
        root, [SeqnoTaintChecker(), SansioPurityChecker()], rules=["seqno-taint"]
    )
    assert _rules(only) == ["seqno-taint"]


def test_parse_error_is_a_finding(tmp_path):
    root = _tree(tmp_path, {"udt/x.py": "def f(:\n"})
    findings = run_checkers(root, [SeqnoTaintChecker()])
    assert _rules(findings) == ["parse-error"]


# -- sansio-purity --------------------------------------------------------


def test_sansio_flags_wall_clock_and_sockets(tmp_path):
    root = _tree(
        tmp_path,
        {
            "udt/x.py": (
                "import time\n"
                "import socket\n"
                "def f():\n"
                "    return time.time()\n"
            )
        },
    )
    findings = run_checkers(root, [SansioPurityChecker()])
    assert _rules(findings) == ["sansio-purity"] * 3


def test_sansio_flags_unseeded_randomness(tmp_path):
    root = _tree(
        tmp_path,
        {
            "sim/x.py": (
                "import random\n"
                "def f():\n"
                "    r = random.Random()\n"
                "    return random.random()\n"
            )
        },
    )
    findings = run_checkers(root, [SansioPurityChecker()])
    msgs = " | ".join(f.message for f in findings)
    assert len(findings) == 2
    assert "unseeded" in msgs and "Simulator.rng" in msgs


def test_sansio_allows_seeded_random_and_engine_profiling(tmp_path):
    root = _tree(
        tmp_path,
        {
            "sim/engine.py": (
                "from time import perf_counter\n"
                "import random\n"
                "def f(seed):\n"
                "    return random.Random(seed), perf_counter()\n"
            )
        },
    )
    assert run_checkers(root, [SansioPurityChecker()]) == []


def test_sansio_scope_excludes_live(tmp_path):
    src = "import socket\nimport time\n"
    root = _tree(tmp_path, {"live/x.py": src, "obs/prof.py": src})
    assert run_checkers(root, [SansioPurityChecker()]) == []


# -- event-schema ---------------------------------------------------------


def test_event_schema_flags_undeclared_kind(tmp_path):
    root = _tree(
        tmp_path,
        {"udt/x.py": 'def f(bus, t):\n    bus.emit("no.such.event", t, "s")\n'},
    )
    findings = run_checkers(root, [EventSchemaChecker()])
    assert any(
        f.rule == "event-schema" and "never declared" in f.message for f in findings
    )


def test_event_schema_flags_missing_required_key(tmp_path):
    # The CI gate: deleting a required key from a producer emit fails lint.
    root = _tree(
        tmp_path,
        {"udt/x.py": 'def f(bus, t):\n    bus.emit("cc.decrease", t, "s")\n'},
    )
    findings = run_checkers(root, [EventSchemaChecker()])
    assert any(
        "missing required key 'trigger'" in f.message for f in findings
    ), [f.message for f in findings]


def test_event_schema_flags_undeclared_key(tmp_path):
    root = _tree(
        tmp_path,
        {
            "udt/x.py": (
                "def f(bus, t):\n"
                '    bus.emit("cc.decrease", t, "s", trigger="nak", bogus=1)\n'
            )
        },
    )
    findings = run_checkers(root, [EventSchemaChecker()])
    assert any("undeclared key 'bogus'" in f.message for f in findings)


def test_event_schema_clean_emit_passes(tmp_path):
    root = _tree(
        tmp_path,
        {
            "udt/x.py": (
                "def f(bus, t):\n"
                '    bus.emit("cc.decrease", t, "s", trigger="nak", period=1.0)\n'
            )
        },
    )
    findings = run_checkers(root, [EventSchemaChecker()])
    # Only catalog-hygiene warnings for the other (unemitted) kinds.
    assert all(f.severity == "warning" for f in findings)


def test_event_schema_flags_consumer_of_unproduced_key(tmp_path):
    root = _tree(
        tmp_path,
        {
            "udt/x.py": (
                "def f(bus, t):\n"
                '    bus.emit("cc.decrease", t, "s", trigger="nak")\n'
            ),
            "obs/report.py": (
                "def g(rec, kind):\n"
                '    if kind == "cc.decrease":\n'
                '        return rec["window"]\n'
            ),
        },
    )
    findings = run_checkers(root, [EventSchemaChecker()])
    assert any(
        "no emit site produces" in f.message and f.path == "obs/report.py"
        for f in findings
    ), [f.message for f in findings]


# -- sanitizer trace diff -------------------------------------------------

_META = '{"kind": "trace.meta", "schema": 1}'


def _write_trace(path, lines):
    path.write_text("\n".join([_META] + lines) + "\n")


def test_diff_traces_identical(tmp_path):
    events = ['{"t": 0.0, "kind": "pkt.snd", "seq": %d}' % i for i in range(10)]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _write_trace(a, events)
    _write_trace(b, events)
    n, div = diff_traces(a, b)
    assert n == 10 and div is None


def test_diff_traces_reports_first_divergence_with_context(tmp_path):
    events = ['{"t": 0.0, "kind": "pkt.snd", "seq": %d}' % i for i in range(10)]
    mutated = list(events)
    mutated[7] = '{"t": 0.0, "kind": "pkt.snd", "seq": 777}'
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _write_trace(a, events)
    _write_trace(b, mutated)
    _, div = diff_traces(a, b)
    assert div is not None and div.index == 7
    assert '"seq": 7' in div.line_a and '"seq": 777' in div.line_b
    assert div.context == events[2:7]
    text = div.format()
    assert "A(fifo)" in text and "seq=777" in text


def test_diff_traces_length_mismatch(tmp_path):
    events = ['{"t": 0.0, "kind": "pkt.snd", "seq": %d}' % i for i in range(3)]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _write_trace(a, events)
    _write_trace(b, events[:2])
    _, div = diff_traces(a, b)
    assert div is not None and div.index == 2 and div.line_b is None
    assert "<end of trace>" in div.format()


def test_diff_traces_rejects_headerless_file(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text('{"t": 0.0}\n')
    _write_trace(b, [])
    with pytest.raises(ValueError):
        diff_traces(a, b)


def _write_rtrc(path, lines):
    from repro.obs.store import RtrcWriter

    w = RtrcWriter(path, block_events=4)
    for rec in [_META] + lines:
        w.feed(json.loads(rec))
    w.close()


def test_diff_traces_rtrc_identical_and_divergent(tmp_path):
    events = ['{"t": 0.0, "kind": "pkt.snd", "seq": %d}' % i for i in range(10)]
    mutated = list(events)
    mutated[7] = '{"t": 0.0, "kind": "pkt.snd", "seq": 777}'
    a, b = tmp_path / "a.rtrc", tmp_path / "b.rtrc"
    _write_rtrc(a, events)
    _write_rtrc(b, mutated)
    n, div = diff_traces(a, a)
    assert n == 10 and div is None
    _, div = diff_traces(a, b)
    assert div is not None and div.index == 7
    assert '"seq":777' in div.line_b  # canonical JSONL from the store
    assert len(div.context) == 5


def test_diff_traces_rtrc_length_mismatch(tmp_path):
    events = ['{"t": 0.0, "kind": "pkt.snd", "seq": %d}' % i for i in range(6)]
    a, b = tmp_path / "a.rtrc", tmp_path / "b.rtrc"
    _write_rtrc(a, events)
    _write_rtrc(b, events[:3])
    _, div = diff_traces(a, b)
    assert div is not None and div.index == 3 and div.line_b is None


def test_diff_traces_reblocked_rtrc_counts_as_equal(tmp_path):
    """Different block boundaries change the bytes but not the events."""
    from repro.obs.store import RtrcWriter

    events = ['{"t": 0.0, "kind": "pkt.snd", "seq": %d}' % i for i in range(10)]
    a, b = tmp_path / "a.rtrc", tmp_path / "b.rtrc"
    _write_rtrc(a, events)  # block_events=4
    w = RtrcWriter(b, block_events=3)
    for rec in [_META] + events:
        w.feed(json.loads(rec))
    w.close()
    assert a.read_bytes() != b.read_bytes()
    n, div = diff_traces(a, b)
    assert n == 10 and div is None


def test_sanitizer_rejects_unknown_format():
    from repro.analysis.sanitizer import DeterminismSanitizer

    with pytest.raises(ValueError):
        DeterminismSanitizer("fig02", trace_format="csv")


@pytest.mark.slow
def test_sanitizer_end_to_end_rtrc(tmp_path):
    """Dual perturbed subprocess runs recording .rtrc, diffed streaming.

    The reduced fig02 cell starts four flows 10 us apart; started at one
    instant their handshakes tie and the fifo and lifo runs diverge at
    the first event."""
    from repro.analysis.sanitizer import DeterminismSanitizer

    result = DeterminismSanitizer(
        "fig02",
        overrides={"n_flows": 4, "duration": 1, "rtts": (0.01,)},
        trace_format="rtrc",
        workdir=str(tmp_path),
    ).run()
    assert result.deterministic, result.format()
    assert result.events > 100_000
    assert all(run["trace"].endswith(".rtrc") for run in result.runs)


def test_sanitizer_fails_when_nothing_was_compared(tmp_path, monkeypatch, capsys):
    """Two empty traces agree vacuously; that is a failure, not an OK."""
    from repro.analysis.sanitizer import DeterminismSanitizer
    from repro.cli import main

    def spawn(self, trace_path, tie_break, hashseed):
        _write_trace(trace_path, [])
        return {"tie_break": tie_break, "trace": str(trace_path)}

    monkeypatch.setattr(DeterminismSanitizer, "_spawn", spawn)
    result = DeterminismSanitizer("fig09", workdir=str(tmp_path)).run()
    assert result.events == 0 and result.divergence is None
    assert not result.deterministic
    assert main(["lint", "--sanitize", "fig09"]) == 1
    assert "fig09 FAILED" in capsys.readouterr().out


def test_sanitizer_result_json_shape(tmp_path):
    div = Divergence(index=3, line_a="x", line_b="y", context=["c"])
    res = SanitizerResult("fig02", False, 3, divergence=div)
    d = res.to_dict()
    assert d["kind"] == "lint.sanitize" and not d["deterministic"]
    assert d["divergence"]["index"] == 3
    ok = SanitizerResult("fig02", True, 100)
    assert "OK" in ok.format() and "DIVERGED" in res.format()


# -- CLI ------------------------------------------------------------------


def test_cli_lint_json_roundtrip(tmp_path, capsys):
    from repro.cli import main

    rc = main(["lint", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["kind"] == "lint.report" and payload["schema"] == 1
    assert set(payload) == {"schema", "kind", "elapsed_s", "findings", "gate_passed"}
    assert payload["gate_passed"] and payload["findings"] == []
    assert payload["elapsed_s"] < 15, f"lint too slow: {payload['elapsed_s']}s"


def test_cli_lint_detects_new_finding(tmp_path, capsys):
    from repro.cli import main

    _tree(
        tmp_path,
        {"udt/x.py": "def f(a_seq, b_seq):\n    return a_seq < b_seq\n"},
    )
    rc = main(["lint", "--root", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1 and "seqno-taint" in out and "1 finding(s)" in out
    # the JSON report carries the finding and a failed gate; the findings
    # parse back through the Finding codec
    assert main(["lint", "--root", str(tmp_path), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert not payload["gate_passed"]
    assert [Finding.from_dict(d).rule for d in payload["findings"]] == ["seqno-taint"]
    # a partial run exits on its raw findings and names its rules
    assert (
        main(["lint", "--root", str(tmp_path), "--rule", "sansio-purity", "--json"])
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["rules"] == ["sansio-purity"] and payload["findings"] == []


def test_cli_unknown_rule_errors():
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["lint", "--rule", "no-such-rule"])


def test_repro_udt_lint_subcommand(capsys):
    from repro.cli import main

    assert main(["lint"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out

"""Static HTML dashboard, report CLI guards, and bench history."""

import json
import os
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.obs.figspec import ResultTable
from repro.obs.figures import FIDELITY_SCHEMA, ledger_entry
from repro.obs.html import build_dashboard, collect_inputs
from repro.runner.cache import ResultCache, write_json_atomic
from repro.runner.sweep import SweepReport, append_history, update_bench
from tests._cache import seed_cache


def _result(exp_id, columns, rows):
    return {
        "exp_id": exp_id,
        "title": f"{exp_id} synthetic",
        "columns": columns,
        "rows": rows,
        "notes": "",
        "paper_reference": "",
    }


FIG08 = _result(
    "fig08", ["loss event #", "lost packets"], [[1, 400], [2, 900], [3, 150]]
)


@pytest.fixture
def populated(tmp_path):
    """A cache with fig08 + table1 results, a bench file with history."""
    cache_dir = tmp_path / "cache"
    seed_cache(cache_dir, "fig08", FIG08)
    seed_cache(cache_dir, "table1",
               _result("table1", ["B (Mb/s)", "inc (pkts/SYN)"], [[1, 0.15], [10, 1.5]]))
    bench = tmp_path / "bench.json"
    bench.write_text(
        json.dumps(
            {
                "schema": 1,
                "kind": "bench.runtime",
                # two scales interleaved: a paper-scale run between two
                # smoke-scale ones must not join their trend line
                "history": {
                    "fig08": [
                        {"ts": "2026-08-01T00:00:00Z", "sha": "aaa",
                         "seconds": 21.0, "scale": 0.05},
                        {"ts": "2026-08-02T00:00:00Z", "sha": "bbb",
                         "seconds": 236.5, "scale": 1.0},
                        {"ts": "2026-08-03T00:00:00Z", "sha": "ccc",
                         "seconds": 19.2, "scale": 0.05},
                    ],
                    "table1": [
                        {"ts": "2026-08-02T00:00:00Z", "sha": "bbb",
                         "seconds": 4.0, "scale": 1.0},
                    ],
                },
                "sweeps": {
                    "all|scale=0.05|jobs=2": {
                        "experiments": 4,
                        "cached": 3,
                        "seconds": 30.0,
                        "per_experiment": {"fig08": 19.2},
                    }
                },
            }
        )
    )
    ledger = tmp_path / "fidelity.json"
    write_json_atomic(
        ledger,
        {
            "schema": FIDELITY_SCHEMA,
            "kind": "bench.fidelity",
            "scale": 0.05,
            "experiments": {"fig08": ledger_entry("fig08", ResultTable(FIG08))},
        },
    )
    return {"cache_dir": cache_dir, "bench": bench, "ledger": ledger}


class TestDashboard:
    def test_build_is_selfcontained_multipage(self, tmp_path, populated):
        inputs = collect_inputs(
            cache_dir=populated["cache_dir"],
            bench_path=populated["bench"],
            ledger_path=populated["ledger"],
        )
        out = tmp_path / "dash"
        index = build_dashboard(out, inputs)
        assert index == out / "index.html"
        pages = {p.name for p in out.glob("*.html")}
        assert {"index.html", "fig08.html", "table1.html"} <= pages
        for page in out.glob("*.html"):
            doc = page.read_text()
            assert "<script" not in doc and "<link" not in doc, page.name
            stripped = doc.replace("http://www.w3.org/2000/svg", "")
            assert "http://" not in stripped and "https://" not in stripped, page.name

    def test_experiment_page_contents(self, tmp_path, populated):
        inputs = collect_inputs(
            cache_dir=populated["cache_dir"],
            bench_path=populated["bench"],
            ledger_path=populated["ledger"],
        )
        out = tmp_path / "dash"
        build_dashboard(out, inputs)
        fig08 = (out / "fig08.html").read_text()
        assert 'class="series"' in fig08  # the SVG figure
        assert "Claims and drift vs committed ledger" in fig08
        assert "✓ ok" in fig08  # drift: the rows the ledger recorded
        assert "[11, inf] <span class=\"bad\"" in fig08  # three loss events FAIL
        assert "Result table" in fig08
        # table1 has no figure spec: renders as a plain table, no crash
        table1 = (out / "table1.html").read_text()
        assert "Result table" in table1
        assert 'class="series"' not in table1

    def test_index_trend_and_sweep_stats(self, tmp_path, populated):
        inputs = collect_inputs(
            cache_dir=populated["cache_dir"],
            bench_path=populated["bench"],
            ledger_path=populated["ledger"],
        )
        out = tmp_path / "dash"
        build_dashboard(out, inputs)
        index = (out / "index.html").read_text()
        assert "runtime trend" in index  # history sparkline rendered
        assert "3/4" in index  # cache-hit stats from the sweeps section
        assert 'href="fig08.html"' in index

    def test_latest_runtime_carries_its_scale_and_trend_keeps_it(
        self, tmp_path, populated
    ):
        inputs = collect_inputs(
            cache_dir=populated["cache_dir"],
            bench_path=populated["bench"],
            ledger_path=populated["ledger"],
        )
        out = tmp_path / "dash"
        build_dashboard(out, inputs)
        index = (out / "index.html").read_text()
        # each cell names the scale of the run it reports
        assert "19.2s @ 0.05" in index and "4.0s @ 1" in index
        # fig08's trend is its two 0.05 runs; the 236.5 s paper-scale run
        # in between is on neither end of the line nor in its span
        assert "21s → 19.2s over 2 runs" in index
        assert "236" not in index
        # a single run at a scale has no trend to draw
        assert index.count("runtime trend") == 1

    def test_rows_come_from_the_ledgers_scale_not_the_newest_entry(
        self, tmp_path, populated
    ):
        """A newer fig08 entry at another scale is not compared with the
        ledger's scale=0.05 values: the dashboard looks rows up the one
        way the gate does."""
        digest = seed_cache(populated["cache_dir"], "fig08",
                            {**FIG08, "rows": [[1, 4000], [2, 9000]]}, scale=0.3)
        os.utime(ResultCache(populated["cache_dir"]).path(digest),
                 ns=(2 * 10**18, 2 * 10**18))
        inputs = collect_inputs(
            cache_dir=populated["cache_dir"],
            bench_path=populated["bench"],
            ledger_path=populated["ledger"],
        )
        assert inputs.tables["fig08"].rows == FIG08["rows"]
        assert "scale=0.05" in inputs.sources["fig08"]
        out = tmp_path / "dash"
        build_dashboard(out, inputs)
        fig08 = (out / "fig08.html").read_text()
        assert "✓ ok" in fig08 and "✗ drifted" not in fig08

    def test_a_missing_result_names_its_sweep(self, tmp_path, populated):
        empty = tmp_path / "empty-cache"
        inputs = collect_inputs(
            cache_dir=empty,
            bench_path=populated["bench"],
            ledger_path=populated["ledger"],
        )
        out = tmp_path / "dash"
        build_dashboard(out, inputs)
        fig08 = (out / "fig08.html").read_text()
        assert "no result available — no packet result at scale=0.05" in fig08
        assert f"sweep --only fig08 --scale 0.05 --cache-dir {empty}" in fig08

    def test_only_filter(self, tmp_path, populated):
        inputs = collect_inputs(
            cache_dir=populated["cache_dir"],
            bench_path=populated["bench"],
            ledger_path=populated["ledger"],
            only=["fig08"],
        )
        out = tmp_path / "dash"
        build_dashboard(out, inputs)
        pages = {p.name for p in out.glob("*.html")}
        assert pages == {"index.html", "fig08.html"}

    def test_fidelity_badge_drifts_when_ledger_perturbed(self, tmp_path, populated):
        data = json.loads(populated["ledger"].read_text())
        m = data["experiments"]["fig08"]["metrics"]
        m["loss_max_pkts"] = m["loss_max_pkts"] * 2.0
        populated["ledger"].write_text(json.dumps(data))
        inputs = collect_inputs(
            cache_dir=populated["cache_dir"],
            bench_path=populated["bench"],
            ledger_path=populated["ledger"],
        )
        out = tmp_path / "dash"
        build_dashboard(out, inputs)
        assert "✗ drifted" in (out / "fig08.html").read_text()


class TestProgressCard:
    def _feed(self, tmp_path, finished=True):
        from repro.runner.progress import HEARTBEAT, ProgressBoard

        path = tmp_path / "progress.jsonl"
        board = ProgressBoard(path=path)
        board.sweep_begin("fig08,table1", 0.05, 2,
                          pending=["fig08"], cached=["table1"])
        board.worker_start("fig08")
        board.heartbeat(
            "fig08",
            {"kind": HEARTBEAT, "exp": "fig08", "wall": 1.4, "events": 89_000,
             "vt": 2.0, "vt_end": 5.0, "eps": 209_000, "eta": 1.2},
        )
        if finished:
            board.worker_done("fig08", 2.5)
            board.sweep_end(3.0, executed=1, failed=0)
        return path

    def _build(self, tmp_path, populated, feed):
        inputs = collect_inputs(
            cache_dir=populated["cache_dir"],
            bench_path=populated["bench"],
            ledger_path=populated["ledger"],
            progress_path=feed,
        )
        out = tmp_path / "dash"
        build_dashboard(out, inputs)
        return (out / "index.html").read_text()

    def test_finished_sweep_renders_last_run_card(self, tmp_path, populated):
        index = self._build(tmp_path, populated, self._feed(tmp_path))
        assert "Last run" in index
        assert "vtime frontier" in index
        assert "✓ done 2.5s" in index
        assert "2.00/5.00s (40%)" in index
        assert "1 cached" in index

    def test_unfinished_sweep_renders_live_card(self, tmp_path, populated):
        feed = self._feed(tmp_path, finished=False)
        index = self._build(tmp_path, populated, feed)
        assert "Live run" in index
        assert "● running" in index
        assert "last heartbeat" in index

    def test_no_feed_no_card(self, tmp_path, populated):
        index = self._build(tmp_path, populated, tmp_path / "missing.jsonl")
        assert "Live run" not in index and "Last run" not in index

    def test_report_cli_progress_file_flag(self, tmp_path, populated, capsys):
        feed = self._feed(tmp_path)
        out_dir = tmp_path / "dash"
        rc = cli_main(
            [
                "report", "--html", str(out_dir),
                "--cache-dir", str(populated["cache_dir"]),
                "--bench", str(populated["bench"]),
                "--ledger", str(populated["ledger"]),
                "--progress-file", str(feed),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        assert "Last run" in (out_dir / "index.html").read_text()


class TestReportCli:
    def _summary_trace(self, tmp_path):
        """A real summary-only (no packet detail) trace of a tiny run."""
        from repro.obs.export import trace_session
        from repro.sim.topology import path_topology
        from repro.udt import start_udt_flow

        path = str(tmp_path / "summary.jsonl")
        with trace_session(path, generator="test", experiments=["fig04"]):
            top = path_topology(50e6, 0.02)
            start_udt_flow(top.net, top.src, top.dst)
            top.net.run(until=1.0)
        return path

    def test_summary_only_trace_hints_and_exits_zero(self, tmp_path, capsys):
        trace = self._summary_trace(tmp_path)
        assert cli_main(["report", trace]) == 0
        out = capsys.readouterr().out
        assert "--trace-packets" in out
        assert "packet-lifecycle report" not in out

    def test_summary_only_trace_with_html_still_builds(self, tmp_path, capsys):
        trace = self._summary_trace(tmp_path)
        out_dir = tmp_path / "dash"
        rc = cli_main(
            [
                "report",
                trace,
                "--html",
                str(out_dir),
                "--cache-dir",
                str(tmp_path / "empty-cache"),
                "--bench",
                str(tmp_path / "none.json"),
                "--ledger",
                str(tmp_path / "none2.json"),
            ]
        )
        assert rc == 0
        assert "--trace-packets" in capsys.readouterr().out
        fig04 = out_dir / "fig04.html"
        assert (out_dir / "index.html").exists() and fig04.exists()
        doc = fig04.read_text()
        # the CC timeline still renders from the summary trace, and the
        # forensics card carries the hint instead of an empty report
        assert "CC timeline" in doc
        assert "--trace-packets" in doc

    def test_report_without_trace_or_html_errors(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["report"])

    def test_html_from_cache_without_trace(self, tmp_path, populated, capsys):
        out_dir = tmp_path / "dash"
        rc = cli_main(
            [
                "report",
                "--html",
                str(out_dir),
                "--cache-dir",
                str(populated["cache_dir"]),
                "--bench",
                str(populated["bench"]),
                "--ledger",
                str(populated["ledger"]),
            ]
        )
        assert rc == 0
        assert (out_dir / "index.html").exists()
        capsys.readouterr()


class TestBenchHistory:
    def test_append_history_is_bounded(self):
        data = {}
        for i in range(50):
            append_history(data, "fig08", float(i), source="test", sha="s", limit=40)
        runs = data["history"]["fig08"]
        assert len(runs) == 40
        assert runs[0]["seconds"] == 10.0  # oldest ten dropped
        assert runs[-1]["seconds"] == 49.0
        assert {"ts", "sha", "seconds", "source"} <= set(runs[0])

    def test_update_bench_appends_history_and_keeps_latest(self, tmp_path):
        bench = tmp_path / "bench.json"
        report = SweepReport(
            selector="fig08",
            scale=0.05,
            jobs=1,
            experiments=["fig08"],
            executed=["fig08"],
            exp_seconds={"fig08": 19.2},
            digests={"fig08": "ab" * 32},
        )
        update_bench(report, bench)
        report.exp_seconds["fig08"] = 20.1
        update_bench(report, bench)
        data = json.loads(bench.read_text())
        # the gate reads the sweep's own per-experiment seconds
        assert data["sweeps"]["fig08|scale=0.05|jobs=1"]["per_experiment"] == {
            "fig08": 20.1
        }
        # dashboard reads the appended trend
        secs = [h["seconds"] for h in data["history"]["fig08"]]
        assert secs == [19.2, 20.1]
        assert all(h["scale"] == 0.05 for h in data["history"]["fig08"])

    def test_cached_experiments_record_no_history(self, tmp_path):
        bench = tmp_path / "bench.json"
        report = SweepReport(
            selector="fig08",
            scale=0.05,
            jobs=1,
            experiments=["fig08"],
            cached=["fig08"],
            exp_seconds={"fig08": 19.2},
        )
        update_bench(report, bench)
        data = json.loads(bench.read_text())
        assert "fig08" not in data.get("history", {})

"""Figure specs, SVG rendering round-trips, and the fidelity gate."""

import json
import xml.etree.ElementTree as ET

import pytest

from repro.obs.claims import METRICS, asked, evaluate
from repro.obs.export import trace_session
from repro.obs.figspec import SPECS, ResultTable, get_spec
from repro.obs.figures import (
    FIDELITY_SCHEMA,
    ledger_entry,
    main,
    read_ledger,
    recorded,
    report,
    resolve_result,
)
from repro.obs.svg import render_figure
from repro.obs.timeline import TIMELINE_KINDS, TimelineRecorder
from repro.runner.cache import ResultCache, write_json_atomic
from tests._cache import seed_cache
from tests._collect import every_run

_SVG = "{http://www.w3.org/2000/svg}"


def _result(exp_id, columns, rows, title="synthetic"):
    return {
        "exp_id": exp_id,
        "title": title,
        "columns": columns,
        "rows": rows,
        "notes": "",
        "paper_reference": "",
    }


def _table(exp_id, columns, rows, title="synthetic"):
    return ResultTable(_result(exp_id, columns, rows, title))


def _series_groups(svg_text):
    """{label: (x values, y values)} parsed back out of a rendered SVG."""
    root = ET.fromstring(svg_text)
    out = {}
    for g in root.iter(_SVG + "g"):
        if g.get("class") == "series":
            out[g.get("data-label")] = (
                json.loads(g.get("data-x")),
                json.loads(g.get("data-y")),
            )
    return out


FIG02_TABLE = _table(
    "fig02",
    ["RTT (ms)", "UDT", "TCP"],
    [[1, 0.99, 0.97], [10, 0.98, 0.90], [100, 0.99, 0.70], [1000, 0.97, 0.40]],
)

FIG08_RESULT = _result(  # a dozen events, so fig08's claims hold on it too
    "fig08",
    ["loss event #", "lost packets"],
    [[i + 1, n] for i, n in enumerate([400, 900, 150, 720] * 3)],
)
FIG08_TABLE = ResultTable(FIG08_RESULT)


class TestSpecRegistry:
    def test_acceptance_figures_have_specs_with_metrics(self):
        for fig_id in ("fig02", "fig04", "fig06", "fig08"):
            assert get_spec(fig_id) is not None, fig_id
            assert asked(fig_id, hybrid=True), fig_id

    def test_every_spec_names_a_registered_experiment(self):
        from repro.experiments import REGISTRY

        assert set(SPECS) <= set(REGISTRY)

    def test_spec_shape(self):
        for fig_id, spec in SPECS.items():
            assert spec.fig_id == fig_id
            assert spec.kind in ("line", "bar")
            assert spec.series, fig_id

    def test_unknown_spec_is_none(self):
        assert get_spec("nope") is None


class TestSvgRoundTrip:
    def test_line_series_match_table(self):
        svg = render_figure(get_spec("fig02"), FIG02_TABLE)
        groups = _series_groups(svg)
        assert set(groups) == {"UDT", "TCP"}
        xs = FIG02_TABLE.numeric_column("RTT (ms)")
        for name in ("UDT", "TCP"):
            got_x, got_y = groups[name]
            assert got_x == xs
            assert got_y == FIG02_TABLE.numeric_column(name)

    def test_bar_series_match_table(self):
        svg = render_figure(get_spec("fig08"), FIG08_TABLE)
        groups = _series_groups(svg)
        (labels, values), = groups.values()
        assert labels == [str(v) for v in FIG08_TABLE.column("loss event #")]
        assert values == FIG08_TABLE.numeric_column("lost packets")

    def test_svg_is_selfcontained_and_parses(self):
        for spec_id, table in (("fig02", FIG02_TABLE), ("fig08", FIG08_TABLE)):
            svg = render_figure(get_spec(spec_id), table)
            ET.fromstring(svg)  # well-formed XML
            assert "<script" not in svg
            stripped = svg.replace("http://www.w3.org/2000/svg", "")
            assert "http://" not in stripped and "https://" not in stripped

    def test_single_series_has_no_legend_but_two_do(self):
        one = render_figure(get_spec("fig08"), FIG08_TABLE)
        two = render_figure(get_spec("fig02"), FIG02_TABLE)
        # legend chips are the only 10x10 rects
        assert 'width="10" height="10"' not in one
        assert two.count('width="10" height="10"') == 2


class TestFig04TraceEquivalence:
    """Satellite: TimelineRecorder.from_trace ≡ live bus on a traced fig04."""

    @pytest.fixture(scope="class")
    def traced_fig04(self, tmp_path_factory):
        from repro.experiments import fig04_stability

        path = str(tmp_path_factory.mktemp("trace") / "fig04.rtrc")
        live = TimelineRecorder()
        with every_run(live.record, kinds=TIMELINE_KINDS), \
             trace_session(path, generator="test", experiments=["fig04"]):
            fig04_stability.run(
                n_flows=2, rate_bps=50e6, rtts=(0.02,), duration=6, seed=1
            )
        return live, path

    def test_replay_matches_live(self, traced_fig04):
        live, path = traced_fig04
        rebuilt = TimelineRecorder.from_trace(path)
        assert rebuilt.connections() == live.connections()
        for conn in live.connections():
            assert rebuilt.series(conn) == live.series(conn)
            assert rebuilt.loss_times(conn) == live.loss_times(conn)
            assert rebuilt.exp_times(conn) == live.exp_times(conn)
        assert rebuilt.marks == live.marks
        # two congested flows over a shared bottleneck must lose packets
        assert any(live.loss_times(c) for c in live.connections())


def _metric(exp_id, name):
    (m,) = [m for m in METRICS[exp_id] if m.name == name]
    return m


class TestFidelityGate:
    def _ledger(self, tmp_path, perturb=None):
        entry = ledger_entry("fig08", FIG08_TABLE)
        if perturb:
            name, factor = perturb
            ref = entry["metrics"][name]
            band = _metric("fig08", name).drift_band(ref)
            entry["metrics"][name] = ref + factor * band
        data = {"schema": FIDELITY_SCHEMA, "kind": "bench.fidelity", "scale": 0.05,
                "experiments": {"fig08": entry}}
        path = tmp_path / "BENCH_fidelity.json"
        write_json_atomic(path, data)
        return path, data

    def _drift(self, data, table=FIG08_TABLE):
        rows = evaluate("fig08", table, recorded(data, "fig08"))
        return {r["metric"]: r for r in rows if "drifted" in r}

    def test_entry_records_every_metric_and_no_band(self):
        entry = ledger_entry("fig08", FIG08_TABLE)
        assert set(entry) == {"digest", "metrics"}
        # claims and drift metrics alike; the bands stay in the code
        assert list(entry["metrics"]) == [m.name for m in METRICS["fig08"]]
        assert entry["metrics"]["loss_events"] == 12
        assert entry["metrics"]["loss_max_pkts"] == 900
        # a hybrid section's entry: the packet reference of what it compares
        hybrid = ledger_entry("fig08", FIG08_TABLE, hybrid=True)
        assert hybrid == {"metrics": {
            k: entry["metrics"][k]
            for k in ("loss_events", "loss_max_pkts", "loss_mean_pkts")
        }}

    def test_check_passes_within_tolerance(self, tmp_path):
        _path, data = self._ledger(tmp_path)
        drift = self._drift(data)
        assert set(drift) == {"loss_events", "loss_max_pkts", "loss_mean_pkts"}
        assert not any(r["drifted"] for r in drift.values())
        lines, failures = report(list(drift.values()), 0.05)
        assert failures == [] and any(line.endswith(" ok") for line in lines)

    def test_check_fails_beyond_tolerance(self, tmp_path):
        # ledger value pushed 2 bands away: the same table must now drift
        _path, data = self._ledger(tmp_path, perturb=("loss_max_pkts", 2.0))
        drift = self._drift(data)
        assert [k for k, r in drift.items() if r["drifted"]] == ["loss_max_pkts"]
        _lines, failures = report(list(drift.values()), 0.05)
        assert failures and "loss_max_pkts drifted" in failures[0]

    def test_check_stays_ok_within_band(self, tmp_path):
        _path, data = self._ledger(tmp_path, perturb=("loss_max_pkts", 0.5))
        assert not any(r["drifted"] for r in self._drift(data).values())

    def test_missing_current_figure_fails(self, tmp_path):
        """A result without the rows a metric reads is NaN: drifted."""
        _path, data = self._ledger(tmp_path)
        empty = ResultTable({**FIG08_RESULT, "rows": []})
        drift = self._drift(data, empty)
        assert drift and all(r["drifted"] for r in drift.values())
        assert drift["loss_mean_pkts"]["value"] is None
        _lines, failures = report(list(drift.values()), 0.05)
        assert "fig08: loss_mean_pkts drifted +nan beyond" in failures[-1]

    def test_empty_ledger_fails(self):
        rows = [r for r in evaluate("fig08", FIG08_TABLE, {}) if "drifted" in r]
        assert rows and all(r["drifted"] and r["recorded"] is None for r in rows)
        _lines, failures = report(rows, 0.05)
        assert failures[0] == "fig08: loss_events has no ledger value (run --update)"

    def test_cli_gate_passes_then_fails_on_perturbation(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        seed_cache(cache, "fig08", FIG08_RESULT)
        path, _data = self._ledger(tmp_path)
        argv = ["--gate", "--only", "fig08", "--ledger", str(path),
                "--cache-dir", str(cache)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "no drift beyond tolerance (3 metric(s))" in out
        assert "loss_max_pkts = 900.0 vs [1000, inf], held [150, inf]: deviates" in out

        path, _data = self._ledger(tmp_path, perturb=("loss_mean_pkts", 3.0))
        assert main(argv) == 1
        assert "loss_mean_pkts" in capsys.readouterr().err

    def test_cli_update_writes_ledger(self, tmp_path, capsys):
        """A ledger with no scale yet takes --scale, as the sweep does,
        and records it."""
        digest = seed_cache(tmp_path / "cache", "fig08", FIG08_RESULT)
        path = tmp_path / "ledger.json"
        where = ["--only", "fig08", "--ledger", str(path),
                 "--cache-dir", str(tmp_path / "cache")]
        assert main(["--update", *where, "--scale", "0.05"]) == 0
        data = read_ledger(path)
        assert data["scale"] == 0.05
        assert data["experiments"]["fig08"]["digest"] == digest
        assert data["experiments"]["fig08"]["metrics"]["loss_events"] == 12
        # and the fresh ledger immediately gates green, at its own scale
        assert main(["--gate", *where, "--scale", "0.3"]) == 0
        capsys.readouterr()

    def test_cli_update_hybrid_section_is_additive(self, tmp_path, capsys):
        """One --update for both tiers: a hybrid update records the
        same-scale packet reference in its own section and leaves the
        packet record alone; a packet update keeps the hybrid section.
        The hybrid gate then compares hybrid rows with that reference."""
        path, data = self._ledger(tmp_path)
        cache = tmp_path / "cache"
        where = ["--only", "fig08", "--ledger", str(path), "--cache-dir", str(cache)]
        # the hybrid section has no scale yet
        hybrid = ["--update", "--fidelity", "hybrid", "--scale", "1", *where]
        assert main(hybrid) == 1  # no packet reference swept yet
        assert "sweep --only fig08 --scale 1 --cache-dir" in capsys.readouterr().err

        seed_cache(cache, "fig08", FIG08_RESULT, scale=1.0)
        assert main(hybrid) == 0
        ledger = read_ledger(path)
        assert ledger["experiments"] == data["experiments"]
        section = ledger["hybrid"]
        assert section == {"scale": 1.0, "experiments": {
            "fig08": ledger_entry("fig08", FIG08_TABLE, hybrid=True)}}

        seed_cache(cache, "fig08", FIG08_RESULT)
        assert main(["--update", *where]) == 0
        assert read_ledger(path)["hybrid"] == section

        gate = ["--gate", "--fidelity", "hybrid", *where]
        seed_cache(cache, "fig08", FIG08_RESULT, scale=1.0, fidelity="hybrid")
        assert main(gate) == 0
        fewer = {**FIG08_RESULT, "rows": FIG08_RESULT["rows"][:4]}  # 12 -> 4 events
        seed_cache(cache, "fig08", fewer, scale=1.0, fidelity="hybrid")
        assert main(gate) == 1
        err = capsys.readouterr().err
        assert "fig08: loss_events drifted -8 beyond ±7.2" in err
        assert "claim" not in err  # claims are a packet-level matter

    def test_cli_update_keeps_host_timed_values(self, tmp_path, capsys):
        """fig09's values are host wall-clock: a re-sweep's new timings do
        not rewrite them, while fig08's values and fig09's digest follow."""
        cache, path = tmp_path / "cache", tmp_path / "ledger.json"
        where = ["--only", "fig08,fig09", "--ledger", str(path),
                 "--cache-dir", str(cache)]
        columns = ["structure", "insert mean", "insert max", "query mean",
                   "delete mean"]

        def sweep(us, lost):
            seed_cache(cache, "fig09", _result("fig09", columns, [
                ["range list (UDT)", us, 9.0, us, us],
                ["naive per-packet", 100 * us, 900.0, us, us],
            ]))
            rows = [[i + 1, n] for i, n in enumerate([lost, 900, 150, 720] * 3)]
            return seed_cache(cache, "fig08", _result("fig08", FIG08_RESULT["columns"], rows))

        sweep(1.71, 400)
        write_json_atomic(path, {"schema": FIDELITY_SCHEMA, "scale": 0.05,
                                 "experiments": {}})
        assert main(["--update", *where]) == 0
        before = read_ledger(path)["experiments"]
        assert before["fig09"]["metrics"]["range_insert_mean_us"] == 1.71
        fig08_digest = sweep(1.42, 500)
        assert main(["--update", *where]) == 0
        after = read_ledger(path)["experiments"]
        assert after["fig09"]["metrics"] == before["fig09"]["metrics"]
        assert after["fig08"]["digest"] == fig08_digest
        assert after["fig08"]["metrics"] != before["fig08"]["metrics"]
        capsys.readouterr()

    def test_cli_render_writes_svg(self, tmp_path, capsys):
        seed_cache(tmp_path / "cache", "fig08", FIG08_RESULT)
        path, _data = self._ledger(tmp_path)
        out = tmp_path / "figs"
        rc = main(["--render", str(out), "--only", "fig08", "--ledger", str(path),
                   "--cache-dir", str(tmp_path / "cache")])
        assert rc == 0
        svg = (out / "fig08.svg").read_text()
        assert _series_groups(svg)
        capsys.readouterr()

    def test_miss_names_the_sweep_that_fills_it(self, tmp_path, capsys):
        """Nothing here runs an experiment: a figure the cache lacks fails
        with the exact sweep line."""
        cache = ResultCache(tmp_path / "cache")
        table, reason = resolve_result("fig08", 0.05, cache)
        assert table is None
        assert reason.endswith(
            f"run: repro-udt sweep --only fig08 --scale 0.05 "
            f"--cache-dir {tmp_path / 'cache'}"
        )
        _, reason = resolve_result("fig08", 1.0, cache, fidelity="hybrid")
        assert "sweep --only fig08 --scale 1 --fidelity hybrid" in reason
        # and the gate turns that reason into a failure, not a run
        path, _data = self._ledger(tmp_path)
        argv = ["--gate", "--only", "fig08", "--ledger", str(path),
                "--cache-dir", str(cache.root)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "[fidelity] FAIL: fig08: no packet result at scale=0.05" in err
        assert "run: repro-udt sweep --only fig08 --scale 0.05" in err

    def test_committed_ledger_covers_acceptance_figures(self):
        """One record at one scale: every experiment's digest and every
        metric's value; the hybrid section only the packet reference its
        gate compares against.  No band, tolerance or verdict is stored."""
        from repro.experiments import REGISTRY
        from repro.obs.figures import DEFAULT_LEDGER

        data = read_ledger(DEFAULT_LEDGER)
        assert data["schema"] == FIDELITY_SCHEMA and data["scale"] == 0.05
        assert set(data["experiments"]) == set(REGISTRY)
        for exp_id, entry in data["experiments"].items():
            assert set(entry) == {"digest", "metrics"} and len(entry["digest"]) == 64
            assert set(entry["metrics"]) == {m.name for m in METRICS[exp_id]}, exp_id
        hybrid = data["hybrid"]
        assert set(hybrid) == {"scale", "experiments"}
        assert set(hybrid["experiments"]) == {"fig02", "fig04", "fig06", "fig08"}
        for fig_id, entry in hybrid["experiments"].items():
            assert set(entry) == {"metrics"}
            assert set(entry["metrics"]) == {m.name for m in asked(fig_id, hybrid=True)}
        text = DEFAULT_LEDGER.read_text()
        for word in ("tolerance", "band", "held", "verdict", "relative"):
            assert f'"{word}"' not in text, word

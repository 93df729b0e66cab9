"""Figure specs, SVG rendering round-trips, and the fidelity gate."""

import json
import xml.etree.ElementTree as ET

import pytest

from repro.obs.export import trace_session
from repro.obs.figspec import (
    SPECS,
    ResultTable,
    compute_metrics,
    get_spec,
    tolerances,
)
from repro.obs.figures import (
    check_fidelity,
    ledger_entry,
    main,
    read_ledger,
    resolve_result,
)
from repro.obs.svg import render_figure, render_timeline
from repro.obs.timeline import TimelineRecorder
from repro.runner.cache import ResultCache, write_json_atomic

_SVG = "{http://www.w3.org/2000/svg}"


def _table(exp_id, columns, rows, title="synthetic"):
    return ResultTable(
        {
            "exp_id": exp_id,
            "title": title,
            "columns": columns,
            "rows": rows,
            "notes": "",
            "paper_reference": "",
        }
    )


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


def _mark_groups(svg_text):
    """{(kind, conn): times} for annotation tick groups."""
    root = ET.fromstring(svg_text)
    out = {}
    for g in root.iter(_SVG + "g"):
        if g.get("class") == "marks":
            out[(g.get("data-kind"), g.get("data-conn"))] = json.loads(
                g.get("data-x")
            )
    return out


FIG02_TABLE = _table(
    "fig02",
    ["RTT (ms)", "UDT", "TCP"],
    [[1, 0.99, 0.97], [10, 0.98, 0.90], [100, 0.99, 0.70], [1000, 0.97, 0.40]],
)

FIG08_TABLE = _table(  # a dozen events, so fig08's claims hold on it too
    "fig08",
    ["loss event #", "lost packets"],
    [[i + 1, n] for i, n in enumerate([400, 900, 150, 720] * 3)],
)


class TestSpecRegistry:
    def test_acceptance_figures_have_specs_with_metrics(self):
        for fig_id in ("fig02", "fig04", "fig06", "fig08"):
            spec = get_spec(fig_id)
            assert spec is not None, fig_id
            assert spec.metrics, fig_id

    def test_every_spec_names_a_registered_experiment(self):
        from repro.experiments import REGISTRY

        assert set(SPECS) <= set(REGISTRY)

    def test_spec_shape(self):
        for fig_id, spec in SPECS.items():
            assert spec.fig_id == fig_id
            assert spec.kind in ("line", "bar")
            assert spec.series, fig_id
            names = [m.name for m in spec.metrics]
            assert len(names) == len(set(names)), fig_id
            # fig09's numbers are host timings: its claims bound them, no
            # ledger snapshots them (a drift band there gates the machine)
            assert names or fig_id == "fig09", fig_id
            assert all(m.tolerance > 0 for m in spec.metrics), fig_id

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
    """Satellite: TimelineRecorder.from_jsonl ≡ live bus on a traced fig04."""

    @pytest.fixture(scope="class")
    def traced_fig04(self, tmp_path_factory):
        from repro.experiments import fig04_stability

        path = str(tmp_path_factory.mktemp("trace") / "fig04.jsonl")
        live = TimelineRecorder()
        live.attach()
        try:
            with trace_session(path, generator="test", experiments=["fig04"]):
                fig04_stability.run(
                    n_flows=2, rate_bps=50e6, rtts=(0.02,), duration=6, seed=1
                )
        finally:
            live.detach()
        return live, path

    def test_replay_matches_live(self, traced_fig04):
        live, path = traced_fig04
        rebuilt = TimelineRecorder.from_jsonl(path)
        assert rebuilt.connections() == live.connections()
        for conn in live.connections():
            assert rebuilt.series(conn) == live.series(conn)
            assert rebuilt.loss_times(conn) == live.loss_times(conn)
            assert rebuilt.exp_times(conn) == live.exp_times(conn)
        assert rebuilt.marks == live.marks
        # two congested flows over a shared bottleneck must lose packets
        assert any(live.loss_times(c) for c in live.connections())

    def test_timeline_svg_matches_recorder(self, traced_fig04):
        _live, path = traced_fig04
        rec = TimelineRecorder.from_jsonl(path)
        svg = render_timeline(rec, max_points=10**9)  # stride 1: exact data
        assert svg is not None
        groups = _series_groups(svg)
        assert groups
        for conn, (ts, ys) in groups.items():
            samples = rec.series(conn)
            assert ts == [s.t for s in samples]
            assert ys == [s.rate_bps / 1e6 for s in samples]
        marks = _mark_groups(svg)
        for (kind, conn), times in marks.items():
            want = rec.loss_times(conn) if kind == "loss" else rec.exp_times(conn)
            assert times == want

    def test_timeline_empty_recorder_is_none(self):
        assert render_timeline(TimelineRecorder()) is None


class TestFidelityGate:
    def _ledger(self, tmp_path, perturb=None):
        spec = get_spec("fig08")
        entry = ledger_entry(spec, FIG08_TABLE, scale=0.05)
        if perturb:
            name, factor = perturb
            ref = entry["metrics"][name]
            allowed = entry["tolerances"][name]["tolerance"] * abs(ref)
            entry["metrics"][name] = ref + factor * allowed
        data = {"schema": 1, "kind": "bench.fidelity", "figures": {"fig08": entry}}
        path = tmp_path / "BENCH_fidelity.json"
        write_json_atomic(path, data)
        return path, data

    def test_entry_carries_metrics_and_tolerances(self):
        spec = get_spec("fig08")
        entry = ledger_entry(spec, FIG08_TABLE, scale=0.05)
        assert entry["scale"] == 0.05
        assert entry["metrics"]["loss_events"] == 12
        assert entry["metrics"]["loss_max_pkts"] == 900
        assert entry["tolerances"] == tolerances(spec)

    def test_check_passes_within_tolerance(self, tmp_path):
        path, data = self._ledger(tmp_path)
        current = {"fig08": compute_metrics(get_spec("fig08"), FIG08_TABLE)}
        failures, lines = check_fidelity(current, data)
        assert failures == []
        assert any("ok" in line for line in lines)

    def test_check_fails_beyond_tolerance(self, tmp_path):
        # ledger value pushed 2 bands away: the same table must now drift
        path, data = self._ledger(tmp_path, perturb=("loss_max_pkts", 2.0))
        current = {"fig08": compute_metrics(get_spec("fig08"), FIG08_TABLE)}
        failures, _ = check_fidelity(current, data)
        assert failures and "loss_max_pkts" in failures[0]

    def test_check_stays_ok_within_band(self, tmp_path):
        path, data = self._ledger(tmp_path, perturb=("loss_max_pkts", 0.5))
        current = {"fig08": compute_metrics(get_spec("fig08"), FIG08_TABLE)}
        failures, _ = check_fidelity(current, data)
        assert failures == []

    def test_missing_current_figure_fails(self, tmp_path):
        _path, data = self._ledger(tmp_path)
        failures, _ = check_fidelity({}, data)
        assert any("no current metrics" in f for f in failures)

    def test_empty_ledger_fails(self):
        failures, _ = check_fidelity({}, {"figures": {}})
        assert failures

    def _results_dir(self, tmp_path):
        rd = tmp_path / "results"
        rd.mkdir()
        (rd / "fig08.json").write_text(
            json.dumps(
                {
                    "exp_id": "fig08",
                    "result": {
                        "exp_id": "fig08",
                        "title": "synthetic",
                        "columns": FIG08_TABLE.columns,
                        "rows": FIG08_TABLE.rows,
                        "notes": "",
                        "paper_reference": "",
                    },
                }
            )
        )
        return rd

    def test_cli_gate_passes_then_fails_on_perturbation(self, tmp_path, capsys):
        rd = self._results_dir(tmp_path)
        path, _data = self._ledger(tmp_path)
        argv = [
            "--gate",
            "--only",
            "fig08",
            "--ledger",
            str(path),
            "--results",
            str(rd),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "no drift beyond tolerance" in out
        assert "loss_max_pkts = 900.0 vs [1000, inf], held [150, inf]: deviates" in out

        path, _data = self._ledger(tmp_path, perturb=("loss_mean_pkts", 3.0))
        assert main(argv) == 1
        assert "loss_mean_pkts" in capsys.readouterr().err

    def test_cli_update_writes_ledger(self, tmp_path, capsys):
        rd = self._results_dir(tmp_path)
        path = tmp_path / "ledger.json"
        rc = main(
            [
                "--update",
                "--only",
                "fig08",
                "--ledger",
                str(path),
                "--results",
                str(rd),
            ]
        )
        assert rc == 0
        data = read_ledger(path)
        assert data["figures"]["fig08"]["metrics"]["loss_events"] == 12
        # and the fresh ledger immediately gates green
        assert (
            main(
                ["--gate", "--only", "fig08", "--ledger", str(path),
                 "--results", str(rd)]
            )
            == 0
        )
        capsys.readouterr()

    def test_cli_update_hybrid_section_is_additive(self, tmp_path, capsys):
        """One --update tail for both tiers: a hybrid update adds its
        section (with the same-scale packet reference when one is
        already swept) and leaves the packet entry alone; a packet update
        re-snapshots the entry and keeps the hybrid section."""
        from repro.runner.digest import experiment_digest

        rd = self._results_dir(tmp_path)
        path, data = self._ledger(tmp_path)
        packet_entry = dict(data["figures"]["fig08"])
        cache = ResultCache(tmp_path / "cache")
        hybrid = ["--update", "--fidelity", "hybrid", "--only", "fig08",
                  "--ledger", str(path), "--results", str(rd),
                  "--cache-dir", str(cache.root)]
        assert main(hybrid) == 0
        fig08 = read_ledger(path)["figures"]["fig08"]
        assert {k: v for k, v in fig08.items() if k != "hybrid"} == packet_entry
        assert fig08["hybrid"]["scale"] == 0.05
        assert "packet_metrics" not in fig08["hybrid"]  # nothing swept yet
        assert "no same-scale packet reference" in capsys.readouterr().out

        digest, _ = experiment_digest("fig08", 0.05, fidelity="packet")
        cache.store(digest, json.loads((rd / "fig08.json").read_text()))
        assert main(hybrid) == 0
        section = read_ledger(path)["figures"]["fig08"]["hybrid"]
        assert section["packet_metrics"] == packet_entry["metrics"]

        packet = ["--update", "--only", "fig08", "--ledger", str(path),
                  "--results", str(rd)]
        assert main(packet) == 0
        fig08 = read_ledger(path)["figures"]["fig08"]
        assert fig08["hybrid"] == section
        assert fig08["metrics"] == packet_entry["metrics"]
        capsys.readouterr()

    def test_cli_render_writes_svg(self, tmp_path, capsys):
        rd = self._results_dir(tmp_path)
        out = tmp_path / "figs"
        rc = main(
            [
                "--render",
                str(out),
                "--only",
                "fig08",
                "--results",
                str(rd),
            ]
        )
        assert rc == 0
        svg = (out / "fig08.svg").read_text()
        assert _series_groups(svg)
        capsys.readouterr()

    def test_miss_names_the_sweep_that_fills_it(self, tmp_path, capsys):
        """Nothing here runs an experiment: a figure found in neither the
        results dir nor the cache fails with the exact sweep line."""
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
        from repro.obs.figures import DEFAULT_LEDGER

        data = read_ledger(DEFAULT_LEDGER)
        assert set(data["figures"]) == set(SPECS)
        for fig_id, spec in SPECS.items():
            entry = data["figures"][fig_id]
            assert set(entry["metrics"]) == {m.name for m in spec.metrics}, fig_id
            assert entry["tolerances"] == tolerances(spec), fig_id

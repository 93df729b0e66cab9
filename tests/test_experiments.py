"""Tests for experiment plumbing, the registry and fast runners."""

import json
import math
import subprocess
import sys
from dataclasses import asdict

import pytest

from repro.cli import main as cli_main
from repro.experiments import REGISTRY, get_experiment, list_experiments
from repro.experiments.common import ExperimentResult, RunArgs, mbps
from repro.obs import bus as OB
from repro.runner.sweep import worker_env
from repro.sim.engine import RunObserver, add_run_observer, remove_run_observer
from tests._collect import Collector, every_run
from repro.experiments.fig09_losslist import synth_loss_trace
from repro.experiments.table1_increase import run as run_table1


class TestExperimentResult:
    def test_add_and_column(self):
        r = ExperimentResult("x", "t", ["a", "b"])
        r.add(1, 2)
        r.add(3, 4)
        assert r.column("a") == [1, 3]
        assert r.column("b") == [2, 4]

    def test_row_arity_checked(self):
        r = ExperimentResult("x", "t", ["a", "b"])
        with pytest.raises(ValueError):
            r.add(1)

    def test_to_text_contains_everything(self):
        r = ExperimentResult("fig99", "demo", ["col"], notes="hello")
        r.add(3.14159)
        text = r.to_text()
        assert "fig99" in text and "col" in text and "3.14" in text
        assert "hello" in text

    def test_print(self, capsys):
        r = ExperimentResult("x", "t", ["a"])
        r.add(1)
        r.print()
        assert "x: t" in capsys.readouterr().out


class TestScaling:
    def test_scaled(self):
        assert RunArgs(scale=0.5).scaled(100.0) == 50.0

    def test_minimum_floor(self):
        assert RunArgs(scale=0.001).scaled(100.0, minimum=7.0) == 7.0

    def test_defaults(self):
        assert RunArgs() == RunArgs(0.3, "packet", "fifo")
        assert RunArgs(tie_break="lifo").net == {"fidelity": "packet", "tie_break": "lifo"}

    @pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_a_scale_that_is_not_positive_and_finite(self, scale):
        with pytest.raises(ValueError, match="scale"):
            RunArgs(scale=scale)

    @pytest.mark.parametrize("field", ["fidelity", "tie_break"])
    def test_rejects_an_unknown_tier_or_order(self, field):
        with pytest.raises(ValueError, match="quantum"):
            RunArgs(**{field: "quantum"})

    def test_mbps(self):
        assert mbps(1e6) == 1.0

    def test_one_process_runs_two_fidelities_and_two_scales(self):
        """A run is its arguments: the same rows in one process, cells
        interleaved, as in a fresh interpreter per cell."""
        kwargs = dict(rate_bps=20e6, rtts=(0.01,))
        cells = [(0.05, "packet"), (0.4, "hybrid"), (0.05, "hybrid"), (0.4, "packet")]
        runner = get_experiment("fig06").runner
        here = [
            asdict(runner(**kwargs, run_args=RunArgs(scale, fidelity)))["rows"]
            for scale, fidelity in cells
        ]
        code = (
            "import json, sys\n"
            "from dataclasses import asdict\n"
            "from repro.experiments import get_experiment\n"
            "from repro.experiments.common import RunArgs\n"
            "run_args = RunArgs(float(sys.argv[1]), sys.argv[2])\n"
            f"result = get_experiment('fig06').runner(**{kwargs!r}, run_args=run_args)\n"
            "print(json.dumps(asdict(result)['rows']))"
        )
        apart = [
            json.loads(subprocess.run(
                [sys.executable, "-c", code, str(scale), fidelity],
                env=worker_env(), check=True, capture_output=True, text=True,
            ).stdout)
            for scale, fidelity in cells
        ]
        assert [json.loads(json.dumps(rows)) for rows in here] == apart
        assert len({json.dumps(rows) for rows in apart}) == len(cells)


class TestRegistry:
    def test_every_paper_artefact_registered(self):
        ids = set(REGISTRY)
        expected = {
            "table1", "table2", "table3",
            "fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07",
            "fig08", "fig09", "fig11", "fig12", "fig13", "fig14", "fig15",
        }
        assert expected <= ids

    def test_ablations_registered(self):
        assert any(i.startswith("ablation-") for i in REGISTRY)

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_list(self):
        assert len(list_experiments()) == len(REGISTRY)

    @pytest.mark.parametrize("exp_id", sorted(REGISTRY))
    def test_entry_resolves_to_its_runner(self, exp_id):
        """A typo in a ``module``/``func`` string fails here, not in a sweep."""
        exp = REGISTRY[exp_id]
        assert exp.exp_id == exp_id
        assert callable(exp.runner)
        assert exp.runner.__module__ == exp.module
        assert exp.runner.__name__ == exp.func


class TestFastRunners:
    def test_table1_exact(self):
        """The one experiment cheap enough to hold to its claims here;
        the other 24 are gated on swept rows (tests/test_obs_claims.py)."""
        from repro.obs.claims import evaluate
        from repro.obs.figspec import ResultTable

        verdicts = evaluate("table1", ResultTable(run_table1()))
        assert verdicts and all(v["verdict"] == "pass" for v in verdicts)

    def test_table1_mss_correction(self):
        result = run_table1(mss=750)
        # corrected by 1500/MSS = 2x
        assert result.column("inc (ours)")[0] == pytest.approx(20.0)

    def test_loss_trace_shape(self):
        trace = synth_loss_trace(n_events=50, max_burst=100, seed=1)
        assert len(trace) == 50
        assert all(a <= b for a, b in trace)
        # disjoint and increasing
        for (a1, b1), (a2, b2) in zip(trace, trace[1:]):
            assert b1 < a2


class TestCli:
    def test_list_command(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig02" in out and "table1" in out

    def test_run_table1(self, capsys):
        assert cli_main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "increase parameter" in out
        assert "finished in" in out

    def test_run_unknown(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "nope"])
        assert exc.value.code == 2
        assert "known: " in capsys.readouterr().err

    def test_run_with_set_override(self, capsys):
        assert cli_main(["run", "table1", "--set", "mss=750"]) == 0
        out = capsys.readouterr().out
        assert "MSS=750" in out

    def test_bad_set_syntax_errors(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "table1", "--set", "nonsense"])

    @pytest.mark.parametrize("suffix", [".jsonl", ".rtrc"])
    @pytest.mark.parametrize(
        "argv, names",
        [
            (["nosuch"], "known: "),
            (["table1", "--set", "bogus=1"], "accepted: mss"),
            (["all", "--profile-json", "p.json"], "--profile-json"),
        ],
    )
    def test_usage_errors_leave_before_the_trace_is_opened(
        self, tmp_path, monkeypatch, capsys, argv, names, suffix
    ):
        """Entering ``traced`` truncates the file, so it comes last."""
        monkeypatch.chdir(tmp_path)
        trace = tmp_path / f"t{suffix}"
        trace.write_bytes(b"an earlier run's trace\n")
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", *argv, "--trace", str(trace)])
        assert exc.value.code == 2
        assert names in capsys.readouterr().err
        assert trace.read_bytes() == b"an earlier run's trace\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [trace.name]


class TestRunIsItsArguments:
    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("cmd", ["run", "sweep"])
    def test_a_scale_that_is_not_positive_and_finite_is_a_usage_error(
        self, tmp_path, capsys, cmd, scale
    ):
        argv = ["run", "table1"] if cmd == "run" else [
            "sweep", "--only", "table1", "--no-bench", "--cache-dir", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            cli_main([*argv, "--scale", scale])
        assert exc.value.code == 2
        assert "scale must be positive and finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fidelity, spans", [("packet", False), ("hybrid", True)])
    def test_run_builds_its_simulators_from_its_flags(self, capsys, fidelity, spans):
        """``run --tie-break lifo --fidelity F`` reaches every simulator and
        every network the runner builds, seen from outside the runner."""

        class TieBreaks(RunObserver):
            def __init__(self):
                self.seen = []

            def run_begin(self, sim, until):
                self.seen.append(sim.tie_break)

        ties, entered = TieBreaks(), Collector()
        add_run_observer(ties)
        try:
            with every_run(entered, kinds=(OB.FLUID_ENTER,)):
                assert cli_main([
                    "run", "fig02", "--tie-break", "lifo", "--fidelity", fidelity,
                    "--set", "duration=4", "--set", "rtts=(0.01,)", "--set", "n_flows=2",
                ]) == 0
        finally:
            remove_run_observer(ties)
        capsys.readouterr()
        assert ties.seen and set(ties.seen) == {"lifo"}
        assert bool(entered) == spans

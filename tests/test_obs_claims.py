"""The claims registry and the gate that evaluates it.

``tests/data/claims_rows.json`` holds the result tables of the committed
``scale=0.05`` sweep (fig08 cut to its first 300 loss events), so every
claim is exercised on rows a real run produced without running one.
"""

import json
import re
from pathlib import Path

import pytest
from hypothesis import Phase, find, settings
from hypothesis import strategies as st
from hypothesis.errors import NoSuchExample

from repro.experiments import REGISTRY
from repro.obs.claims import METRICS, Metric, _inside, evaluate, verdict
from repro.obs.figspec import SPECS, ResultTable
from repro.obs.figures import main
from repro.runner.cache import ResultCache
from repro.runner.digest import experiment_digest

ROOT = Path(__file__).resolve().parent.parent
ROWS = json.loads((Path(__file__).parent / "data" / "claims_rows.json").read_text())
COMMITTED = json.loads(
    (ROOT / "benchmarks" / "results" / "BENCH_claims.json").read_text()
)
CLAIMS = [(exp, m) for exp, ms in METRICS.items() for m in ms if m.is_claim]


def _verdict_on(exp_id, result, name):
    (row,) = [r for r in evaluate(exp_id, ResultTable(result)) if r["claim"] == name]
    return row["verdict"]


class TestRegistry:
    def test_every_experiment_has_a_claim(self):
        assert set(METRICS) == set(REGISTRY)
        for exp_id, metrics in METRICS.items():
            assert any(m.is_claim for m in metrics), exp_id
            names = [m.name for m in metrics]
            assert len(names) == len(set(names)), exp_id

    @pytest.mark.parametrize("exp_id, m", CLAIMS, ids=lambda v: getattr(v, "name", v))
    def test_claim_names_its_paper_sentence(self, exp_id, m):
        assert re.match(r"(§|Fig\. |Table )\d[^:]*: \S", m.says), m.says
        # a deviation is a band plus its reason, never one without the other
        assert (m.held is None) == (m.expected_deviation == "")
        if m.held is not None:  # and the held band is the wider one
            assert all(_inside(m.held, end) for end in (m.lo, m.hi) if end is not None)

    def test_every_metric_asks_something(self):
        for exp_id, metrics in METRICS.items():
            for m in metrics:
                assert m.is_claim or m.tolerance is not None, (exp_id, m.name)
                if m.tolerance is not None:
                    assert exp_id in SPECS and m.tolerance > 0, (exp_id, m.name)

    def test_verdicts(self):
        m = Metric("x", lambda t: 0.0, 0.9, None, says="§1: x", held=(0.5, None),
                   expected_deviation="because")
        assert verdict(m, 0.95) == "pass"
        assert verdict(m, 0.7) == "deviates"
        assert verdict(m, 0.2) == verdict(m, float("nan")) == "FAIL"


# One perturbation of a result: one numeric column (or a named scalar) —
# all of it, or one row — scaled, shifted or flattened to its mean; one of
# table1's "yes" cells broken; or the table cut to its first rows.
_OPS = st.sampled_from(
    [("scale", f) for f in (0.0, 0.01, 0.1, 0.5, 2.0, 10.0, 100.0, 1e4)]
    + [("add", 1.0), ("add", -1.0), ("flatten", None), ("truncate", None)]
)


def _perturbed(result, target, op, row):
    kind, amount = op
    out = json.loads(json.dumps(result))
    if kind == "truncate":
        out["rows"] = out["rows"][: 1 + (row or 0)]
        return out
    apply = {
        "scale": lambda v, _mean: v * amount,
        "add": lambda v, _mean: v + amount,
        "flatten": lambda _v, mean: mean,
    }[kind]
    if isinstance(target, str):
        out["scalars"][target] = apply(out["scalars"][target], 0.0)
        return out
    column = [r[target] for r in out["rows"]]
    numeric = [v for v in column if not isinstance(v, str)]
    mean = sum(numeric) / len(numeric) if numeric else 0.0
    rows = out["rows"] if row is None else [out["rows"][row % len(out["rows"])]]
    for r in rows:
        cell = r[target]
        if cell in ("yes", "no"):
            r[target] = "no"
        elif isinstance(cell, str) and cell[0].isdigit():  # table2's "a/b/c" bounds
            r[target] = "/".join(str(apply(float(x), 0.0)) for x in cell.split("/"))
        elif not isinstance(cell, str):
            r[target] = apply(cell, mean)
    return out


@pytest.mark.parametrize("exp_id, m", CLAIMS, ids=lambda v: getattr(v, "name", v))
def test_a_claim_can_fail(exp_id, m):
    """A claim that no change to a passing table can fail is not a claim."""
    result = ROWS[exp_id]
    assert _verdict_on(exp_id, result, m.name) != "FAIL"
    targets = list(range(1, len(result["columns"]))) + sorted(result["scalars"])
    perturbation = st.tuples(
        st.sampled_from(targets), _OPS, st.none() | st.integers(0, 11)
    )
    try:
        find(
            perturbation,
            lambda p: _verdict_on(exp_id, _perturbed(result, *p), m.name) == "FAIL",
            settings=settings(  # any witness will do: no shrinking
                max_examples=400, derandomize=True, database=None,
                phases=[Phase.generate],
            ),
        )
    except NoSuchExample:
        pytest.fail(f"{exp_id}: no perturbation makes {m.name} FAIL")


@pytest.mark.parametrize("exp_id", sorted(METRICS))
def test_a_table_without_rows_fails_every_claim(exp_id):
    """An empty selection is NaN, inside no band - never a vacuous 0.0."""
    empty = {**ROWS[exp_id], "rows": [], "scalars": {}}
    rows = evaluate(exp_id, ResultTable(empty))
    assert rows and {r["verdict"] for r in rows} == {"FAIL"}, rows


class TestCommittedVerdicts:
    def test_one_row_per_registered_claim_and_no_fail(self):
        assert COMMITTED["kind"] == "bench.claims" and COMMITTED["passed"]
        got = [(r["exp"], r["claim"]) for r in COMMITTED["claims"]]
        assert sorted(got) == sorted((exp, m.name) for exp, m in CLAIMS)
        for r in COMMITTED["claims"]:
            assert r["verdict"] in ("pass", "deviates"), r
            assert (r["verdict"] == "deviates") == bool(r.get("reason")), r
            assert r["scale"] == 0.05 and len(r["digest"]) == 64, r
        assert set(COMMITTED["drift"]) == set(SPECS)

    def test_experiments_md_claims_column_matches(self):
        """EXPERIMENTS.md's index table is read off the verdict table."""
        want = {}
        for r in COMMITTED["claims"]:
            tally = want.setdefault(r["exp"], {"pass": 0, "deviates": 0})
            tally[r["verdict"]] += 1
        text = (ROOT / "EXPERIMENTS.md").read_text()
        got = {
            m.group(1): {"pass": int(m.group(2)), "deviates": int(m.group(3))}
            for m in re.finditer(
                r"`repro-udt run (\S+)` \|.*\| (\d+) pass / (\d+) deviates \|$",
                text, re.M,
            )
        }
        assert got == want


class TestGate:
    def _results_dir(self, tmp_path, **perturb):
        rd = tmp_path / "results"
        rd.mkdir(exist_ok=True)
        for exp_id in ("table1", "fig06"):
            result = ROWS[exp_id]
            if exp_id in perturb:
                result = _perturbed(result, *perturb[exp_id])
            (rd / f"{exp_id}.json").write_text(
                json.dumps({"exp_id": exp_id, "digest": "d" * 64, "result": result})
            )
        return rd

    def test_claims_without_a_figure_spec(self, tmp_path, capsys):
        """table1 has claims and no FigureSpec: the gate takes it."""
        rd = self._results_dir(tmp_path)
        out_json = tmp_path / "claims.json"
        argv = ["--gate", "--only", "table1", "--results", str(rd),
                "--scale", "0.05", "--json", str(out_json)]
        assert main(argv) == 0
        doc = json.loads(out_json.read_text())
        assert [r["claim"] for r in doc["claims"]] == ["bands_matching"]
        assert doc["claims"][0]["digest"] == "d" * 64
        assert doc["drift"] == {} and doc["passed"]
        assert "1 claim(s) pass" in capsys.readouterr().out

    def test_deviates_exits_0_and_fail_exits_1(self, tmp_path, capsys):
        assert "fig06" in SPECS
        ledger = tmp_path / "ledger.json"
        rd = self._results_dir(tmp_path)
        base = ["--only", "fig06", "--results", str(rd), "--scale", "0.05",
                "--ledger", str(ledger)]
        assert main(["--update", *base]) == 0
        assert main(["--gate", *base]) == 0
        out = capsys.readouterr().out
        assert re.search(r"ratio_max_abs_err = \S+ vs \[-inf, 0.1\], held "
                         r"\[-inf, 0.55\]: deviates \(at 500-1000 ms", out)
        # the ratio column pushed out of the held band: drift and the claim
        self._results_dir(tmp_path, fig06=(1, ("scale", 0.1), None))
        assert main(["--gate", *base]) == 1
        err = capsys.readouterr().err
        assert "[fidelity] FAIL: fig06: claim ratio_max_abs_err = 0.9449" in err
        assert "stay within 10 % of equal throughput from 1 ms to 1000 ms" in err
        assert "fig06: ratio_max_abs_err drifted" in err

    def test_empty_cache_names_one_sweep_per_experiment(self, tmp_path, capsys):
        argv = ["--gate", "--scale", "0.05", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == len(REGISTRY)
        for exp_id, line in zip(REGISTRY, err):
            assert line.startswith(f"[fidelity] FAIL: {exp_id}: no packet result")
            assert line.count(f"run: repro-udt sweep --only {exp_id} --scale 0.05") == 1

    def test_claims_scale_is_the_sweeps_not_the_ledgers(self, tmp_path, capsys,
                                                        monkeypatch):
        """Without --scale every id's claims are looked up at REPRO_SCALE,
        as `repro-udt sweep` would have swept them - with or without a
        figure spec, whatever scale the drift ledger was snapshotted at."""
        cache = ResultCache(tmp_path / "cache")
        for exp_id in ("table1", "fig06"):
            digest, _ = experiment_digest(exp_id, 0.05)
            cache.store(digest, {"exp_id": exp_id, "result": ROWS[exp_id]})
        where = ["--cache-dir", str(cache.root), "--ledger", str(tmp_path / "l.json")]
        assert main(["--update", "--only", "fig06", "--scale", "0.05", *where]) == 0
        gate = ["--gate", "--only", "table1,fig06", *where]
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        assert main([*gate, "--json", str(tmp_path / "claims.json")]) == 0
        doc = json.loads((tmp_path / "claims.json").read_text())
        assert {(r["exp"], r["scale"]) for r in doc["claims"]} == {
            ("table1", 0.05), ("fig06", 0.05)}
        assert set(doc["drift"]) == {"fig06"}
        capsys.readouterr()
        # swept at another scale than the snapshot: both ids' claims miss at
        # the one scale asked, the drift check still finds its 0.05 rows
        monkeypatch.delenv("REPRO_SCALE")
        assert main(gate) == 1
        captured = capsys.readouterr()
        assert [
            re.sub(r".*FAIL: (\S+): no packet result at scale=(\S+) .*", r"\1 \2", l)
            for l in captured.err.splitlines()
        ] == ["table1 0.3", "fig06 0.3"]
        assert "[fidelity] fig06 (scale=0.05): 3 metric(s)" in captured.out

    def test_perturbed_cache_row_fails_by_name(self, tmp_path, capsys):
        cache = ResultCache(tmp_path / "cache")
        digest, _ = experiment_digest("table1", 0.05)
        entry = {"exp_id": "table1", "scale": 0.05, "result": ROWS["table1"]}
        cache.store(digest, entry)
        argv = ["--gate", "--only", "table1", "--scale", "0.05",
                "--cache-dir", str(cache.root)]
        assert main(argv) == 0
        entry["result"] = _perturbed(ROWS["table1"], 3, ("scale", 1.0), 2)
        cache.store(digest, entry)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "table1: claim bands_matching = 0.833333 vs [1, 1]" in err
        assert "Table 1: the increase parameter of formula (1)" in err

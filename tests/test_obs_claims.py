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
from repro.obs.figspec import ResultTable
from repro.obs.figures import DEFAULT_LEDGER, main, read_ledger
from tests._cache import seed_cache

ROOT = Path(__file__).resolve().parent.parent
ROWS = json.loads((Path(__file__).parent / "data" / "claims_rows.json").read_text())
COMMITTED = read_ledger(ROOT / DEFAULT_LEDGER)
CLAIMS = [(exp, m) for exp, ms in METRICS.items() for m in ms if m.is_claim]


def _verdict_on(exp_id, result, name):
    (row,) = [r for r in evaluate(exp_id, ResultTable(result)) if r["metric"] == name]
    return row["verdict"]


def _committed_verdicts():
    """(exp, claim) -> the verdict the code's bands give the ledger's value."""
    return {
        (exp_id, m.name): verdict(m, COMMITTED["experiments"][exp_id]["metrics"][m.name])
        for exp_id, m in CLAIMS
    }


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
                    assert m.tolerance > 0, (exp_id, m.name)

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
        """The ledger records a value per claim; the code's bands give the
        verdicts, and a deviation is never without its reason."""
        verdicts = _committed_verdicts()
        assert set(verdicts.values()) == {"pass", "deviates"}
        assert list(verdicts.values()).count("deviates") == 10
        for exp_id, m in CLAIMS:
            if verdicts[exp_id, m.name] == "deviates":
                assert m.expected_deviation, (exp_id, m.name)

    def test_experiments_md_claims_column_matches(self):
        """EXPERIMENTS.md's index table is the tally of the ledger's values
        under the code's bands."""
        want = {}
        for (exp_id, _name), v in _committed_verdicts().items():
            tally = want.setdefault(exp_id, {"pass": 0, "deviates": 0})
            tally[v] += 1
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
    def _seed(self, tmp_path, *exp_ids, **perturb):
        for exp_id in exp_ids:
            result = ROWS[exp_id]
            if exp_id in perturb:
                result = _perturbed(result, *perturb[exp_id])
            seed_cache(tmp_path / "cache", exp_id, result)
        return ["--cache-dir", str(tmp_path / "cache")]

    def test_claims_without_a_figure_spec(self, tmp_path, capsys):
        """table1 has claims and no FigureSpec: the gate takes it."""
        out_json = tmp_path / "gate.json"
        argv = ["--gate", "--only", "table1", *self._seed(tmp_path, "table1"),
                "--json", str(out_json)]
        assert main(argv) == 0
        doc = json.loads(out_json.read_text())
        assert doc["kind"] == "fidelity.gate" and doc["passed"] and doc["scale"] == 0.05
        assert [(r["metric"], r["verdict"]) for r in doc["rows"]] == [
            ("bands_matching", "pass")]
        assert "1 claim(s) pass" in capsys.readouterr().out

    def test_deviates_exits_0_and_fail_exits_1(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.json"
        base = ["--only", "fig06", *self._seed(tmp_path, "fig06"),
                "--ledger", str(ledger)]
        ledger.write_text('{"scale": 0.05}')
        assert main(["--update", *base]) == 0
        assert main(["--gate", *base]) == 0
        out = capsys.readouterr().out
        assert re.search(r"ratio_max_abs_err = \S+ vs \[-inf, 0.1\], held "
                         r"\[-inf, 0.55\]: deviates \(at 500-1000 ms", out)
        # the ratio column pushed out of the held band: drift and the claim
        self._seed(tmp_path, "fig06", fig06=(1, ("scale", 0.1), None))
        assert main(["--gate", *base]) == 1
        err = capsys.readouterr().err
        assert "[fidelity] FAIL: fig06: claim ratio_max_abs_err = 0.9449" in err
        assert "stay within 10 % of equal throughput from 1 ms to 1000 ms" in err
        assert "fig06: ratio_max_abs_err drifted" in err

    def test_empty_cache_names_one_sweep_per_experiment(self, tmp_path, capsys):
        argv = ["--gate", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == len(REGISTRY)
        for exp_id, line in zip(REGISTRY, err):
            assert line.startswith(f"[fidelity] FAIL: {exp_id}: no packet result")
            assert line.count(f"run: repro-udt sweep --only {exp_id} --scale 0.05") == 1

    def test_every_row_is_read_at_the_ledgers_scale(self, tmp_path, capsys):
        """A gate against a cache swept at the committed ledger's scale
        passes whatever --scale says: claims and drift, with a figure spec
        or without, are read at the one scale the ledger records."""
        ids = ("table1", "fig09", "fig06")
        where = self._seed(tmp_path, *ids)
        out_json = tmp_path / "gate.json"
        assert main(["--gate", "--only", ",".join(ids), *where, "--scale", "0.3",
                     "--json", str(out_json)]) == 0
        doc = json.loads(out_json.read_text())
        assert doc["scale"] == 0.05 and doc["passed"]
        assert {r["exp"] for r in doc["rows"] if "verdict" in r} == set(ids)
        assert {r["exp"] for r in doc["rows"] if "drifted" in r} == {"fig06"}
        assert "[fidelity] fig06 (scale=0.05): 2 claim(s), 3 drift metric(s)" in (
            capsys.readouterr().out)

    def test_perturbed_cache_row_fails_by_name(self, tmp_path, capsys):
        argv = ["--gate", "--only", "table1", *self._seed(tmp_path, "table1")]
        assert main(argv) == 0
        self._seed(tmp_path, "table1", table1=(3, ("scale", 1.0), 2))
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "table1: claim bands_matching = 0.833333 vs [1, 1]" in err
        assert "Table 1: the increase parameter of formula (1)" in err

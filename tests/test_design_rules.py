"""Design rules that no behavioural test can see.

Each test states one rule of DESIGN.md by reading the checkout's files
(it runs nothing and writes nothing).  A rule lands here only when a
seeded regression of it passes every behavioural test; where one fails
(a module-level bus, a map by sequence number, an import pointing
upward, a second module testing a trace suffix) that test is the rule's
home and nothing here repeats it.  DESIGN.md names both kinds.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def _hits(paths, pattern):
    """``file:line`` of every line of ``paths`` matching ``pattern``."""
    return [
        f"{path.relative_to(ROOT)}:{n}"
        for path in sorted(paths)
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]


def test_no_pytest_tree_reruns_the_experiments():
    """DESIGN.md, "The evidence pipeline": each paper claim is stated once
    (repro.obs.claims) and checked on the rows the sweep wrote, so no
    benchmark test runs an experiment beside the sweep worker."""
    assert sorted(ROOT.glob("benchmarks/**/test_bench_*.py")) == []
    assert "pytest-benchmark" not in (ROOT / "pyproject.toml").read_text()


def test_the_results_directory_admits_two_records():
    """DESIGN.md, "The evidence pipeline": one record per question,
    BENCH_runtime.json and BENCH_fidelity.json; everything else a run
    writes under benchmarks/results/ stays out of the repository."""
    lines = (ROOT / ".gitignore").read_text().splitlines()
    assert "benchmarks/results/*" in lines
    assert {line for line in lines if line.startswith("!benchmarks/results/")} == {
        "!benchmarks/results/BENCH_runtime.json",
        "!benchmarks/results/BENCH_fidelity.json",
    }


def test_readers_of_the_evidence_pipeline_never_set_the_environment():
    """DESIGN.md, "The evidence pipeline": repro.obs looks results up;
    only the sweep worker runs an experiment, with the arguments its
    parent passed."""
    sets_env = re.compile(
        r"os\.environ\[[^]]*\]\s*=[^=]|os\.environ\.(update|setdefault|pop)\(|os\.putenv\("
    )
    assert _hits((SRC / "obs").rglob("*.py"), sets_env) == []


def test_a_run_is_its_arguments():
    """DESIGN.md, "A run is its arguments": scale, fidelity and tie-break
    reach a run as arguments; the simulator and the experiments read no
    environment, but for ``Network``'s one fallback for callers that pass
    no tier."""
    environ = re.compile(r"os\.environ|os\.getenv|os\.putenv")
    paths = [*(SRC / "experiments").rglob("*.py"), *(SRC / "sim").rglob("*.py")]
    hits = [
        (path.relative_to(SRC).as_posix(), line.strip())
        for path in sorted(paths)
        for line in path.read_text(encoding="utf-8").splitlines()
        if environ.search(line)
    ]
    assert hits == [
        ("sim/topology.py", 'fidelity = os.environ.get("REPRO_FIDELITY", "packet")')
    ]


def test_a_live_endpoint_reads_every_datagram_into_its_one_buffer():
    """DESIGN.md, "The UDT data plane" (the live binding): the receive
    thread reads with recvfrom_into into the endpoint's one buffer, and
    decode copies the payload out; no allocation per datagram."""
    assert _hits((SRC / "live").rglob("*.py"), re.compile(r"recvfrom\(")) == []


def test_a_package_that_reexports_nothing_imports_nothing():
    """DESIGN.md, "Dependency direction": repro, repro.obs and
    repro.runner hold a docstring and no import, so naming a submodule
    loads that submodule and a cache key walks no re-export."""
    for init in ("__init__.py", "obs/__init__.py", "runner/__init__.py"):
        tree = ast.parse((SRC / init).read_text(encoding="utf-8"))
        imports = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        assert imports == [], (init, imports)

"""The benchmark harness's names resolve in ``src/``.

``benchmarks/perf`` drives the package from outside: its tracer wraps
methods and functions by name, and its workloads import builders and
read statistics fields by name.  A name that goes missing fails the
traced run, so tier-1 resolves every one of them the way the harness
does, without running a workload.
"""

import ast
import importlib
import importlib.util
import re
from dataclasses import fields
from pathlib import Path

PERF = Path(__file__).resolve().parents[1] / "benchmarks" / "perf"


def _tracer():
    spec = importlib.util.spec_from_file_location("perf_tracer", PERF / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_wraps_resolves_as_install_finds_it():
    tracer = _tracer()
    for module, cls_name, methods in tracer.METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        for m in methods:
            assert callable(cls.__dict__[m]), f"{cls_name}.{m}"
    for module, fn_name, aliases in tracer.FUNCTIONS:
        fn = importlib.import_module(module).__dict__[fn_name]
        for alias_module, alias in aliases:
            assert importlib.import_module(alias_module).__dict__[alias] is fn


def test_every_name_the_harness_imports_from_the_package_exists():
    """Covers ``flow_start`` and ``traced`` in ``repro.experiments.common``
    and every builder, flow and endpoint a workload or layer probe uses."""
    imported = set()
    for path in sorted(PERF.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                imported |= {(node.module, alias.name) for alias in node.names}
    assert ("repro.experiments.common", "flow_start") in imported
    assert ("repro.experiments.common", "traced") in imported
    for module, name in sorted(imported):
        found = hasattr(importlib.import_module(module), name)
        assert found or importlib.util.find_spec(f"{module}.{name}"), f"{module}.{name}"


def test_every_stats_field_the_workloads_read_exists():
    from repro.tcp.agent import TcpStats
    from repro.udt.core import UdtStats

    known = {f.name for cls in (UdtStats, TcpStats) for f in fields(cls)}
    read = set(re.findall(r"stats\.(\w+)", (PERF / "workloads.py").read_text()))
    assert read and read <= known, sorted(read - known)

"""Stable run digests: what identifies an experiment's output.

A cached result may be reused only while nothing that could change the
experiment's output has changed.  The digest therefore covers:

* the experiment id and its runner keyword overrides,
* the run's duration scale and fidelity tier (its ``RunArgs``), and
* the *content* of every source file the run can execute.

Source relevance is computed statically: starting from the module the
registry names for the experiment (no experiment is imported to compute
a digest), the AST import graph is walked and every reachable module
inside the ``repro`` package is hashed.  The walk is conservative — it
follows ``import``/``from ... import`` statements anywhere in a file
(including function bodies, so lazy imports count) — which makes the key
safe: an edit to any reachable file invalidates the entry, and files
outside the closure (other experiments, docs, tests) do not.

Hashes are pure functions of file bytes and the payload is serialised
with sorted keys, so digests are stable across processes, platforms and
``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import ast
import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

#: Digest payload schema; bump to invalidate every existing cache entry.
#: v2: the fidelity tier (packet vs hybrid, docs/SIMULATION.md) joined
#: the payload so the two modes can never alias in the result cache.
DIGEST_SCHEMA = 2

#: The package whose files participate in digests.
PKG_NAME = "repro"

PKG_ROOT = Path(__file__).resolve().parent.parent  # .../src/repro
SRC_ROOT = PKG_ROOT.parent  # .../src

#: (path, mtime_ns, size) -> sha256 hex; an in-process cache so a 25-way
#: sweep hashes each shared file once, not 25 times.
_file_hash_cache: Dict[Tuple[str, int, int], str] = {}
#: (path, mtime_ns, size, module) -> the names it imports; the same for
#: the AST walk, so a gate looking 25 experiments up parses
#: each shared file once.
_imports_cache: Dict[Tuple[str, int, int, str], Set[str]] = {}


def module_file(modname: str) -> Optional[Path]:
    """Map a dotted module name to its file inside the repro package."""
    if modname != PKG_NAME and not modname.startswith(PKG_NAME + "."):
        return None
    parts = modname.split(".")[1:]
    base = PKG_ROOT.joinpath(*parts) if parts else PKG_ROOT
    candidate = base.with_suffix(".py")
    if candidate.is_file():
        return candidate
    init = base / "__init__.py"
    if init.is_file():
        return init
    return None


def _imported_names(path: Path, modname: str) -> Set[str]:
    """Every dotted name a file imports (memoised per process on (mtime, size))."""
    st = path.stat()
    key = (str(path), st.st_mtime_ns, st.st_size, modname)
    if key not in _imports_cache:
        _imports_cache[key] = _parse_imports(path, modname)
    return _imports_cache[key]


def _parse_imports(path: Path, modname: str) -> Set[str]:
    """Every dotted name a file imports (absolute and resolved-relative)."""
    try:
        tree = ast.parse(path.read_bytes(), filename=str(path))
    except SyntaxError:
        return set()
    names: Set[str] = set()
    # The package a relative import resolves against: the module's own
    # package (its parent for plain modules, itself for __init__.py).
    if path.name == "__init__.py":
        pkg_parts = modname.split(".")
    else:
        pkg_parts = modname.split(".")[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                anchor = pkg_parts[: len(pkg_parts) - (node.level - 1)]
                base = ".".join(anchor + ([node.module] if node.module else []))
            if base:
                names.add(base)
            # ``from repro.experiments import ablations`` reaches the
            # submodule through the alias, not through ``base`` itself.
            for alias in node.names:
                if alias.name != "*" and base:
                    names.add(f"{base}.{alias.name}")
    return names


def import_closure(roots: Iterable[str]) -> List[Path]:
    """All repro-package files statically reachable from ``roots``.

    ``roots`` are dotted module names (e.g. ``repro.experiments.fig02_fairness``).
    Returns sorted, de-duplicated paths.  Importing a package pulls in its
    ``__init__.py``, and so does importing anything beneath it (Python
    runs every ancestor package's ``__init__.py`` first); attribute
    imports of submodules are followed too.
    """
    seen: Dict[str, Path] = {}
    stack = [r for r in roots]
    visited_names: Set[str] = set()
    while stack:
        name = stack.pop()
        if name in visited_names:
            continue
        visited_names.add(name)
        path = module_file(name)
        if path is None:
            continue
        if name not in seen:
            seen[name] = path
            stack.append(name.rpartition(".")[0])
            for imported in _imported_names(path, name):
                if imported.startswith(PKG_NAME):
                    stack.append(imported)
    return sorted(set(seen.values()))


def file_sha256(path: Path) -> str:
    """Content hash of one file (memoised per process on (mtime, size))."""
    st = path.stat()
    key = (str(path), st.st_mtime_ns, st.st_size)
    cached = _file_hash_cache.get(key)
    if cached is not None:
        return cached
    h = hashlib.sha256(path.read_bytes()).hexdigest()
    _file_hash_cache[key] = h
    return h


def _canon_overrides(overrides: Optional[dict]) -> List[List[str]]:
    """Overrides as a sorted, repr-serialised list (tuples survive)."""
    if not overrides:
        return []
    return [[str(k), repr(overrides[k])] for k in sorted(overrides)]


def experiment_digest(
    exp_id: str,
    scale: float,
    overrides: Optional[dict] = None,
    fidelity: str = "packet",
) -> Tuple[str, Dict[str, str]]:
    """Digest for one experiment run.

    Returns ``(hex_digest, file_hashes)`` where ``file_hashes`` maps each
    source file (relative to ``src/``) to its content sha256.  Two
    processes on two machines computing this for the same tree, scale,
    fidelity tier and overrides get the same answer.
    """
    from repro.experiments import get_experiment

    files = import_closure([get_experiment(exp_id).module])
    file_hashes = {
        str(p.relative_to(SRC_ROOT)): file_sha256(p) for p in files
    }
    payload = {
        "schema": DIGEST_SCHEMA,
        "exp_id": exp_id,
        "scale": repr(float(scale)),
        "fidelity": str(fidelity),
        "overrides": _canon_overrides(overrides),
        "files": file_hashes,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest(), file_hashes

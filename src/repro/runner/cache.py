"""Digest-keyed result cache for experiment runs.

Layout: one ``<digest>.json`` file per entry under the cache root
(default ``.repro-cache/``, override with ``REPRO_CACHE_DIR``).  Entries
hold the serialised :class:`~repro.experiments.common.ExperimentResult`
plus timing metadata; the digest in the filename is the only key, so a
change to the experiment's config, scale or source closure simply misses
(see :mod:`repro.runner.digest`) and stale entries age out harmlessly.

Writes are atomic (tmp file + ``os.replace``) so a killed sweep never
leaves a half-written entry; unreadable or schema-mismatched entries are
deleted on load and counted in :attr:`ResultCache.corrupt_dropped`.

The runtime and fidelity ledgers are JSON objects on disk too, and share
this module's :func:`read_json_object` / :func:`write_json_atomic` pair.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional

#: Entry layout version; bump when the stored shape changes.
CACHE_SCHEMA = 1

_HEX = set("0123456789abcdef")


def read_json_object(path: Path) -> Dict[str, Any]:
    """The JSON object stored at ``path``, or ``{}``.

    A missing, unparsable or non-object file reads as empty: the ledgers
    are merge-updated, so "nothing there yet" and "nothing usable there"
    start from the same place.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (FileNotFoundError, json.JSONDecodeError):
        return {}
    return data if isinstance(data, dict) else {}


def write_json_atomic(
    path: Path, data: Dict[str, Any], indent: Optional[int] = 2
) -> Path:
    """Write ``data`` to ``path`` through a tmp file + ``os.replace``.

    ``indent=2`` is the committed-ledger layout (reviewable diffs);
    ``indent=None`` the compact one-line form cache entries use.  The tmp
    name carries the pid so concurrent writers never share it.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(
            data, f, indent=indent, sort_keys=True,
            separators=None if indent else (",", ":"),
        )
        f.write("\n")
    os.replace(tmp, path)
    return path


def default_cache_dir() -> Path:
    """``REPRO_CACHE_DIR`` if set, else ``.repro-cache`` in the cwd."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro-cache"))


class ResultCache:
    """A directory of digest-named JSON entries."""

    def __init__(self, root: Optional[Path] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.corrupt_dropped = 0

    def path(self, digest: str) -> Path:
        if len(digest) != 64 or not set(digest) <= _HEX:
            raise ValueError(f"not a sha256 hex digest: {digest!r}")
        return self.root / f"{digest}.json"

    def load(self, digest: str) -> Optional[Dict[str, Any]]:
        """The cached entry for ``digest``, or None.

        A file that cannot be parsed, or whose schema/digest fields do not
        match, is treated as corruption: it is removed so the experiment
        re-runs and the next store rewrites it cleanly.
        """
        path = self.path(digest)
        try:
            with open(path, "r", encoding="utf-8") as f:
                entry = json.load(f)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError, UnicodeDecodeError):
            self._drop(path)
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("schema") != CACHE_SCHEMA
            or entry.get("digest") != digest
            or "result" not in entry
        ):
            self._drop(path)
            return None
        return entry

    def store(self, digest: str, entry: Dict[str, Any]) -> Path:
        """Atomically write ``entry`` under ``digest``; returns the path."""
        entry = dict(entry)
        entry["schema"] = CACHE_SCHEMA
        entry["digest"] = digest
        return write_json_atomic(self.path(digest), entry, indent=None)

    def _drop(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
        self.corrupt_dropped += 1

    def __contains__(self, digest: str) -> bool:
        return self.load(digest) is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ResultCache {self.root}>"

"""Docs lint: :func:`run_checks`, run by ``tests/test_docs_tools.py``.

Three checks over the repo's markdown
(README.md, DESIGN.md, EXPERIMENTS.md, ROADMAP.md, CHANGES.md and
everything under docs/):

* **links** — every relative markdown link resolves to a file in the
  repo, and every ``#anchor`` fragment matches a heading in the target
  file (GitHub slug rules: lowercase, punctuation dropped, spaces to
  dashes, duplicate slugs suffixed ``-1``, ``-2``, ...).
* **flags** — every quoted ``repro-udt <cmd> ...`` command line only
  uses flags the live argparse tree actually accepts (walked via
  :mod:`repro.analysis.clidoc`), so prose can't advertise an option
  that was renamed or never existed.
* **events** — every dotted event-kind token from a known family
  (``link.drop``, ``fluid.enter``, ...) names an entry in
  :data:`repro.obs.catalog.CATALOG`; docs can't describe events the
  bus never emits.

Checks are purely textual/static — no experiment runs — so the tier-1
test finishes in seconds.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Set, Tuple

#: Markdown files the checks cover, relative to the repo root.
DOC_FILES = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "CHANGES.md",
)
DOC_GLOBS = ("docs/*.md",)

#: Event-kind families whose dotted tokens must exist in the catalog.
EVENT_FAMILIES = (
    "conn",
    "snd",
    "cc",
    "exp",
    "rcv",
    "link",
    "queue",
    "cpu",
    "flow",
    "pkt",
    "fluid",
    "trace",
)

#: Dotted tokens that look like event kinds but are not bus events.
EVENT_ALLOWLIST = {
    "trace.meta",  # JSONL header record, intentionally outside the catalog
    # attribute references, not kinds
    "pkt.size",
    "pkt.seq",
    "link.delay",
    "link.dst",
    "flow.flow_id",
    "flow.arrival_flow_id",
    "flow.sender",
    "flow.throughput_bps",
    "cc.fluid_tick",
    "queue.drop_threshold",
    # hot-path profiler categories (repro.obs.prof), not bus events
    "cc.exp_timer",
    "cc.send_timer",
    "cc.syn_timer",
    "link.transmit",
    "link.drain",
}

#: Dotted suffixes that mark file/module mentions, never event kinds.
_NON_EVENT_SUFFIXES = ("py", "md", "json", "jsonl", "rtrc", "gz", "svg", "html")

_LINK_RE = re.compile(r"(?<!!)\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$", re.MULTILINE)
_CODE_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)
_INLINE_CODE_RE = re.compile(r"`([^`]+)`")
_CMD_RE = re.compile(r"\brepro-udt\s+([a-z][\w-]*(?:\s+[a-z][\w-]*)?)")
_FLAG_RE = re.compile(r"(--[A-Za-z][\w-]*)")
_EVENT_RE = re.compile(
    r"\b(" + "|".join(EVENT_FAMILIES) + r")\.([a-z][a-z0-9_]*)\b"
)


def repo_docs(root: Path) -> List[Path]:
    files = [root / name for name in DOC_FILES if (root / name).exists()]
    for pattern in DOC_GLOBS:
        files.extend(sorted(root.glob(pattern)))
    return files


# -- anchors ---------------------------------------------------------------


def github_slug(heading: str, seen: Dict[str, int]) -> str:
    """GitHub's anchor slug for one heading, tracking duplicates."""
    # strip inline code/links/formatting before slugging
    text = re.sub(r"`([^`]*)`", r"\1", heading)
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    slug = text.replace(" ", "-")
    n = seen.get(slug, 0)
    seen[slug] = n + 1
    return slug if n == 0 else f"{slug}-{n}"


def heading_anchors(text: str) -> Set[str]:
    seen: Dict[str, int] = {}
    return {github_slug(m.group(2), seen) for m in _HEADING_RE.finditer(text)}


def check_links(doc: Path, text: str, root: Path) -> List[str]:
    errors: List[str] = []
    # links inside code fences are examples, not navigation
    stripped = _CODE_FENCE_RE.sub("", text)
    for m in _LINK_RE.finditer(stripped):
        target = m.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, anchor = target.partition("#")
        if not path_part:
            dest = doc
        else:
            dest = (doc.parent / path_part).resolve()
            if not dest.exists():
                errors.append(f"{doc.relative_to(root)}: broken link -> {target}")
                continue
        if anchor and dest.suffix == ".md":
            anchors = heading_anchors(dest.read_text(encoding="utf-8"))
            if anchor not in anchors:
                errors.append(
                    f"{doc.relative_to(root)}: missing anchor -> {target}"
                )
    return errors


# -- CLI flags --------------------------------------------------------------


def _doc_command_lines(text: str) -> Iterable[str]:
    """Every ``repro-udt ...`` line quoted in fences or inline code."""
    for fence in re.findall(r"```(?:\w*\n)?(.*?)```", text, re.DOTALL):
        for line in fence.splitlines():
            if "repro-udt" in line:
                yield line
    for code in _INLINE_CODE_RE.findall(_CODE_FENCE_RE.sub("", text)):
        if "repro-udt" in code:
            yield code


def check_flags(doc: Path, text: str, root: Path) -> List[str]:
    from repro.analysis.clidoc import known_flags

    flags_by_cmd = known_flags()
    errors: List[str] = []
    for line in _doc_command_lines(text):
        matches = list(_CMD_RE.finditer(line))
        for i, m in enumerate(matches):
            words = m.group(1).split()
            # longest command path that exists wins ("trace query" > "trace")
            cmd = None
            for take in (2, 1):
                candidate = " ".join(words[:take])
                if candidate in flags_by_cmd:
                    cmd = candidate
                    break
            if cmd is None:
                # not a leaf command mention ("repro-udt trace" is prose)
                continue
            # flags belong to this command only up to the next quoted
            # command on the same line
            end = matches[i + 1].start() if i + 1 < len(matches) else len(line)
            tail = line[m.end() : end]
            for flag in _FLAG_RE.findall(tail):
                if flag not in flags_by_cmd[cmd]:
                    errors.append(
                        f"{doc.relative_to(root)}: 'repro-udt {cmd}' has no "
                        f"{flag} (line: {line.strip()[:80]})"
                    )
    return errors


# -- event kinds ------------------------------------------------------------


def check_events(doc: Path, text: str, root: Path) -> List[str]:
    from repro.obs.catalog import CATALOG

    errors: List[str] = []
    for m in _EVENT_RE.finditer(text):
        kind = m.group(0)
        if kind in CATALOG or kind in EVENT_ALLOWLIST:
            continue
        if m.group(2) in _NON_EVENT_SUFFIXES:
            continue  # a file name like link.py, not an event kind
        errors.append(
            f"{doc.relative_to(root)}: event kind {kind!r} is not in "
            "repro/obs/catalog.py (doc drift?)"
        )
    return errors


# -- driver -----------------------------------------------------------------


def run_checks(root: Path, checks: Sequence[str]) -> Tuple[List[str], int]:
    errors: List[str] = []
    docs = repo_docs(root)
    for doc in docs:
        text = doc.read_text(encoding="utf-8")
        if "links" in checks:
            errors.extend(check_links(doc, text, root))
        if "flags" in checks:
            errors.extend(check_flags(doc, text, root))
        if "events" in checks:
            errors.extend(check_events(doc, text, root))
    return errors, len(docs)


"""CLI reference generation: ``python -m repro.analysis.clidoc``.

docs/API.md's CLI section used to be hand-written and drifted (sweep
flags were missing).  This
module walks the *real* argparse tree (:func:`repro.cli.build_parser`)
and renders the reference from it, so the docs are structurally unable
to disagree with ``repro-udt --help``.  Running the module regenerates
the marked block inside docs/API.md; :func:`check_doc` is the drift
check tier-1 runs (``tests/test_docs_tools.py``).

The same walk feeds :mod:`repro.analysis.docscheck`, which validates
every ``repro-udt`` command line quoted anywhere in the docs against
the set of flags that actually exist.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

BEGIN_MARK = "<!-- BEGIN CLI REFERENCE (generated by `python -m repro.analysis.clidoc`; do not edit by hand) -->"
END_MARK = "<!-- END CLI REFERENCE -->"

#: docs/API.md of the checkout this module lives in, whatever the cwd.
DEFAULT_DOC = Path(__file__).resolve().parents[3] / "docs" / "API.md"


def _subparsers(parser: argparse.ArgumentParser) -> Dict[str, argparse.ArgumentParser]:
    """name -> parser for a parser's subcommands ({} when it has none)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


def _subcommand_help(parser: argparse.ArgumentParser) -> Dict[str, str]:
    """name -> the ``add_parser(help=...)`` line of each subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return {
                pseudo.dest: pseudo.help or ""
                for pseudo in action._choices_actions
            }
    return {}


def walk_commands(
    parser: argparse.ArgumentParser, prefix: str = ""
) -> Iterator[Tuple[str, argparse.ArgumentParser, str]]:
    """Yield ("run", parser, help), ("trace query", parser, help), ..."""
    helps = _subcommand_help(parser)
    for name, sub in _subparsers(parser).items():
        path = f"{prefix} {name}".strip()
        if _subparsers(sub):
            yield from walk_commands(sub, path)
        else:
            yield path, sub, sub.description or helps.get(name, "")


def command_flags(parser: argparse.ArgumentParser) -> Set[str]:
    """Every option string a command accepts (``--help`` included)."""
    flags: Set[str] = set()
    for action in parser._actions:
        flags.update(action.option_strings)
    return flags


def known_flags() -> Dict[str, Set[str]]:
    """command path -> accepted flags, for every leaf ``repro-udt`` command."""
    from repro.cli import build_parser

    parser, _subs = build_parser()
    return {path: command_flags(sub) for path, sub, _help in walk_commands(parser)}


def _action_rows(parser: argparse.ArgumentParser) -> List[Tuple[str, str]]:
    """(rendered invocation, help) rows for one command's table."""
    rows: List[Tuple[str, str]] = []
    for action in parser._actions:
        if isinstance(action, (argparse._HelpAction, argparse._SubParsersAction)):
            continue
        if action.help is argparse.SUPPRESS:
            continue
        if action.option_strings:
            name = ", ".join(action.option_strings)
            if action.choices is not None:
                name += " {" + ",".join(str(c) for c in action.choices) + "}"
            elif action.nargs != 0:
                name += f" {action.metavar or action.dest.upper()}"
        else:
            name = action.metavar or action.dest
            if action.nargs in ("?", "*"):
                name = f"[{name}]"
        rows.append((name, " ".join((action.help or "").split())))
    return rows


def _escape_cell(s: str) -> str:
    return s.replace("|", "\\|")


def generate_reference() -> str:
    """The full markdown CLI reference for ``repro-udt``."""
    from repro.cli import build_parser

    parser, _subs = build_parser()
    out: List[str] = [
        "Generated from the live argparse tree by "
        "`python -m repro.analysis.clidoc`; `tests/test_docs_tools.py` "
        "fails tier-1 when this block and the code disagree.",
        "",
    ]
    for path, sub, help_text in walk_commands(parser):
        help_line = " ".join(help_text.split())
        out.append(f"### `repro-udt {path}`")
        out.append("")
        if help_line:
            out.append(help_line)
            out.append("")
        rows = _action_rows(sub)
        if rows:
            out.append("| argument | description |")
            out.append("|---|---|")
            for name, help_text in rows:
                out.append(f"| `{_escape_cell(name)}` | {_escape_cell(help_text)} |")
            out.append("")
    return "\n".join(out).rstrip() + "\n"


def render_block() -> str:
    return f"{BEGIN_MARK}\n\n{generate_reference()}\n{END_MARK}"


def _split_doc(text: str, doc: Path) -> Tuple[str, str, str]:
    """(before, block, after) around the marked region; raises if absent."""
    try:
        head, rest = text.split(BEGIN_MARK, 1)
        block, tail = rest.split(END_MARK, 1)
    except ValueError:
        raise SystemExit(
            f"{doc}: CLI reference markers not found; expected a block "
            f"delimited by\n  {BEGIN_MARK}\n  {END_MARK}"
        )
    return head, block, tail


def write_doc(doc: Path) -> bool:
    """Regenerate the marked block in ``doc``; True if the file changed."""
    text = doc.read_text(encoding="utf-8")
    head, _old, tail = _split_doc(text, doc)
    new = head + render_block() + tail
    if new == text:
        return False
    doc.write_text(new, encoding="utf-8")
    return True


def check_doc(doc: Path) -> List[str]:
    """Drift errors between ``doc``'s committed block and the live tree."""
    text = doc.read_text(encoding="utf-8")
    _head, block, _tail = _split_doc(text, doc)
    want = f"\n\n{generate_reference()}\n"
    if block == want:
        return []
    return [
        f"{doc}: CLI reference is stale — regenerate with "
        "`python -m repro.analysis.clidoc`"
    ]


def main(argv: Optional[List[str]] = None) -> int:
    argparse.ArgumentParser(
        prog="python -m repro.analysis.clidoc",
        description="Regenerate the repro-udt CLI reference in docs/API.md "
        "from the live argparse tree.",
    ).parse_args(argv)
    changed = write_doc(DEFAULT_DOC)
    print(f"[clidoc] {DEFAULT_DOC}: {'updated' if changed else 'already current'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

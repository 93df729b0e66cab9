"""Docs tooling tests: clidoc (CLI reference generation) and docscheck.

``test_committed_reference_is_current`` and
``test_committed_docs_are_clean`` are the docs gate: they run both
checks over the committed tree, so ``pytest`` alone catches a stale CLI
reference, a broken link, an unknown flag or an undeclared event kind.
"""

from pathlib import Path

from repro.analysis import clidoc, docscheck

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestClidoc:
    def test_reference_covers_once_missing_flags(self):
        # the flags whose omission motivated generating the reference
        ref = clidoc.generate_reference()
        assert "--trace-dir" in ref
        assert "--sanitize" in ref
        assert "--fidelity" in ref

    def test_walk_recurses_into_nested_subcommands(self):
        flags = clidoc.known_flags()
        assert "sweep" in flags
        assert "--fidelity" in flags["sweep"]
        assert "--trace-dir" in flags["sweep"]
        assert "--sanitize" in flags["lint"]
        # nested leaves appear under their full path, not the group name
        assert "trace query" in flags
        assert "trace" not in flags

    def test_committed_reference_is_current(self):
        # regenerate with: python -m repro.analysis.clidoc
        assert clidoc.check_doc(REPO_ROOT / "docs" / "API.md") == []

    def test_check_detects_stale_block(self, tmp_path):
        doc = tmp_path / "API.md"
        doc.write_text(
            f"# API\n\n{clidoc.BEGIN_MARK}\nstale text\n{clidoc.END_MARK}\n",
            encoding="utf-8",
        )
        assert clidoc.check_doc(doc)
        assert clidoc.write_doc(doc) is True
        assert clidoc.check_doc(doc) == []
        # idempotent: a second write changes nothing
        assert clidoc.write_doc(doc) is False


class TestGithubSlug:
    def test_code_span_content_is_kept(self):
        seen = {}
        slug = docscheck.github_slug("Hot-path profiler (`repro.obs.prof`)", seen)
        assert slug == "hot-path-profiler-reproobsprof"

    def test_duplicates_get_numeric_suffix(self):
        seen = {}
        assert docscheck.github_slug("Setup", seen) == "setup"
        assert docscheck.github_slug("Setup", seen) == "setup-1"
        assert docscheck.github_slug("Setup", seen) == "setup-2"


class TestDocscheck:
    def test_committed_docs_are_clean(self):
        errors, n_docs = docscheck.run_checks(
            REPO_ROOT, ["links", "flags", "events"]
        )
        assert errors == []
        assert n_docs >= 5

    def test_broken_link_is_reported(self, tmp_path):
        (tmp_path / "README.md").write_text(
            "see [missing](docs/NOPE.md) for details\n", encoding="utf-8"
        )
        errors, _n = docscheck.run_checks(tmp_path, ["links"])
        assert len(errors) == 1
        assert "broken link" in errors[0]

    def test_missing_anchor_is_reported(self, tmp_path):
        (tmp_path / "DESIGN.md").write_text("# Design\n\n## Engine\n", encoding="utf-8")
        (tmp_path / "README.md").write_text(
            "[engine](DESIGN.md#engine) and [bogus](DESIGN.md#no-such)\n",
            encoding="utf-8",
        )
        errors, _n = docscheck.run_checks(tmp_path, ["links"])
        assert len(errors) == 1
        assert "missing anchor" in errors[0]

    def test_unknown_flag_is_reported(self, tmp_path):
        (tmp_path / "README.md").write_text(
            "run `repro-udt sweep --no-such-flag 1.0` to reproduce\n",
            encoding="utf-8",
        )
        errors, _n = docscheck.run_checks(tmp_path, ["flags"])
        assert len(errors) == 1
        assert "--no-such-flag" in errors[0]

    def test_real_flag_passes(self, tmp_path):
        (tmp_path / "README.md").write_text(
            "run `repro-udt sweep --fidelity hybrid --scale 1.0`\n",
            encoding="utf-8",
        )
        errors, _n = docscheck.run_checks(tmp_path, ["flags"])
        assert errors == []

    def test_flags_do_not_bleed_across_commands_on_one_line(self, tmp_path):
        # two commands quoted on one line: each owns only its own tail
        (tmp_path / "README.md").write_text(
            "`repro-udt conform out.rtrc  # then: repro-udt lint "
            "--sanitize fig02`\n",
            encoding="utf-8",
        )
        errors, _n = docscheck.run_checks(tmp_path, ["flags"])
        assert errors == []

    def test_unknown_event_kind_is_reported(self, tmp_path):
        (tmp_path / "README.md").write_text(
            "the bus emits fluid.enter and fluid.wormhole events\n",
            encoding="utf-8",
        )
        errors, _n = docscheck.run_checks(tmp_path, ["events"])
        assert len(errors) == 1
        assert "fluid.wormhole" in errors[0]

    def test_file_names_are_not_event_kinds(self, tmp_path):
        (tmp_path / "README.md").write_text(
            "see link.py and cpu.py; traces live in trace.rtrc files\n",
            encoding="utf-8",
        )
        errors, _n = docscheck.run_checks(tmp_path, ["events"])
        assert errors == []

"""``repro-udt explain``: one screen on one run, and why its cache
lookup missed."""

import json
import tempfile

import pytest

import repro.runner.digest as digest_mod
from repro.cli import main as cli_main
from repro.obs.explain import miss_cause
from repro.runner.digest import SRC_ROOT, experiment_digest
from tests._cache import seed_cache

#: The cheapest cell that simulates: two UDT flows for 20 virtual s.
EXP = "ablation-control-channel"
SCALE = 0.05
PARTS = (
    "wall ",
    "cache ",
    "-- wall time by layer --",
    "-- events by kind --",
    "-- fidelity tiers --",
    "-- last CC state per connection --",
    "-- recent runtimes (BENCH_runtime.json history) --",
)


def _explain(capsys):
    assert cli_main(["explain", EXP, "--scale", str(SCALE)]) == 0
    return capsys.readouterr().out


def test_one_screen_then_the_changed_file_is_the_miss_cause(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    digest = seed_cache(tmp_path / ".repro-cache", EXP, {"rows": []}, scale=SCALE)
    bench = tmp_path / "benchmarks" / "results" / "BENCH_runtime.json"
    bench.parent.mkdir(parents=True)
    bench.write_text(json.dumps({"history": {EXP: [
        {"ts": "2026-08-01T00:00:00Z", "sha": "aaa1111", "seconds": 3.4, "scale": SCALE},
        {"ts": "2026-08-02T00:00:00Z", "sha": "bbb2222", "seconds": 61.0, "scale": 1.0},
    ]}}))

    out = _explain(capsys)
    for part in PARTS:
        assert part in out, part
    assert f"cache  hit ({digest[:12]} in .repro-cache)" in out
    assert "udt.core" in out  # a layer of the profile
    assert "cc.sample" in out and "B/event" in out
    assert "packet tier throughout (40.000s virtual" in out
    assert "a-snd: t=" in out and "b-snd: t=" in out
    # the same-scale runtime only
    assert "aaa1111" in out and "bbb2222" not in out
    # the temporary trace is gone
    assert list(tmp_path.glob("**/*.rtrc")) == []

    _, files = experiment_digest(EXP, SCALE)
    target = sorted(files)[0]
    real = digest_mod.file_sha256

    def tweaked(path):
        h = real(path)
        return h[::-1] if path.relative_to(SRC_ROOT).as_posix() == target else h

    monkeypatch.setattr(digest_mod, "file_sha256", tweaked)
    missed, _ = experiment_digest(EXP, SCALE)
    out = _explain(capsys)
    assert f"cache  miss ({missed[:12]}): changed {target}\n" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["explain", "no-such-exp"],
        ["explain", "all"],
        ["explain", EXP, "--set", "bogus=1"],
        ["explain", EXP, "--scale", "0"],
    ],
)
def test_usage_errors_exit_2_before_anything_runs(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    assert "== explain" not in capsys.readouterr().out


class TestMissCause:
    FILES = {"repro/a.py": "1", "repro/b.py": "2"}

    def test_entry_without_files_map(self):
        assert miss_cause({"exp_id": "x"}, self.FILES, {}) == (
            "cause unknown (entry predates the files map)"
        )

    def test_changed_added_removed_and_overrides(self):
        old = {"files": {"repro/a.py": "0", "repro/c.py": "3"}}
        assert miss_cause(old, self.FILES, {"duration": 4}) == (
            "changed repro/a.py; added repro/b.py; removed repro/c.py; "
            "overrides duration=4"
        )

    def test_nothing_differs(self):
        cause = miss_cause({"files": dict(self.FILES)}, self.FILES, {})
        assert cause == "no file or override differs (the digest schema changed)"

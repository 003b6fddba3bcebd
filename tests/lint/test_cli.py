"""CLI surface: ``netrs lint`` dispatch, exit codes, --stats, JSON output,
and the acceptance criterion that the shipped tree is clean."""

import json
import pathlib

import pytest

from repro.cli import main as netrs_main
from repro.lint.cli import main as lint_main
from repro.lint.rules import RULES

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"


@pytest.fixture
def bad_tree(tmp_path, monkeypatch):
    """A tiny tree with one DET005 finding; cwd moved there so the CLI's
    relative paths are exercised hermetically."""
    (tmp_path / "m.py").write_text("def f(xs=[]): pass\n")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_shipped_tree_lints_clean():
    """`netrs lint src/repro` must exit 0 on the final tree (ISSUE 3)."""
    assert SRC_REPRO.is_dir()
    exit_code = lint_main([str(SRC_REPRO)])
    assert exit_code == 0


def test_findings_mean_exit_one(bad_tree, capsys):
    assert lint_main(["m.py"]) == 1
    out = capsys.readouterr().out
    assert "DET005" in out and "m.py:1:10" in out


def test_netrs_lint_subcommand_dispatches(bad_tree, capsys):
    assert netrs_main(["lint", "m.py"]) == 1
    assert "DET005" in capsys.readouterr().out


def test_stats_mode_prints_per_rule_counts_and_totals(bad_tree, capsys):
    exit_code = lint_main(["m.py", "--stats"])
    assert exit_code == 1
    out = capsys.readouterr().out
    assert "per-rule finding counts:" in out
    for rule_id in RULES:
        assert rule_id in out
    assert "files analyzed:    1" in out
    assert "findings:          1" in out


def test_json_output_and_output_file(bad_tree):
    exit_code = lint_main(["m.py", "--format", "json", "--output", "report.json"])
    assert exit_code == 1
    payload = json.loads((bad_tree / "report.json").read_text())
    assert payload["stats"]["per_rule"]["DET005"] == 1
    assert [f["rule"] for f in payload["findings"]] == ["DET005"]


def test_list_rules_and_explain(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULES:
        assert rule_id in out
    assert lint_main(["--explain", "det005"]) == 0
    assert "DET005" in capsys.readouterr().out
    assert lint_main(["--explain", "NOPE999"]) == 2


def test_github_format_emits_error_annotations(bad_tree, capsys):
    assert lint_main(["m.py", "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("::error file=m.py,line=1,col=10,title=DET005::DET005 ")
    assert "\n" == out[-1]


def test_github_format_is_silent_when_clean(bad_tree, capsys):
    (bad_tree / "m.py").write_text("VALUE = 1\n")
    assert lint_main(["m.py", "--format", "github"]) == 0
    assert capsys.readouterr().out == ""


def test_missing_path_is_a_usage_error(bad_tree):
    assert lint_main(["does-not-exist/"]) == 2

"""Engine behaviour: noqa suppression, file walking, JSON schema."""

import json

from repro.lint import lint_paths, lint_source
from repro.lint.engine import iter_python_files, parse_suppressions
from repro.lint.findings import JSON_REPORT_VERSION

BAD_LINE = "def f(xs=[]): pass\n"


# ---------------------------------------------------------------------------
# noqa suppressions
# ---------------------------------------------------------------------------


def test_noqa_with_matching_rule_suppresses():
    source = BAD_LINE.rstrip() + "  # repro: noqa(DET005)\n"
    assert lint_source(source, path="m.py") == []


def test_noqa_bare_suppresses_every_rule():
    source = BAD_LINE.rstrip() + "  # repro: noqa\n"
    assert lint_source(source, path="m.py") == []


def test_noqa_with_other_rule_does_not_suppress():
    source = BAD_LINE.rstrip() + "  # repro: noqa(DET004)\n"
    findings = lint_source(source, path="m.py")
    assert [f.rule for f in findings] == ["DET005"]


def test_noqa_only_covers_its_own_line():
    source = BAD_LINE.rstrip() + "  # repro: noqa(DET005)\n" + BAD_LINE
    findings = lint_source(source, path="m.py")
    assert [(f.rule, f.line) for f in findings] == [("DET005", 2)]


def test_noqa_accepts_multiple_rules_case_insensitively():
    source = BAD_LINE.rstrip() + "  # repro: NOQA(det004, DET005)\n"
    assert lint_source(source, path="m.py") == []


def test_parse_suppressions_maps_lines():
    got = parse_suppressions(
        "a = 1\nb = 2  # repro: noqa(DET004,SIM001)\nc = 3  # repro: noqa\n"
    )
    assert got == {2: {"DET004", "SIM001"}, 3: None}


# ---------------------------------------------------------------------------
# file walking and report shape
# ---------------------------------------------------------------------------


def test_iter_python_files_is_sorted_and_deduplicated(tmp_path):
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "a.py").write_text("x = 1\n")
    sub = tmp_path / "pkg"
    sub.mkdir()
    (sub / "c.py").write_text("x = 1\n")
    (sub / "notes.txt").write_text("not python\n")
    files = iter_python_files([str(tmp_path), str(tmp_path / "a.py")])
    names = [f.rsplit("/", 1)[-1] for f in files]
    assert names == ["a.py", "b.py", "c.py"]


def test_syntax_errors_are_reported_not_raised(tmp_path):
    (tmp_path / "broken.py").write_text("def f(:\n")
    report = lint_paths([str(tmp_path)], display_relative_to=str(tmp_path))
    assert not report.clean
    assert [f.rule for f in report.parse_errors] == ["PARSE"]


def test_json_report_schema(tmp_path):
    (tmp_path / "m.py").write_text(BAD_LINE)
    report = lint_paths([str(tmp_path)], display_relative_to=str(tmp_path))
    payload = report.to_json()
    assert payload["version"] == JSON_REPORT_VERSION
    assert payload["files_analyzed"] == 1
    assert set(payload) == {
        "version", "files_analyzed", "suppressed",
        "findings", "parse_errors", "stats",
    }
    (finding,) = payload["findings"]
    assert set(finding) == {"rule", "path", "line", "col", "message"}
    assert finding["rule"] == "DET005"
    assert finding["path"] == "m.py"  # relative, machine-independent
    # Stats are zero-filled over every registered rule.
    assert set(payload["stats"]) == {"per_rule"}
    per_rule = payload["stats"]["per_rule"]
    assert per_rule["DET005"] == 1
    assert per_rule["DET004"] == 0
    # The report must be JSON-serialisable as-is.
    json.dumps(payload)


def test_reports_are_deterministic(tmp_path):
    (tmp_path / "a.py").write_text(BAD_LINE + "def g(ys={}): pass\n")
    (tmp_path / "b.py").write_text("def f(env):\n    return env.now == 1.0\n")
    first = lint_paths([str(tmp_path)], display_relative_to=str(tmp_path))
    second = lint_paths([str(tmp_path)], display_relative_to=str(tmp_path))
    assert json.dumps(first.to_json()) == json.dumps(second.to_json())

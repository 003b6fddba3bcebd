"""CLI for the static lint: ``netrs lint`` / ``python -m repro.lint``.

Exit codes: 0 clean (or all findings suppressed), 1 findings or
parse errors, 2 usage errors.  ``--format json`` emits the machine-readable
report consumed by CI (schema: :data:`repro.lint.findings.JSON_REPORT_VERSION`);
``--format github`` emits ``::error`` workflow annotations so findings show
up inline on pull-request diffs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.lint.engine import LintReport, lint_paths
from repro.lint.rules import RULES, explain


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netrs lint",
        description="static AST lint for simulation invariants",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=[],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="report format (default: text; github = workflow annotations)",
    )
    parser.add_argument(
        "--output",
        default="",
        help="write the report to a file instead of stdout",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print per-rule finding counts and analyzed-file totals",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    parser.add_argument(
        "--explain",
        metavar="RULE",
        default="",
        help="print one rule's documentation and exit",
    )
    return parser


def _render_text(report: LintReport, *, stats: bool) -> str:
    lines: List[str] = []
    for finding in report.parse_errors:
        lines.append(finding.format_text())
    for finding in report.findings:
        lines.append(finding.format_text())
    if stats:
        lines.append("")
        lines.append("per-rule finding counts:")
        for rule_id, count in report.per_rule_counts().items():
            rule = RULES.get(rule_id)
            title = rule.title if rule is not None else ""
            lines.append(f"  {rule_id:8s} {count:4d}  {title}")
        lines.append(f"files analyzed:    {report.files_analyzed}")
        lines.append(f"findings:          {len(report.findings)}")
        lines.append(f"noqa-suppressed:   {report.suppressed}")
    elif report.clean:
        lines.append(
            f"ok: {report.files_analyzed} files analyzed, "
            f"no findings "
            f"({report.suppressed} suppressed)"
        )
    else:
        lines.append(
            f"{len(report.findings)} finding(s) in "
            f"{report.files_analyzed} files"
        )
    return "\n".join(lines) + "\n"


def _annotation_escape(text: str, *, property_value: bool = False) -> str:
    """Escape per GitHub's workflow-command rules (order matters: % first)."""
    text = text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    if property_value:
        text = text.replace(":", "%3A").replace(",", "%2C")
    return text


def _render_github(report: LintReport) -> str:
    """``::error`` annotation per finding (empty output when clean)."""
    lines: List[str] = []
    for finding in [*report.parse_errors, *report.findings]:
        location = ",".join(
            (
                f"file={_annotation_escape(finding.path, property_value=True)}",
                f"line={finding.line}",
                f"col={finding.col}",
                f"title={_annotation_escape(finding.rule, property_value=True)}",
            )
        )
        message = _annotation_escape(f"{finding.rule} {finding.message}")
        lines.append(f"::error {location}::{message}")
    return "".join(line + "\n" for line in lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id in sorted(RULES):
            print(f"{rule_id:8s} {RULES[rule_id].title}")
        return 0
    if args.explain:
        try:
            print(explain(args.explain.upper()))
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    paths = list(args.paths)
    if not paths:
        paths = ["src/repro"] if os.path.isdir("src/repro") else ["."]

    try:
        report = lint_paths(paths)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        rendered = json.dumps(report.to_json(), indent=2) + "\n"
    elif args.format == "github":
        rendered = _render_github(report)
    else:
        rendered = _render_text(report, stats=args.stats)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    else:
        sys.stdout.write(rendered)

    return 0 if report.clean else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

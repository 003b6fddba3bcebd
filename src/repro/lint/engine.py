"""Analysis driver: walk files, run checkers, apply noqa suppressions.

The engine is deterministic end to end -- files are discovered in sorted
order, checkers run in sorted rule order, and findings sort by location --
so two runs over the same tree produce byte-identical reports (the same
property the simulator itself guarantees, applied to its own tooling).

Suppressions use a project-specific marker so they cannot collide with
flake8/ruff semantics::

    t = rng.exponential(scale)  # repro: noqa(PERF001) - mixed-family stream
    anything = ...              # repro: noqa           (all rules)
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError
from repro.lint import checkers as _checkers  # noqa: F401 - registers rules
from repro.lint.findings import JSON_REPORT_VERSION, Finding
from repro.lint.rules import RULES, ModuleContext, checkers_for

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\s*\(\s*(?P<rules>[A-Za-z0-9_\-,\s]+)\s*\))?",
    re.IGNORECASE,
)


def parse_suppressions(source: str) -> Dict[int, Optional[Set[str]]]:
    """Map 1-based line numbers to suppressed rule ids.

    ``None`` means the line suppresses *every* rule (bare ``repro: noqa``).
    """
    suppressions: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if not match:
            continue
        spec = match.group("rules")
        if spec is None:
            suppressions[lineno] = None
        else:
            rules = {
                token.strip().upper().replace("-", "")
                for token in spec.split(",")
                if token.strip()
            }
            suppressions[lineno] = rules
    return suppressions


def is_suppressed(
    finding: Finding, suppressions: Dict[int, Optional[Set[str]]]
) -> bool:
    rules = suppressions.get(finding.line, "absent")
    if rules == "absent":
        return False
    if rules is None:
        return True
    return finding.rule.replace("-", "") in rules


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs if d not in ("__pycache__", ".git")
                )
                for name in sorted(names):
                    if name.endswith(".py"):
                        files.append(os.path.join(root, name))
        else:
            raise ConfigurationError(f"no such file or directory: {path!r}")
    return sorted(dict.fromkeys(os.path.normpath(f) for f in files))


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding]
    files_analyzed: int
    suppressed: int = 0
    parse_errors: List[Finding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings and not self.parse_errors

    def per_rule_counts(self) -> Dict[str, int]:
        """Finding count per registered rule (zero-filled, sorted keys)."""
        counts = {rule_id: 0 for rule_id in sorted(RULES)}
        for finding in self.findings:
            counts.setdefault(finding.rule, 0)
            counts[finding.rule] += 1
        return counts

    def to_json(self) -> Dict[str, object]:
        return {
            "version": JSON_REPORT_VERSION,
            "files_analyzed": self.files_analyzed,
            "suppressed": self.suppressed,
            "findings": [f.to_json() for f in sorted(self.findings)],
            "parse_errors": [f.to_json() for f in sorted(self.parse_errors)],
            "stats": {"per_rule": self.per_rule_counts()},
        }


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one module given as text (the unit-test entry point).

    Returns findings after noqa suppression, sorted by location.
    """
    findings, _suppressed = _lint_module(source, path)
    return sorted(findings)


def _lint_module(source: str, path: str) -> Tuple[List[Finding], int]:
    tree = ast.parse(source, filename=path)
    module = ModuleContext(path=path, tree=tree, source=source)
    raw: List[Finding] = []
    for checker in checkers_for(module):
        raw.extend(checker.run())
    suppressions = parse_suppressions(source)
    kept = [f for f in raw if not is_suppressed(f, suppressions)]
    return kept, len(raw) - len(kept)


def lint_paths(
    paths: Sequence[str],
    *,
    display_relative_to: Optional[str] = None,
) -> LintReport:
    """Lint every ``.py`` file under ``paths``.

    ``display_relative_to`` rebases reported paths (defaults to the current
    working directory when files live under it) so findings are
    machine-independent.
    """
    files = iter_python_files(paths)
    base_dir = display_relative_to or os.getcwd()
    all_findings: List[Finding] = []
    parse_errors: List[Finding] = []
    suppressed = 0
    for file_path in files:
        display = _display_path(file_path, base_dir)
        try:
            with open(file_path, "r", encoding="utf-8") as handle:
                source = handle.read()
            findings, skipped = _lint_module(source, display)
        except SyntaxError as exc:
            parse_errors.append(
                Finding(
                    path=display,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    rule="PARSE",
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        suppressed += skipped
        all_findings.extend(findings)

    return LintReport(
        findings=sorted(all_findings),
        files_analyzed=len(files),
        suppressed=suppressed,
        parse_errors=sorted(parse_errors),
    )


def _display_path(file_path: str, base_dir: str) -> str:
    absolute = os.path.abspath(file_path)
    base = os.path.abspath(base_dir)
    if absolute == base or absolute.startswith(base + os.sep):
        return os.path.relpath(absolute, base).replace(os.sep, "/")
    return absolute.replace(os.sep, "/")

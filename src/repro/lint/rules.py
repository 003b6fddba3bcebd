"""Rule registry for the static lint.

Each rule couples an identifier (``DET004`` ...) with human documentation
(rationale, a violating example, the idiomatic fix) and the AST checker class
that detects it.  The registry is the single source of truth consumed by the
engine (which checkers to run) and the CLI (``--list-rules`` /
``--explain``).

Registering is done with the :func:`register_rule` class decorator::

    @register_rule(
        rule_id="DET999",
        title="...",
        rationale="...",
        example_bad="...",
        example_fix="...",
    )
    class Det999Checker(Checker):
        ...
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Type

from repro.errors import ConfigurationError
from repro.lint.findings import Finding


@dataclass
class ModuleContext:
    """Everything a checker may need about the module under analysis."""

    path: str  #: display path (as reported in findings)
    tree: ast.Module
    source: str

    def posix_path(self) -> str:
        return self.path.replace("\\", "/")


class Checker(ast.NodeVisitor):
    """Base class for rule checkers: one instance per (rule, module).

    Subclasses visit the module AST and call :meth:`report` for violations.
    """

    rule_id: str = ""

    def __init__(self, module: ModuleContext) -> None:
        self.module = module
        self.findings: List[Finding] = []

    def report(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.module.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule=self.rule_id,
                message=message,
            )
        )

    def run(self) -> List[Finding]:
        self.visit(self.module.tree)
        return self.findings


@dataclass(frozen=True)
class Rule:
    """Metadata and checker for one lint rule."""

    rule_id: str
    title: str
    rationale: str
    example_bad: str
    example_fix: str
    checker: Type[Checker]


#: rule id -> Rule, in registration order.
RULES: Dict[str, Rule] = {}


def register_rule(
    *,
    rule_id: str,
    title: str,
    rationale: str,
    example_bad: str,
    example_fix: str,
):
    """Class decorator binding a :class:`Checker` under ``rule_id``."""

    def decorate(cls: Type[Checker]) -> Type[Checker]:
        if rule_id in RULES:
            raise ConfigurationError(f"lint rule {rule_id!r} already registered")
        cls.rule_id = rule_id
        RULES[rule_id] = Rule(
            rule_id=rule_id,
            title=title,
            rationale=rationale,
            example_bad=example_bad,
            example_fix=example_fix,
            checker=cls,
        )
        return cls

    return decorate


def get_rule(rule_id: str) -> Rule:
    """Look up one rule, raising :class:`ConfigurationError` if unknown."""
    rule = RULES.get(rule_id)
    if rule is None:
        raise ConfigurationError(
            f"unknown lint rule {rule_id!r}; known: {', '.join(sorted(RULES))}"
        )
    return rule


def checkers_for(module: ModuleContext) -> List[Checker]:
    """Instantiate every rule checker for ``module``.

    Iterates rules in sorted-id order so finding production (and therefore
    tie-breaking between co-located findings) is deterministic.
    """
    return [RULES[rule_id].checker(module) for rule_id in sorted(RULES)]


def explain(rule_id: str) -> str:
    """Human-readable documentation block for one rule."""
    rule = get_rule(rule_id)
    lines = [
        f"{rule.rule_id}: {rule.title}",
        "",
        rule.rationale,
        "",
        "Bad:",
        *(f"    {ln}" for ln in rule.example_bad.splitlines()),
        "",
        "Fix:",
        *(f"    {ln}" for ln in rule.example_fix.splitlines()),
    ]
    return "\n".join(lines)

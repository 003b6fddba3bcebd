"""Static lint for simulation invariants the runtime cannot check.

The reproduction's headline guarantee -- the same config gives the same
bytes -- is checked where it can break: every run executes under
:func:`repro.sim.guard.deterministic_guard` (global RNG and host-clock reads
raise), and tier-1 runs a fixed matrix under two ``PYTHONHASHSEED`` values.
What is left here are the rules with no runtime equivalent:
:mod:`repro.lint.engine` runs an AST rule suite (``DET004``, ``DET005``,
``SIM001``, ``PERF001`` -- see ``docs/LINTING.md``) with
``# repro: noqa(RULE)`` suppressions, and :mod:`repro.lint.docs` checks that
doc links resolve.  ``netrs lint`` / ``python -m repro.lint`` is the CLI;
``make lint`` gates it in CI.
"""

from repro.lint.engine import LintReport, lint_paths, lint_source
from repro.lint.findings import Finding
from repro.lint.rules import RULES, Rule

__all__ = [
    "Finding",
    "LintReport",
    "RULES",
    "Rule",
    "lint_paths",
    "lint_source",
]

"""Determinism sanitizer: static + runtime enforcement of simulation invariants.

The NetRS reproduction's headline guarantees -- parallel sweeps that merge
byte-identically to serial runs, caches that leave traces bit-for-bit
unchanged -- all rest on three invariants no test directly checks:

1. every random draw flows through seeded :mod:`repro.sim.rng` streams,
2. simulated code never reads the wall clock,
3. event scheduling never depends on hash/iteration order.

This package enforces them.  :mod:`repro.lint.engine` runs an AST rule suite
(``DET001``..``DET005``, ``SIM001``/``SIM002``, ``API001`` -- see
``docs/LINTING.md``) with ``# repro: noqa(RULE)`` suppressions;
:mod:`repro.lint.runtime`
provides :func:`deterministic_guard`, which patches the global RNG entry
points to raise during a simulation.  ``netrs lint`` / ``python -m
repro.lint`` is the CLI; ``make lint`` gates it in CI.
"""

from repro.lint.engine import LintReport, lint_paths, lint_source
from repro.lint.findings import Finding
from repro.lint.rules import RULES, Rule
from repro.lint.runtime import NondeterminismError, deterministic_guard

__all__ = [
    "Finding",
    "LintReport",
    "NondeterminismError",
    "RULES",
    "Rule",
    "deterministic_guard",
    "lint_paths",
    "lint_source",
]

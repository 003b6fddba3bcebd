"""Shared fixtures.

``deterministic_sim`` is the opt-in runtime guard from the determinism
sanitizer (:mod:`repro.lint.runtime`): any test that requests it will fail
with :class:`~repro.lint.runtime.NondeterminismError` if code under test
reaches for the stdlib ``random`` module or numpy's global/fresh-entropy
entry points instead of a seeded :mod:`repro.sim.rng` stream.
"""

import pytest

from repro.lint.runtime import deterministic_guard


@pytest.fixture
def deterministic_sim():
    """Fail the test if global RNG entry points are called while it runs."""
    with deterministic_guard():
        yield


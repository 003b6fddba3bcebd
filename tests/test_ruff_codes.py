"""The ruff codes that keep per-run state from leaking stay selected.

``B006`` (a mutable default argument) and ``B023`` (a function defined in a
loop that closes over the loop variable) share state between runs that
should be independent.  CI's ``make lint`` runs ``ruff check src tests``
with them; see docs/LINTING.md.
"""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("code", ["B006", "B023"])
def test_ruff_selects_the_code_everywhere(code):
    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    lint = tomllib.loads(text)["tool"]["ruff"]["lint"]
    assert code in lint["select"]
    ignored = lint.get("per-file-ignores", {})
    assert all(code not in codes for codes in ignored.values())


def test_make_lint_checks_src_and_tests():
    makefile = (REPO_ROOT / "Makefile").read_text(encoding="utf-8")
    assert "ruff check src tests" in makefile

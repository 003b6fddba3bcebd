"""Drift-injection probes for the vector tier's contract declarations.

The lint fixtures prove the checker catches drift in a synthetic mini-tree;
these probes prove the *shipped declarations* would catch drift in the real
files: each test copies the relevant sources into a scratch tree, injects a
one-line drift into the vector tier's side, and asserts the declaration
(pulled from the live registries by name, so a renamed or deleted
declaration fails here too) reports exactly one finding of the right rule.
"""

import pathlib
import shutil

from repro.lint.contracts import ContractRegistry, check_contracts
from repro.mesoscale.contracts import CONTRACTS as MESO_CONTRACTS

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

_VECTOR = "src/repro/mesoscale/vector.py"
_WORKLOAD = "src/repro/kvstore/workload.py"
_C3 = "src/repro/selection/c3.py"


def _draw_pair(name):
    for pair in MESO_CONTRACTS.draw_sequences:
        if pair.name == name:
            return pair
    raise AssertionError(f"declaration {name!r} is gone from the registries")


def _scratch_tree(tmp_path, relpaths):
    for rel in relpaths:
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(REPO_ROOT / rel, target)


def _inject(tmp_path, rel, old, new):
    target = tmp_path / rel
    source = target.read_text(encoding="utf-8")
    assert source.count(old) == 1, f"probe anchor {old!r} not unique in {rel}"
    target.write_text(source.replace(old, new), encoding="utf-8")


def test_reordered_score_in_the_vector_copy_is_caught(tmp_path):
    """Reordered float addition in the vector tier's inlined C3 score: same
    value in exact arithmetic, different ulp chain -- exactly the drift the
    ``c3-cubic-score`` anchor exists to catch."""
    (anchor,) = [
        a for a in MESO_CONTRACTS.expr_anchors if a.name == "c3-cubic-score"
    ]
    registry = ContractRegistry(expr_anchors=[anchor])
    _scratch_tree(tmp_path, (_C3, _VECTOR))
    assert check_contracts(str(tmp_path), registry=registry) == []
    _inject(
        tmp_path,
        _VECTOR,
        "track.response_time\n"
        "                        - expected_service\n"
        "                        + (q_hat**exponent) * expected_service\n",
        "(q_hat**exponent) * expected_service\n"
        "                        + track.response_time\n"
        "                        - expected_service\n",
    )
    findings = check_contracts(str(tmp_path), registry=registry)
    assert [f.rule for f in findings] == ["CON001"], findings
    assert findings[0].path == _VECTOR


def test_injected_draw_swap_is_caught(tmp_path):
    """Substituting the inter-arrival exponential with a uniform draw
    changes the arrival stream's draw sequence; the CON002 declaration
    must flag the divergence."""
    pair = _draw_pair("vector arrival-stream draw order")
    registry = ContractRegistry(draw_sequences=[pair])
    _scratch_tree(tmp_path, (_WORKLOAD, _VECTOR))
    assert check_contracts(str(tmp_path), registry=registry) == []
    _inject(
        tmp_path,
        _VECTOR,
        "t = t + rng.exponential(rate_inv)",
        "t = t + rng.random() * rate_inv",
    )
    findings = check_contracts(str(tmp_path), registry=registry)
    assert [f.rule for f in findings] == ["CON002"], findings
    assert findings[0].path == _VECTOR

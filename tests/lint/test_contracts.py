"""Contract sanitizer (CON001..CON003): fixture-driven drift detection plus
the acceptance criterion that the shipped tree honors its own contracts.

Each test builds a :class:`ContractRegistry` over the mini-tree in
``fixtures/contracts/`` so a deliberately drifted formula, a reordered RNG
draw and an undigested config field each produce exactly one finding with
the right rule id and file (and, where the rule points at a statement,
line)."""

import pathlib

from repro.lint import contracts as con
from repro.lint.contracts import (
    CONTRACT_RULES,
    AnchorSite,
    ContractRegistry,
    DigestContract,
    DrawSequencePair,
    ExprAnchor,
    Site,
    StreamFamilyContract,
    check_contracts,
    contract_rule_ids,
    default_registry,
)
from repro.lint.engine import lint_paths
from repro.lint.rules import explain

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "contracts"

_REF_ARRIVAL = Site("reference.py", "Server.arrival")


def _arrival_draws(mirror_path, mirror_qualname="FlowServer.arrival"):
    return DrawSequencePair(
        name="fixture.arrival",
        reference=_REF_ARRIVAL,
        mirror=Site(mirror_path, mirror_qualname),
        reference_rng="rng",
        mirror_rng="arrival_rng",
        reference_only_draws=("<rng>.random",),
    )


# ---------------------------------------------------------------------------
# CON001: anchored expressions
# ---------------------------------------------------------------------------


def _score_anchor(mirror_path, mirror_qualname="score"):
    return ExprAnchor(
        name="fixture.score",
        expr="resp - expected + q_hat ** exponent * expected",
        sites=(
            AnchorSite(Site("reference.py", "score")),
            AnchorSite(Site(mirror_path, mirror_qualname)),
        ),
    )


def test_expr_anchor_accepts_both_statement_shapes():
    registry = ContractRegistry(expr_anchors=[_score_anchor("mirror_clean.py")])
    assert check_contracts(str(FIXTURES), registry=registry) == []


def test_expr_anchor_catches_drifted_formula():
    registry = ContractRegistry(expr_anchors=[_score_anchor("mirror_drifted.py")])
    findings = check_contracts(str(FIXTURES), registry=registry)
    assert len(findings) == 1
    (finding,) = findings
    assert finding.rule == "CON001"
    assert finding.path == "mirror_drifted.py"
    assert "fixture.score" in finding.message


def test_missing_mirror_site_is_reported():
    """A site that moved without its declaration: one finding per contract,
    under the rule of the contract that lost it."""
    registry = ContractRegistry(
        expr_anchors=[_score_anchor("mirror_clean.py", "ghost_score")],
        draw_sequences=[_arrival_draws("mirror_clean.py", "FlowServer.ghost")],
    )
    findings = check_contracts(str(FIXTURES), registry=registry)
    assert [f.rule for f in findings] == ["CON001", "CON002"]
    assert all(f.path == "mirror_clean.py" for f in findings)
    assert "ghost_score" in findings[0].message
    assert "FlowServer.ghost" in findings[1].message


# ---------------------------------------------------------------------------
# CON002: stream families and draw order
# ---------------------------------------------------------------------------


def _families(mirror_path, **kwargs):
    return StreamFamilyContract(
        name="fixture.families",
        reference_paths=("families_ref.py",),
        mirror_paths=(mirror_path,),
        **kwargs,
    )


def test_exempted_family_sets_match():
    registry = ContractRegistry(
        stream_families=[
            _families("families_clean.py", reference_only=("background",))
        ]
    )
    assert check_contracts(str(FIXTURES), registry=registry) == []


def test_undeclared_reference_only_family_is_drift():
    registry = ContractRegistry(stream_families=[_families("families_clean.py")])
    findings = check_contracts(str(FIXTURES), registry=registry)
    assert [f.rule for f in findings] == ["CON002"]
    assert "'background'" in findings[0].message
    assert findings[0].path == "families_ref.py"


def test_renamed_family_reports_both_sides():
    registry = ContractRegistry(
        stream_families=[
            _families("families_renamed.py", reference_only=("background",))
        ]
    )
    findings = check_contracts(str(FIXTURES), registry=registry)
    assert [f.rule for f in findings] == ["CON002", "CON002"]
    messages = " ".join(f.message for f in findings)
    assert "'service.*'" in messages and "'svc.*'" in messages


def test_matching_draw_sequence_passes():
    registry = ContractRegistry(draw_sequences=[_arrival_draws("mirror_clean.py")])
    assert check_contracts(str(FIXTURES), registry=registry) == []


def test_reordered_draw_yields_exactly_one_con002():
    registry = ContractRegistry(
        draw_sequences=[_arrival_draws("mirror_reordered.py")]
    )
    findings = check_contracts(str(FIXTURES), registry=registry)
    assert len(findings) == 1
    (finding,) = findings
    assert finding.rule == "CON002"
    assert finding.path == "mirror_reordered.py"
    assert finding.line == 6  # the too-early `sample(...)` call
    assert "<rng>.exponential" in finding.message
    assert "sample(<rng>)" in finding.message


# ---------------------------------------------------------------------------
# CON003: config-digest completeness
# ---------------------------------------------------------------------------


def _digest(founding, via_sweep=()):
    return DigestContract(
        name="fixture.digest",
        config_path="config.py",
        config_class="Config",
        digest_path="job.py",
        defaults_name="_DIGEST_DEFAULTS",
        founding_fields=founding,
        cli_path="cli.py",
        cli_via_sweep=via_sweep,
    )


def test_routed_and_elided_fields_pass():
    registry = ContractRegistry(
        digests=[_digest(("founding_knob", "new_knob"), via_sweep=("sweep_knob",))]
    )
    assert check_contracts(str(FIXTURES), registry=registry) == []


def test_undigested_field_yields_exactly_one_con003():
    registry = ContractRegistry(
        digests=[
            _digest(("founding_knob", "sweep_knob"), via_sweep=("new_knob",))
        ]
    )
    findings = check_contracts(str(FIXTURES), registry=registry)
    assert len(findings) == 1
    (finding,) = findings
    assert finding.rule == "CON003"
    assert finding.path == "config.py"
    assert finding.line == 11  # the `new_knob` field declaration
    assert "'new_knob'" in finding.message
    assert "_DIGEST_DEFAULTS" in finding.message


def test_missing_cli_route_yields_exactly_one_con003():
    registry = ContractRegistry(digests=[_digest(("founding_knob", "new_knob"))])
    findings = check_contracts(str(FIXTURES), registry=registry)
    assert len(findings) == 1
    (finding,) = findings
    assert finding.rule == "CON003"
    assert finding.path == "config.py"
    assert finding.line == 12  # the `sweep_knob` field declaration
    assert "--sweep-knob" in finding.message


def test_stale_and_mismatched_elisions_are_reported(tmp_path):
    (tmp_path / "config.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass\nclass Config:\n    knob: int = 1\n",
        encoding="utf-8",
    )
    (tmp_path / "job.py").write_text(
        '_DIGEST_DEFAULTS = {"knob": 2, "gone": 0}\n', encoding="utf-8"
    )
    registry = ContractRegistry(
        digests=[
            DigestContract(
                name="tmp.digest",
                config_path="config.py",
                config_class="Config",
                digest_path="job.py",
                defaults_name="_DIGEST_DEFAULTS",
                founding_fields=(),
            )
        ]
    )
    findings = check_contracts(str(tmp_path), registry=registry)
    assert [f.rule for f in findings] == ["CON003", "CON003"]
    messages = " ".join(f.message for f in findings)
    assert "'gone'" in messages  # stale entry: not a field any more
    assert "does not equal the field default" in messages
    assert all(f.path == "job.py" for f in findings)


# ---------------------------------------------------------------------------
# Engine/CLI integration and the shipped tree
# ---------------------------------------------------------------------------


def test_shipped_tree_honors_its_contracts():
    """`netrs contracts` must exit 0 on the final tree (ISSUE 8 acceptance)."""
    assert check_contracts(str(REPO_ROOT)) == []


def test_default_registry_aggregates_all_declaration_modules():
    registry = default_registry()
    # repro.mesoscale.contracts: 1 anchor, 1 stream family, 2 draw sequences;
    # repro.experiments.contracts: the digest.
    assert [anchor.name for anchor in registry.expr_anchors] == ["c3-cubic-score"]
    assert len(registry.stream_families) == 1
    assert len(registry.draw_sequences) == 2
    assert len(registry.digests) == 1
    assert registry.total() == 5


def test_contract_findings_respect_noqa(monkeypatch):
    registry = ContractRegistry(draw_sequences=[_arrival_draws("mirror_noqa.py")])
    monkeypatch.setattr(con, "default_registry", lambda: registry)
    monkeypatch.setattr(
        "repro.lint.engine.default_registry", lambda: registry
    )
    report = lint_paths(
        [], contracts_only=True, display_relative_to=str(FIXTURES)
    )
    assert report.findings == []
    assert report.suppressed == 1
    assert report.contracts_checked == 1


def test_contract_rules_are_documented():
    assert contract_rule_ids() == ("CON001", "CON002", "CON003")
    for rule_id, rule in CONTRACT_RULES.items():
        assert rule.title
        assert len(rule.rationale) > 40
        text = explain(rule_id, CONTRACT_RULES)
        assert rule_id in text and "Bad:" in text and "Fix:" in text

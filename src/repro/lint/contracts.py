"""Contract sanitizer: static cross-implementation drift detection (CON*).

Where the repo's bit-identity guarantees rest on something spelled in more
than one place -- a formula inlined into a hot loop, a stream family both
tiers must create, a draw order a block prologue must reproduce, the job
digest's field list -- runtime byte-identity suites only catch drift on the
scenarios they run; this module checks the declared contracts statically,
on every lint run, over every code path.

Three rule families:

* **CON001 anchored expressions** -- an :class:`ExprAnchor` pins a formula
  (the C3 cubic score) that must appear, with each site's declared renames
  applied, at every declared site: float arithmetic is evaluation-order
  sensitive, so "equivalent math" is drift.
* **CON002 RNG stream-order** -- :class:`StreamFamilyContract` compares the
  set of named RNG stream families created on each side (a renamed family
  is a silently different seed); :class:`DrawSequencePair` compares the
  ordered draw sequence on a shared mixed-family stream (a reordered draw
  shifts every later value on that stream).
* **CON003 config-digest completeness** -- :class:`DigestContract` enforces
  the forward-compat dance for :class:`ExperimentConfig` knobs: every field
  added after the founding manifest must carry a ``_DIGEST_DEFAULTS`` entry
  (whose value must equal the field default) and a declared CLI route, so
  adding a knob can never silently invalidate existing ledgers.

Declarations live next to the code they bind (``repro.mesoscale.contracts``,
``repro.experiments.contracts``) and are aggregated lazily by
:func:`default_registry`.  ``netrs lint --contracts`` (and ``netrs
contracts``) runs the pass through the ordinary engine/baseline machinery;
``# repro: noqa(CON001)`` on the anchor line suppresses a finding like any
other rule.
"""

from __future__ import annotations

import ast
import copy
import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.lint.findings import Finding
from repro.lint.rules import Checker, Rule

# ---------------------------------------------------------------------------
# Declaration dataclasses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Site:
    """One function (or method) in one module, repo-relative."""

    path: str  #: POSIX path from the repo root, e.g. "src/repro/kvstore/client.py"
    qualname: str  #: "KVClient._fire_redundant" or a module-level "chained_arrival"

    def label(self) -> str:
        return f"{self.path}:{self.qualname}"


@dataclass(frozen=True)
class AnchorSite:
    """One location where an anchored expression must appear."""

    site: Site
    renames: Tuple[Tuple[str, str], ...] = ()


@dataclass(frozen=True)
class ExprAnchor:
    """An expression that must appear, after renames, at every site.

    Used for formulas inlined into contexts whose surrounding control flow
    legitimately differs (the C3 cubic score appears in a method, a scalar
    loop and the vector tier's drain loop).  Each site's renames map its
    local spellings onto the canonical placeholder names of ``expr``: an
    exact unparsed expression spelling to its replacement, outermost match
    first.
    """

    name: str
    expr: str
    sites: Tuple[AnchorSite, ...]


@dataclass(frozen=True)
class StreamFamilyContract:
    """The named RNG stream families of two tiers must agree.

    Families are the first argument of ``rng.stream(...)`` /
    ``rng.batched(...)`` calls; f-string names collapse to a family glob
    (``f"service.{name}"`` -> ``service.*``).  A family present on one side
    only must be declared in the corresponding exemption set.
    """

    name: str
    reference_paths: Tuple[str, ...]
    mirror_paths: Tuple[str, ...]
    reference_only: Tuple[str, ...] = ()
    mirror_only: Tuple[str, ...] = ()


@dataclass(frozen=True)
class DrawSequencePair:
    """Ordered draw sequence on a shared mixed-family stream.

    Both functions must touch the named generator attribute in the same
    order: direct draws record as ``<rng>.<method>``, calls that pass the
    generator onward record as ``<callee>(<rng>)``.  Draws listed in
    ``reference_only_draws`` may appear on the reference side without a
    mirror counterpart (e.g. the write-fraction check on a read-only
    mirror); everything else must match as an ordered sequence.
    """

    name: str
    reference: Site
    mirror: Site
    reference_rng: str  #: attribute name holding the stream, e.g. "_rng"
    mirror_rng: str
    reference_only_draws: Tuple[str, ...] = ()


@dataclass(frozen=True)
class DigestContract:
    """The forward-compat invariants of the job-key config digest."""

    name: str
    config_path: str
    config_class: str
    digest_path: str
    defaults_name: str  #: the elision dict, e.g. "_DIGEST_DEFAULTS"
    #: Fields that predate the contract: hashed unconditionally since the
    #: digest scheme was born, so eliding them now would invalidate every
    #: existing ledger.  Everything NOT listed here must carry an elision
    #: entry equal to its field default.
    founding_fields: Tuple[str, ...]
    cli_path: str = ""
    #: Fields reachable only through the generic ``netrs sweep <field>``
    #: route rather than a dedicated ``--flag`` (a conscious, declared
    #: decision per knob).
    cli_via_sweep: Tuple[str, ...] = ()


@dataclass
class ContractRegistry:
    """Everything the contract pass checks, aggregated across packages."""

    expr_anchors: List[ExprAnchor] = field(default_factory=list)
    stream_families: List[StreamFamilyContract] = field(default_factory=list)
    draw_sequences: List[DrawSequencePair] = field(default_factory=list)
    digests: List[DigestContract] = field(default_factory=list)

    def extend(self, other: "ContractRegistry") -> None:
        self.expr_anchors.extend(other.expr_anchors)
        self.stream_families.extend(other.stream_families)
        self.draw_sequences.extend(other.draw_sequences)
        self.digests.extend(other.digests)

    def total(self) -> int:
        """Number of declared contracts (for the CLI's stats footer)."""
        return (
            len(self.expr_anchors)
            + len(self.stream_families)
            + len(self.draw_sequences)
            + len(self.digests)
        )


#: Modules whose module-level ``CONTRACTS`` registry is aggregated by
#: :func:`default_registry`.  Declarations live next to the code they bind.
CONTRACT_MODULES = (
    "repro.mesoscale.contracts",
    "repro.experiments.contracts",
)


def default_registry() -> ContractRegistry:
    """Aggregate the per-package declaration modules (imported lazily)."""
    import importlib

    registry = ContractRegistry()
    for module_name in CONTRACT_MODULES:
        module = importlib.import_module(module_name)
        registry.extend(module.CONTRACTS)
    return registry


# ---------------------------------------------------------------------------
# Rule metadata (separate registry: contract rules are cross-module passes,
# not per-module checkers, so they do not join repro.lint.rules.RULES)
# ---------------------------------------------------------------------------


class _ContractPass(Checker):
    """Placeholder checker type: contract rules run over the whole tree."""

    def run(self) -> List[Finding]:  # pragma: no cover - never instantiated
        return []


CONTRACT_RULES: Dict[str, Rule] = {
    "CON001": Rule(
        rule_id="CON001",
        title="anchored expressions must appear verbatim at every declared site",
        rationale=(
            "A formula inlined into a hot loop is a second spelling of the "
            "method it came from; float arithmetic is evaluation-order "
            "sensitive, so a reordered or 'simplified' copy changes the "
            "last bits on exactly the configs the golden suites do not "
            "cover.  Each declared ExprAnchor must be found, after the "
            "site's declared renames, at every site it lists."
        ),
        example_bad=(
            "# C3Selector.score reads  resp - es + q_hat**3 * es\n"
            "score = q_hat**3 * es + resp - es  # the inlined copy, reordered"
        ),
        example_fix=(
            "spell the inlined copy exactly like the anchored expression,\n"
            "or change the anchor and every site in the same commit"
        ),
        checker=_ContractPass,
    ),
    "CON002": Rule(
        rule_id="CON002",
        title="mirrored paths must draw from the same RNG streams in order",
        rationale=(
            "Stream families are seed-deriving names: a mirror that "
            "renames a family draws from a different bitstream, and a "
            "reordered draw on a shared mixed-family stream shifts every "
            "later value.  Runtime tests only catch this when a scenario "
            "exercises the draw; the static check covers every declared "
            "path."
        ),
        example_bad='flow tier: rng.stream("svc.{name}")  # packet tier says "service.{name}"',
        example_fix='use the identical family name: rng.batched(f"service.{name}", batch)',
        checker=_ContractPass,
    ),
    "CON003": Rule(
        rule_id="CON003",
        title="new config fields must keep old job digests valid",
        rationale=(
            "config_digest() hashes every ExperimentConfig field, so "
            "adding a knob silently changes every digest and orphans all "
            "existing ledgers -- unless the new field is elided at its "
            "default via _DIGEST_DEFAULTS (the PR6 forward-compat dance).  "
            "The contract makes the dance unforgettable: every "
            "post-founding field needs an elision entry matching its "
            "default, and a declared CLI route."
        ),
        example_bad="new_knob: int = 7   # added to ExperimentConfig, digest now differs",
        example_fix='_DIGEST_DEFAULTS = {..., "new_knob": 7}  # old ledgers keep resuming',
        checker=_ContractPass,
    ),
}


def contract_rule_ids() -> Tuple[str, ...]:
    return tuple(sorted(CONTRACT_RULES))


# ---------------------------------------------------------------------------
# Module / site loading
# ---------------------------------------------------------------------------


class _SourceCache:
    """Parse each module once per contract run."""

    def __init__(self, base_dir: str) -> None:
        self.base_dir = base_dir
        self._trees: Dict[str, Optional[ast.Module]] = {}

    def tree(self, rel_path: str) -> Optional[ast.Module]:
        if rel_path not in self._trees:
            full = os.path.join(self.base_dir, rel_path.replace("/", os.sep))
            try:
                with open(full, "r", encoding="utf-8") as handle:
                    source = handle.read()
                self._trees[rel_path] = ast.parse(source, filename=rel_path)
            except (OSError, SyntaxError):
                self._trees[rel_path] = None
        return self._trees[rel_path]

    def function(self, site: Site) -> Optional[ast.FunctionDef]:
        tree = self.tree(site.path)
        if tree is None:
            return None
        parts = site.qualname.split(".")
        scope: List[ast.stmt] = tree.body
        node: Optional[ast.stmt] = None
        for part in parts:
            node = next(
                (
                    stmt
                    for stmt in scope
                    if isinstance(
                        stmt,
                        (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                    )
                    and stmt.name == part
                ),
                None,
            )
            if node is None:
                return None
            scope = getattr(node, "body", [])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node  # type: ignore[return-value]
        return None


def _missing_site(rule: str, site: Site, pair_name: str) -> Finding:
    return Finding(
        path=site.path,
        line=1,
        col=1,
        rule=rule,
        message=(
            f"contract {pair_name!r}: site {site.qualname} not found in "
            f"{site.path} (moved or renamed without updating the contract)"
        ),
    )


# ---------------------------------------------------------------------------
# CON001: anchored expressions
# ---------------------------------------------------------------------------


def _canon_expr(text: str, owner: str) -> str:
    try:
        return ast.unparse(ast.parse(text, mode="eval").body)
    except SyntaxError:
        raise ConfigurationError(
            f"contract {owner}: unparseable anchored expression {text!r}"
        ) from None


class _Renamer(ast.NodeTransformer):
    """Replace expressions by exact unparsed spelling (outermost-first)."""

    def __init__(self, mapping: Mapping[str, ast.expr]) -> None:
        self.mapping = mapping

    def visit(self, node: ast.AST) -> ast.AST:
        if isinstance(node, ast.expr):
            replacement = self.mapping.get(ast.unparse(node))
            if replacement is not None:
                return ast.copy_location(copy.deepcopy(replacement), node)
        return self.generic_visit(node)


def _parse_renames(
    renames: Sequence[Tuple[str, str]], *, owner: str
) -> Dict[str, ast.expr]:
    mapping: Dict[str, ast.expr] = {}
    for spelling, replacement in renames:
        try:
            key = ast.unparse(ast.parse(spelling, mode="eval").body)
            value = ast.parse(replacement, mode="eval").body
        except SyntaxError as exc:
            raise ConfigurationError(
                f"contract {owner}: bad rename {spelling!r} -> "
                f"{replacement!r}: {exc}"
            ) from None
        mapping[key] = value
    return mapping


def check_expr_anchor(anchor: ExprAnchor, cache: _SourceCache) -> List[Finding]:
    canonical = _canon_expr(anchor.expr, anchor.name)
    findings: List[Finding] = []
    for anchor_site in anchor.sites:
        function = cache.function(anchor_site.site)
        if function is None:
            findings.append(
                _missing_site("CON001", anchor_site.site, anchor.name)
            )
            continue
        mapping = _parse_renames(anchor_site.renames, owner=anchor.name)
        renamer = _Renamer(mapping) if mapping else None
        found = False
        for node in ast.walk(function):
            if not isinstance(node, ast.expr):
                continue
            candidate = node
            if renamer is not None:
                candidate = renamer.visit(copy.deepcopy(node))
                ast.fix_missing_locations(candidate)
            if ast.unparse(candidate) == canonical:
                found = True
                break
        if not found:
            findings.append(
                Finding(
                    path=anchor_site.site.path,
                    line=function.lineno,
                    col=function.col_offset + 1,
                    rule="CON001",
                    message=(
                        f"anchored expression {anchor.name!r} "
                        f"(`{canonical}`) not found in "
                        f"{anchor_site.site.qualname}; the formula drifted "
                        "or the site's rename map is stale"
                    ),
                )
            )
    return findings


# ---------------------------------------------------------------------------
# CON002: RNG stream families and draw sequences
# ---------------------------------------------------------------------------

_STREAM_METHODS = ("stream", "batched")


def _family_of(arg: ast.expr) -> Optional[str]:
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.JoinedStr):
        parts: List[str] = []
        for value in arg.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                parts.append(value.value)
            else:
                parts.append("*")
        return "".join(parts)
    return None


def _collect_families(
    paths: Sequence[str], cache: _SourceCache
) -> Optional[Dict[str, Tuple[int, str]]]:
    """family -> (first line, path); None when a module failed to parse."""
    families: Dict[str, Tuple[int, str]] = {}
    for rel_path in paths:
        tree = cache.tree(rel_path)
        if tree is None:
            return None
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _STREAM_METHODS
                and node.args
            ):
                family = _family_of(node.args[0])
                if family is not None and family not in families:
                    families[family] = (node.lineno, rel_path)
    return families


def check_stream_families(
    contract: StreamFamilyContract, cache: _SourceCache
) -> List[Finding]:
    reference = _collect_families(contract.reference_paths, cache)
    mirror = _collect_families(contract.mirror_paths, cache)
    findings: List[Finding] = []
    if reference is None or mirror is None:
        missing_paths = [
            p
            for p in (*contract.reference_paths, *contract.mirror_paths)
            if cache.tree(p) is None
        ]
        return [
            Finding(
                path=p,
                line=1,
                col=1,
                rule="CON002",
                message=(
                    f"contract {contract.name!r}: module {p} missing or "
                    "unparseable"
                ),
            )
            for p in sorted(missing_paths)
        ]
    ref_only = set(contract.reference_only)
    mir_only = set(contract.mirror_only)
    for family in sorted(set(reference) - set(mirror) - ref_only):
        line, path = reference[family]
        findings.append(
            Finding(
                path=path,
                line=line,
                col=1,
                rule="CON002",
                message=(
                    f"stream family {family!r} exists on the reference side "
                    f"of {contract.name!r} but not in the mirror (a missing "
                    "family means the mirror draws from different streams)"
                ),
            )
        )
    for family in sorted(set(mirror) - set(reference) - mir_only):
        line, path = mirror[family]
        findings.append(
            Finding(
                path=path,
                line=line,
                col=1,
                rule="CON002",
                message=(
                    f"stream family {family!r} exists only in the mirror "
                    f"side of {contract.name!r}; a renamed family is a "
                    "silently different seed"
                ),
            )
        )
    return findings


class _DrawCollector(ast.NodeVisitor):
    """Ordered draw events touching one named generator attribute."""

    def __init__(self, rng_attr: str) -> None:
        self.rng_attr = rng_attr
        self.events: List[Tuple[str, int]] = []

    def _is_rng(self, node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Attribute) and node.attr == self.rng_attr
        ) or (isinstance(node, ast.Name) and node.id == self.rng_attr)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and self._is_rng(func.value):
            self.events.append((f"<rng>.{func.attr}", node.lineno))
            for arg in node.args:
                self.visit(arg)
            return
        if any(self._is_rng(arg) for arg in node.args):
            callee = (
                func.attr
                if isinstance(func, ast.Attribute)
                else ast.unparse(func)
            )
            self.events.append((f"{callee}(<rng>)", node.lineno))
        self.generic_visit(node)


def check_draw_sequence(
    pair: DrawSequencePair, cache: _SourceCache
) -> List[Finding]:
    ref_fn = cache.function(pair.reference)
    mir_fn = cache.function(pair.mirror)
    missing = []
    if ref_fn is None:
        missing.append(_missing_site("CON002", pair.reference, pair.name))
    if mir_fn is None:
        missing.append(_missing_site("CON002", pair.mirror, pair.name))
    if missing:
        return missing
    ref_collector = _DrawCollector(pair.reference_rng)
    ref_collector.visit(ref_fn)
    mir_collector = _DrawCollector(pair.mirror_rng)
    mir_collector.visit(mir_fn)
    allowed_extra = set(pair.reference_only_draws)
    expected = [
        event for event, _line in ref_collector.events
        if event not in allowed_extra
    ]
    actual = [event for event, _line in mir_collector.events]
    if expected == actual:
        return []
    # Locate the first position where the sequences disagree.
    index = 0
    while (
        index < len(expected)
        and index < len(actual)
        and expected[index] == actual[index]
    ):
        index += 1
    want = expected[index] if index < len(expected) else "<end of sequence>"
    got = actual[index] if index < len(actual) else "<end of sequence>"
    if index < len(actual):
        line = mir_collector.events[index][1]
    else:
        line = mir_fn.lineno
    return [
        Finding(
            path=pair.mirror.path,
            line=line,
            col=1,
            rule="CON002",
            message=(
                f"draw-order drift in {pair.name!r}: position {index + 1} "
                f"should draw `{want}` (per {pair.reference.label()}) but "
                f"the mirror draws `{got}`; a reordered draw shifts every "
                "later value on this stream"
            ),
        )
    ]


# ---------------------------------------------------------------------------
# CON003: config-digest completeness
# ---------------------------------------------------------------------------


def _class_fields(
    tree: ast.Module, class_name: str
) -> Optional[List[Tuple[str, Optional[ast.expr], int]]]:
    """(name, default expr, line) per dataclass field, in declared order."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef) and stmt.name == class_name:
            fields: List[Tuple[str, Optional[ast.expr], int]] = []
            for node in stmt.body:
                if isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ):
                    fields.append((node.target.id, node.value, node.lineno))
            return fields
    return None


def _dict_literal(
    tree: ast.Module, name: str
) -> Optional[Tuple[Dict[str, ast.expr], int]]:
    for stmt in tree.body:
        target = None
        value = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target, value = stmt.target, stmt.value
        if (
            isinstance(target, ast.Name)
            and target.id == name
            and isinstance(value, ast.Dict)
        ):
            entries: Dict[str, ast.expr] = {}
            for key, val in zip(value.keys, value.values):
                if isinstance(key, ast.Constant) and isinstance(
                    key.value, str
                ):
                    entries[key.value] = val
            return entries, stmt.lineno
    return None


def _literal_equal(a: Optional[ast.expr], b: Optional[ast.expr]) -> bool:
    if a is None or b is None:
        return False
    try:
        return ast.literal_eval(a) == ast.literal_eval(b)
    except (ValueError, SyntaxError):
        return ast.unparse(a) == ast.unparse(b)


def check_digest_contract(
    contract: DigestContract, cache: _SourceCache
) -> List[Finding]:
    config_tree = cache.tree(contract.config_path)
    digest_tree = cache.tree(contract.digest_path)
    findings: List[Finding] = []
    if config_tree is None or digest_tree is None:
        return [
            Finding(
                path=p,
                line=1,
                col=1,
                rule="CON003",
                message=f"contract {contract.name!r}: module {p} missing",
            )
            for p in (contract.config_path, contract.digest_path)
            if cache.tree(p) is None
        ]
    fields = _class_fields(config_tree, contract.config_class)
    if fields is None:
        return [
            Finding(
                path=contract.config_path,
                line=1,
                col=1,
                rule="CON003",
                message=(
                    f"contract {contract.name!r}: class "
                    f"{contract.config_class} not found"
                ),
            )
        ]
    defaults = _dict_literal(digest_tree, contract.defaults_name)
    if defaults is None:
        return [
            Finding(
                path=contract.digest_path,
                line=1,
                col=1,
                rule="CON003",
                message=(
                    f"contract {contract.name!r}: dict literal "
                    f"{contract.defaults_name} not found in "
                    f"{contract.digest_path}"
                ),
            )
        ]
    elisions, defaults_line = defaults
    founding = set(contract.founding_fields)
    field_map = {name: (default, line) for name, default, line in fields}

    # 1. Post-founding fields must be elided at their default.
    for name, default, line in fields:
        if name in founding or name in elisions:
            continue
        findings.append(
            Finding(
                path=contract.config_path,
                line=line,
                col=1,
                rule="CON003",
                message=(
                    f"config field {name!r} postdates the digest scheme but "
                    f"has no {contract.defaults_name} entry; without one, "
                    "adding it changed every job digest and orphaned "
                    "existing ledgers (add the elision entry with the "
                    "field's default)"
                ),
            )
        )

    # 2. Elision entries must name real fields ...
    for name in sorted(elisions):
        if name not in field_map:
            findings.append(
                Finding(
                    path=contract.digest_path,
                    line=defaults_line,
                    col=1,
                    rule="CON003",
                    message=(
                        f"{contract.defaults_name} elides {name!r}, which is "
                        f"not a field of {contract.config_class} (stale "
                        "entry: the digest silently stopped eliding it)"
                    ),
                )
            )
            continue
        # 3. ... and elide exactly the field default.
        default, _line = field_map[name]
        if not _literal_equal(elisions[name], default):
            findings.append(
                Finding(
                    path=contract.digest_path,
                    line=defaults_line,
                    col=1,
                    rule="CON003",
                    message=(
                        f"{contract.defaults_name}[{name!r}] = "
                        f"`{ast.unparse(elisions[name])}` does not equal the "
                        f"field default `{ast.unparse(default) if default is not None else '<none>'}`; "
                        "the elision only preserves old digests when it "
                        "matches the default exactly"
                    ),
                )
            )

    # 4. Every post-founding field needs a declared CLI route.
    if contract.cli_path:
        cli_tree = cache.tree(contract.cli_path)
        cli_source = None
        if cli_tree is not None:
            full = os.path.join(
                cache.base_dir, contract.cli_path.replace("/", os.sep)
            )
            try:
                with open(full, "r", encoding="utf-8") as handle:
                    cli_source = handle.read()
            except OSError:
                cli_source = None
        via_sweep = set(contract.cli_via_sweep)
        for name, _default, line in fields:
            if name in founding or name in via_sweep:
                continue
            flag = "--" + name.replace("_", "-")
            if cli_source is not None and flag in cli_source:
                continue
            findings.append(
                Finding(
                    path=contract.config_path,
                    line=line,
                    col=1,
                    rule="CON003",
                    message=(
                        f"config field {name!r} has no CLI route: add a "
                        f"`{flag}` flag to {contract.cli_path} or declare it "
                        "in the contract's cli_via_sweep list (reachable "
                        "via `netrs sweep`)"
                    ),
                )
            )
    return findings


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def check_contracts(
    base_dir: str, registry: Optional[ContractRegistry] = None
) -> List[Finding]:
    """Run every declared contract against the tree under ``base_dir``.

    Findings use repo-relative paths (matching the engine's display paths)
    and sort like any other findings; the caller merges them into the
    normal report so noqa/baseline/exit-code semantics are shared.
    """
    if registry is None:
        registry = default_registry()
    cache = _SourceCache(base_dir)
    findings: List[Finding] = []
    for anchor in registry.expr_anchors:
        findings.extend(check_expr_anchor(anchor, cache))
    for family_contract in registry.stream_families:
        findings.extend(check_stream_families(family_contract, cache))
    for sequence_pair in registry.draw_sequences:
        findings.extend(check_draw_sequence(sequence_pair, cache))
    for digest_contract in registry.digests:
        findings.extend(check_digest_contract(digest_contract, cache))
    return sorted(findings)

"""AST checkers for the static rules (DET004, DET005, SIM001, PERF001).

Every checker is purely syntactic: it inspects one module's AST with no type
inference, erring toward precision (few false positives) over recall.  What a
rule cannot see statically is documented in ``docs/LINTING.md``.  Global
randomness, host-clock reads, hash-order scheduling and ``__all__`` drift are
checked where they can break, at run time (:mod:`repro.sim.guard`,
``tests/experiments/test_hash_seed.py``, ``tests/test_public_api.py``).

Importing this module populates :data:`repro.lint.rules.RULES`.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from repro.lint.findings import Finding
from repro.lint.rules import Checker, register_rule

# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

#: Environment methods that put work on the simulation schedule.  Feeding
#: them a stale closure breaks determinism.
SCHEDULING_METHODS = frozenset({"call_at", "call_in", "post_at", "post_in"})


def _scheduling_calls(nodes: Iterable[ast.AST]) -> List[ast.Call]:
    """Calls to Environment scheduling methods anywhere below ``nodes``."""
    found: List[ast.Call] = []
    for root in nodes:
        for node in ast.walk(root):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in SCHEDULING_METHODS
            ):
                found.append(node)
    return found


# ---------------------------------------------------------------------------
# DET004 -- exact float equality against simulated time
# ---------------------------------------------------------------------------

_TIME_ATTRS = frozenset({"now", "sim_time"})
_TIME_NAMES = frozenset({"now", "sim_time", "simulated_time"})


def _is_sim_time(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in _TIME_ATTRS
    if isinstance(node, ast.Name):
        return node.id in _TIME_NAMES
    return False


@register_rule(
    rule_id="DET004",
    title="no exact == / != against simulated time",
    rationale=(
        "Simulated timestamps are floats accumulated through repeated "
        "addition; two mathematically equal instants can differ in the last "
        "ulp depending on evaluation order, so `env.now == deadline` is a "
        "latent heisenbug.  Compare with <=/>= against an interval, or use "
        "math.isclose with an explicit tolerance."
    ),
    example_bad="if env.now == deadline:",
    example_fix="if env.now >= deadline:  # or math.isclose(env.now, deadline)",
)
class Det004FloatTimeEquality(Checker):
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)) and (
                _is_sim_time(left) or _is_sim_time(right)
            ):
                self.report(
                    node,
                    "exact ==/!= comparison against simulated time; "
                    "use an ordering comparison or math.isclose",
                )
                break
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# DET005 -- mutable default arguments
# ---------------------------------------------------------------------------

_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "deque", "defaultdict", "OrderedDict", "Counter",
     "bytearray"}
)


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        return name in _MUTABLE_FACTORIES
    return False


@register_rule(
    rule_id="DET005",
    title="no mutable default arguments",
    rationale=(
        "A mutable default ([] / {} / set()) is evaluated once at def time "
        "and shared across every call.  In a simulation that is cross-run "
        "state leakage: the second experiment in a process observes residue "
        "of the first, so results depend on call history rather than the "
        "seed.  Use None and construct inside the function."
    ),
    example_bad="def run(batch, sinks=[]):",
    example_fix=(
        "def run(batch, sinks=None):\n"
        "    if sinks is None:\n"
        "        sinks = []"
    ),
)
class Det005MutableDefault(Checker):
    def _check(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                self.report(default, "mutable default argument")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check(node)
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# SIM001 -- scheduling callbacks that close over loop variables
# ---------------------------------------------------------------------------


def _loop_target_names(target: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            names.add(node.id)
    return names


@register_rule(
    rule_id="SIM001",
    title="scheduled lambdas must not close over loop variables",
    rationale=(
        "A lambda passed to Environment.call_*/post_* inside a for loop "
        "captures the loop *variable*, not its value; by the time "
        "the engine fires the callback the loop has finished and every "
        "callback sees the final iteration's value.  Bind the value eagerly "
        "with a default argument or functools.partial."
    ),
    example_bad=(
        "for server in servers:\n"
        "    env.call_in(d, lambda: server.poll())"
    ),
    example_fix=(
        "for server in servers:\n"
        "    env.call_in(d, lambda s=server: s.poll())"
    ),
)
class Sim001LoopClosure(Checker):
    def _lambda_captures(self, lam: ast.Lambda, targets: Set[str]) -> Set[str]:
        params = {a.arg for a in (
            lam.args.args + lam.args.posonlyargs + lam.args.kwonlyargs
        )}
        if lam.args.vararg:
            params.add(lam.args.vararg.arg)
        if lam.args.kwarg:
            params.add(lam.args.kwarg.arg)
        captured: Set[str] = set()
        for node in ast.walk(lam.body):
            if isinstance(node, ast.Name) and node.id in targets:
                if node.id not in params:
                    captured.add(node.id)
        return captured

    def _check_loop(self, node) -> None:
        targets = _loop_target_names(node.target)
        if not targets:
            return
        for call in _scheduling_calls(node.body):
            for arg in list(call.args) + [kw.value for kw in call.keywords]:
                if isinstance(arg, ast.Lambda):
                    captured = self._lambda_captures(arg, targets)
                    if captured:
                        self.report(
                            arg,
                            "scheduled lambda closes over loop "
                            f"variable(s) {', '.join(sorted(captured))}; "
                            "bind with a default argument "
                            "(lambda x=x: ...) or functools.partial",
                        )

    def visit_For(self, node: ast.For) -> None:
        self._check_loop(node)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_loop(node)
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# PERF001 -- scalar RNG draws on the simulator's hot paths
# ---------------------------------------------------------------------------

#: Generator methods with a batched equivalent in repro.sim.rng.
_SCALAR_DRAW_METHODS = frozenset({"random", "exponential", "integers"})

#: Receiver names that conventionally hold a numpy Generator.  Matching by
#: name keeps the rule purely syntactic; `_draws` (the DrawSource slot fed
#: by BatchedStream) is deliberately absent.  Role-named generators like
#: ``_arrival_rng`` match via the ``_rng`` suffix (see :func:`_is_rng_name`).
_RNG_RECEIVER_NAMES = frozenset(
    {"rng", "_rng", "gen", "generator", "random_state"}
)


def _is_rng_name(name: str) -> bool:
    return name in _RNG_RECEIVER_NAMES or name.endswith("_rng")


#: POSIX path fragments of the per-request hot modules the rule covers.
#: Everywhere else (experiments setup, analysis, selection bootstrap) draws
#: run O(1) per experiment and batching would be noise.  The mesoscale flow
#: tier is per-*request* rather than per-packet but still draws inside the
#: request loop, so it counts.
_HOT_PATH_FRAGMENTS = ("repro/kvstore/", "repro/network/", "repro/mesoscale/")


@register_rule(
    rule_id="PERF001",
    title="hot-path scalar RNG draws should go through BatchedStream",
    rationale=(
        "In repro.kvstore and repro.network a Generator draw runs once per "
        "request (arrivals, service times, think times, jitter), where "
        "numpy's per-call dispatch dominates the draw itself.  "
        "repro.sim.rng.BatchedStream pre-draws blocks of up to 1024 values and serves "
        "scalars from them with the bit-identical value sequence, so hot "
        "paths should take a BatchedStream (conventionally a `_draws` "
        "attribute) instead of calling `rng.exponential()` and friends one "
        "value at a time.  Genuinely mixed-family streams (e.g. the "
        "open-loop arrival process) must stay scalar and say so with "
        "`# repro: noqa(PERF001)`; vectorized draws (`size=...`) are "
        "already batched and never flagged."
    ),
    example_bad="delay = self._rng.exponential(scale)  # one draw per request",
    example_fix=(
        "self._draws = registry.batched('server.service', block_size=1024)\n"
        "delay = self._draws.exponential(scale)"
    ),
)
class Perf001ScalarHotDraw(Checker):
    def run(self) -> List[Finding]:
        path = self.module.posix_path()
        if not any(fragment in path for fragment in _HOT_PATH_FRAGMENTS):
            return self.findings  # cold module: rule does not apply
        return super().run()

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _SCALAR_DRAW_METHODS
        ):
            receiver = func.value
            name: Optional[str] = None
            if isinstance(receiver, ast.Name):
                name = receiver.id
            elif isinstance(receiver, ast.Attribute):
                name = receiver.attr
            if (
                name is not None
                and _is_rng_name(name)
                and not any(kw.arg == "size" for kw in node.keywords)
            ):
                self.report(
                    node,
                    f"scalar `{name}.{func.attr}()` on a per-request hot "
                    "path; serve it from a repro.sim.rng.BatchedStream "
                    "(or draw a vector with size=...)",
                )
        self.generic_visit(node)

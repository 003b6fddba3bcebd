"""AST checkers for the determinism/simulation rules (DET*, SIM*, API*).

Every checker is purely syntactic: it inspects one module's AST with no type
inference, erring toward precision (few false positives) over recall.  What a
rule cannot see statically is documented in ``docs/LINTING.md``; the runtime
guard (:mod:`repro.lint.runtime`) covers the dynamic blind spots for DET001.

Importing this module populates :data:`repro.lint.rules.RULES`.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.rules import Checker, register_rule

# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def last_two(dotted: str) -> Tuple[str, str]:
    parts = dotted.rsplit(".", 2)
    if len(parts) == 1:
        return ("", parts[0])
    return (parts[-2], parts[-1])


#: Environment methods that put work on the simulation schedule.  Feeding
#: them from an unordered container (or a stale closure) breaks determinism.
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
# DET001 -- unseeded randomness outside the RNG registry
# ---------------------------------------------------------------------------

#: numpy.random names that merely *construct* generators from explicit seed
#: material.  They are deterministic plumbing, needed by repro.sim.rng and
#: acceptable in type annotations everywhere.
_RNG_CONSTRUCTORS = frozenset(
    {"Generator", "BitGenerator", "SeedSequence", "PCG64", "PCG64DXSM",
     "Philox", "SFC64", "MT19937"}
)


@register_rule(
    rule_id="DET001",
    title="randomness must flow through repro.sim.rng streams",
    rationale=(
        "Every stochastic draw in a simulation must come from a named, "
        "seed-derived numpy Generator (repro.sim.rng.RngRegistry).  The "
        "stdlib `random` module and numpy's module-level convenience "
        "functions (np.random.default_rng, np.random.seed, ...) hold global "
        "or fresh-entropy state, so two runs of the same seed diverge and "
        "the byte-identity guarantees of the parallel executor and the "
        "route/engine caches silently evaporate."
    ),
    example_bad="import random\njitter = random.random()",
    example_fix=(
        "rng = registry.stream('client.jitter')  # RngRegistry from the seed\n"
        "jitter = rng.random()"
    ),
)
class Det001UnseededRandom(Checker):
    allowed_path_suffixes = ("repro/sim/rng.py",)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                self.report(node, "import of the stdlib `random` module")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if module == "random" or module.startswith("random."):
            self.report(node, "import from the stdlib `random` module")
        elif module in ("numpy.random", "np.random"):
            bad = [a.name for a in node.names if a.name not in _RNG_CONSTRUCTORS]
            if bad:
                self.report(
                    node,
                    "import of numpy.random function(s) "
                    f"{', '.join(sorted(bad))} (use a repro.sim.rng stream)",
                )
        elif module == "numpy":
            if any(alias.name == "random" for alias in node.names):
                self.report(node, "import of the numpy.random module")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if dotted is not None:
            if dotted.startswith("random."):
                self.report(
                    node,
                    f"call to stdlib `{dotted}` (use a repro.sim.rng stream)",
                )
            elif dotted.startswith(("np.random.", "numpy.random.")):
                attr = dotted.rsplit(".", 1)[-1]
                if attr not in _RNG_CONSTRUCTORS:
                    self.report(
                        node,
                        f"call to `{dotted}` (use a repro.sim.rng stream)",
                    )
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# DET002 -- wall-clock reads in simulated code
# ---------------------------------------------------------------------------

_WALL_CLOCK_CALLS = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("time", "process_time"),
        ("time", "process_time_ns"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
    }
)


@register_rule(
    rule_id="DET002",
    title="no wall-clock reads outside the progress module",
    rationale=(
        "Simulated time is Environment.now; reading the host clock "
        "(time.time, time.perf_counter, datetime.now, ...) inside simulated "
        "paths couples results to machine speed and breaks replay.  Only "
        "repro/exec/progress.py (stderr ETA reporting) legitimately "
        "measures real time.  Wall-clock instrumentation elsewhere (e.g. "
        "solver wall time that is reported but never fed back into "
        "simulated state) must carry an explicit "
        "`# repro: noqa(DET002)` justifying itself."
    ),
    example_bad="started = time.perf_counter()",
    example_fix=(
        "t0 = env.now            # simulated duration, or\n"
        "started = time.perf_counter()  # repro: noqa(DET002) - reported only"
    ),
)
class Det002WallClock(Checker):
    allowed_path_suffixes = ("repro/exec/progress.py",)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if dotted is not None and last_two(dotted) in _WALL_CLOCK_CALLS:
            self.report(node, f"wall-clock read `{dotted}` in simulated code")
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# DET003 -- unordered iteration feeding the event schedule
# ---------------------------------------------------------------------------


def _is_unordered_iterable(node: ast.AST) -> bool:
    """True for expressions whose iteration order is hash-dependent."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in (
            "intersection",
            "union",
            "difference",
            "symmetric_difference",
        ):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
    ):
        # Set algebra (a & b, a - b, ...) -- only counted when a side is
        # itself evidently a set, to avoid flagging integer arithmetic.
        return _is_unordered_iterable(node.left) or _is_unordered_iterable(
            node.right
        )
    return False


@register_rule(
    rule_id="DET003",
    title="sort set iteration before scheduling events from it",
    rationale=(
        "Iterating a set (or any hash-ordered container) enumerates string "
        "elements in a PYTHONHASHSEED-dependent order.  If the loop body "
        "schedules simulation work (Environment.call_*/post_*), the event "
        "sequence numbers -- and therefore tie-breaking -- differ between "
        "runs.  Wrap the iterable in sorted() to pin the order."
    ),
    example_bad=(
        "for host in {pkt.src, pkt.dst}:\n"
        "    env.post_in(delay, deliver, (host,))"
    ),
    example_fix=(
        "for host in sorted({pkt.src, pkt.dst}):\n"
        "    env.post_in(delay, deliver, (host,))"
    ),
)
class Det003UnorderedScheduling(Checker):
    def _check_loop(self, node) -> None:
        if _is_unordered_iterable(node.iter) and _scheduling_calls(node.body):
            self.report(
                node,
                "iteration over an unordered set feeds event scheduling; "
                "wrap the iterable in sorted()",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_loop(node)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_loop(node)
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# DET004 -- exact float equality against simulated time
# ---------------------------------------------------------------------------

_TIME_ATTRS = frozenset({"now", "_now", "sim_time"})
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
# SIM002 -- entry points must be reproducible from a seed
# ---------------------------------------------------------------------------

_RNG_PARAM_NAMES = frozenset({"rng", "generator", "random_state"})
_SEED_SOURCE_PARAMS = frozenset({"seed", "config", "base"})


@register_rule(
    rule_id="SIM002",
    title="public entry points taking an RNG must also take a seed source",
    rationale=(
        "A public module-level function that accepts a Generator but no "
        "seed (or config carrying one) cannot fall back deterministically: "
        "the tempting default is np.random.default_rng(), i.e. fresh "
        "entropy.  Entry points must accept `seed` (or a config object) and "
        "derive the stream via repro.sim.rng when the caller passes no rng."
    ),
    example_bad="def create_selector(name, *, rng=None): ...",
    example_fix=(
        "def create_selector(name, *, rng=None, seed=0):\n"
        "    rng = rng or stream_from_seed(seed, f'selector.{name}')"
    ),
)
class Sim002SeedlessEntryPoint(Checker):
    def visit_Module(self, node: ast.Module) -> None:
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name.startswith("_"):
                continue
            args = stmt.args
            names = {
                a.arg
                for a in args.args + args.posonlyargs + args.kwonlyargs
            }
            if names & _RNG_PARAM_NAMES and not names & _SEED_SOURCE_PARAMS:
                self.report(
                    stmt,
                    f"public entry point `{stmt.name}` accepts an RNG but "
                    "no `seed`/`config` parameter to derive one "
                    "deterministically",
                )
        # Module-level functions only: no generic_visit.


# ---------------------------------------------------------------------------
# API001 -- __all__ completeness and validity
# ---------------------------------------------------------------------------


@register_rule(
    rule_id="API001",
    title="__all__ must match the module's public definitions",
    rationale=(
        "Modules that declare __all__ are the package's public surface; a "
        "public def/class missing from __all__ is an accidental export "
        "(star-imports and docs disagree with intent), and an __all__ entry "
        "that names nothing is an import-time lie.  Keep __all__ exhaustive "
        "and valid."
    ),
    example_bad=(
        "__all__ = ['run']\n"
        "def run(): ...\n"
        "def report(): ...   # public but unlisted"
    ),
    example_fix="__all__ = ['report', 'run']",
)
class Api001DunderAll(Checker):
    def visit_Module(self, node: ast.Module) -> None:
        declared: Optional[List[Tuple[str, ast.AST]]] = None
        defined: Set[str] = set()
        imported: Set[str] = set()
        definitions: List[Tuple[str, ast.AST]] = []

        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.add(stmt.name)
                definitions.append((stmt.name, stmt))
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        if target.id == "__all__":
                            declared = self._literal_all(stmt.value)
                        else:
                            defined.add(target.id)
                            definitions.append((target.id, stmt))
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name):
                    defined.add(stmt.target.id)
                    definitions.append((stmt.target.id, stmt))
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    imported.add(alias.asname or alias.name.split(".")[0])

        if declared is None:
            return  # no __all__: module opted out of the contract
        declared_names = {name for name, _ in declared}
        for name, anchor in declared:
            if name not in defined and name not in imported:
                self.report(
                    anchor,
                    f"__all__ lists {name!r} which the module neither "
                    "defines nor imports",
                )
        for name, stmt in definitions:
            if name.startswith("_") or name in declared_names:
                continue
            self.report(
                stmt,
                f"public name {name!r} is defined but missing from __all__",
            )

    def _literal_all(
        self, value: ast.AST
    ) -> List[Tuple[str, ast.AST]]:
        names: List[Tuple[str, ast.AST]] = []
        if isinstance(value, (ast.List, ast.Tuple)):
            for element in value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    names.append((element.value, element))
        return names


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

"""Per-request code draws scalars through ``repro.sim.rng.BatchedStream``.

In ``repro.kvstore``, ``repro.network`` and ``repro.mesoscale`` a draw runs
once per request, where numpy's per-call dispatch costs more than the draw
itself.  Results cannot show an unbatched draw: a batched stream serves the
same values, so latency, digests and call budgets all miss one.  This
test finds every scalar draw on a generator-named receiver in those
packages and holds the set to an exact allowlist.

The allowlist is the open-loop arrival stream, which interleaves
distribution families on one generator and so must stay scalar (see
``OpenLoopWorkload``'s docstring): one function draws it, for every engine.

A draw through a ``_draws`` slot passes the source check whatever the slot
holds, so the slots are checked on what each engine builds: a raw
generator handed to one is the same unbatched draw.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenarios import build_scenario
from repro.mesoscale import FlowEngine, VectorFlowEngine
from repro.sim.rng import BatchedStream

HOT_PACKAGES = ("kvstore", "network", "mesoscale")

#: Generator methods with a batched equivalent in repro.sim.rng.
SCALAR_DRAWS = frozenset({"random", "exponential", "integers"})
#: Receivers that hold a Generator by convention, plus any ``*_rng``; a
#: BatchedStream slot (``_draws``) is not one.
RNG_NAMES = frozenset({"rng", "_rng", "gen", "generator", "random_state"})
SCOPES = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)

#: ``(module, enclosing function) -> scalar draws`` allowed there.  The
#: match is exact: a new draw fails, and so does one that went away.
ALLOWED = {
    ("kvstore/workload.py", "OpenLoopWorkload.draw_requests"): 3,
}


def scalar_draws(source):
    """Count scalar generator draws (no ``size=``) per enclosing function."""
    found = Counter()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, SCOPES):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                receiver = child.func.value
                name = getattr(receiver, "id", None) or getattr(receiver, "attr", "")
                if (
                    child.func.attr in SCALAR_DRAWS
                    and (name in RNG_NAMES or name.endswith("_rng"))
                    and not any(kw.arg == "size" for kw in child.keywords)
                ):
                    found[".".join(scope)] += 1
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


#: One-line draws the matcher must count, by what makes them a generator.
FLAGGED = {
    "attribute": "self._rng.exponential(1.0)",
    "local": "rng.random()",
    "integers": "rng.integers(0, 4)",
    "role-named attribute": "self._arrival_rng.random()",
    "role-named local": "service_rng.exponential(mean)",
    "gen": "gen.integers(3)",
    "generator": "self.generator.random()",
    "random_state": "random_state.exponential(2.0)",
}
#: One-line calls the matcher must leave alone, by why they are not a
#: per-request scalar draw from a generator.
SKIPPED = {
    "size keyword": "self.rng.exponential(1.0, size=64)",
    "batched stream slot": "self._draws.exponential(1.0)",
    "numpy module": "np.random.exponential(1.0)",
    "other distribution": "rng.normal(0.0, 1.0)",
    "choice": "rng.choice(replicas)",
    "non-generator receiver": "self.stream.random()",
    "rng prefix": "rng_factory.random()",
    "bare function": "exponential(1.0)",
}


def _in_method(line):
    return f"class S:\n    def f(self, rng):\n        return {line}\n"


@pytest.mark.parametrize("line", FLAGGED.values(), ids=FLAGGED.keys())
def test_the_matcher_counts_a_scalar_generator_draw(line):
    assert scalar_draws(_in_method(line)) == Counter({"S.f": 1})


@pytest.mark.parametrize("line", SKIPPED.values(), ids=SKIPPED.keys())
def test_the_matcher_skips_a_call_that_is_no_scalar_draw(line):
    assert scalar_draws(_in_method(line)) == Counter()


@pytest.mark.parametrize(
    "source, key",
    [
        ("x = rng.random()\n", ""),
        ("def f(rng):\n    def g():\n        return rng.random()\n", "f.g"),
        ("class S:\n    def f(self):\n        return lambda: rng.random()\n", "S.f"),
    ],
    ids=["module level", "nested function", "lambda in a method"],
)
def test_the_matcher_keys_a_draw_by_its_enclosing_function(source, key):
    assert scalar_draws(source) == Counter({key: 1})


def test_the_allowlist_names_only_hot_packages():
    assert {module.split("/")[0] for module, _ in ALLOWED} <= set(HOT_PACKAGES)


@pytest.mark.parametrize("package", HOT_PACKAGES)
def test_hot_packages_draw_scalars_only_where_allowed(package):
    root = Path(repro.__file__).parent
    paths = sorted((root / package).rglob("*.py"))
    assert paths
    found = {}
    for path in paths:
        module = path.relative_to(root).as_posix()
        for function, count in scalar_draws(path.read_text()).items():
            found[(module, function)] = count
    allowed = {
        site: count for site, count in ALLOWED.items()
        if site[0].startswith(package + "/")
    }
    assert found == allowed


def _build_packet(config):
    scenario = build_scenario(config)
    return scenario.servers, scenario.clients, scenario.workload


def _build_flow(engine_class):
    def build(config):
        engine = engine_class(config.replace(fidelity="flow"))
        return engine.servers, engine.clients, engine.workload

    return build


@pytest.mark.parametrize(
    "build",
    [_build_packet, _build_flow(FlowEngine), _build_flow(VectorFlowEngine)],
    ids=["packet", "scalar flow", "soa"],
)
def test_every_per_request_draw_slot_holds_a_batched_stream(build):
    """Service times, service fluctuation, the R95 duplicate's tie-break and
    the Zipf keys: each is drawn per request through a ``_draws`` slot."""
    config = ExperimentConfig.small(scheme="clirs-r95", seed=0, total_requests=200)
    servers, clients, workload = build(config)
    slots = {"keys": workload.key_sampler._draws}
    for name, server in servers.items():
        slots[f"service {name}"] = server._draws
        slots[f"fluctuation {name}"] = server.service_model._draws
    for client in clients:
        slots[f"redundancy {client.name}"] = client._draws
    assert len(slots) == 1 + 2 * len(servers) + len(clients)
    raw = {slot for slot, draws in slots.items() if not isinstance(draws, BatchedStream)}
    assert raw == set()

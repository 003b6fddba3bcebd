"""The SoA engine's contract: ``vector_batch`` is a pure performance knob.

Any block size, any flow config, the result is byte-identical to
``vector_batch=0`` -- samples, every counter, micro-event count.  Which
engine produces it is a pure function of the config
(``repro.mesoscale.support.vector_eligible``): client-side plain-C3 configs
the flow engine models run :class:`VectorFlowEngine`, whose one inlined drain is
held to the scalar engine here over every axis its branches read; anything
else runs the scalar :class:`FlowEngine`, and the tests say so by class, so
that no identity row can quietly become scalar against scalar.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.mesoscale import FlowEngine, VectorFlowEngine, shard_configs
from repro.mesoscale.validate import differences


#: Fault transitions on the heap interleave with the block cursor.
SERVER_FAULTS = "server-down@0.02:server#0;server-up@0.06:server#0"
LINK_DOWN = "link-down@0.03:client#1/tor(client#1);link-up@0.05:client#1/tor(client#1)"
LINK_DEGRADE = "link-degrade@0.01:client#2/tor(client#2)*3.0"


def _flow(scheme, seed=5, **overrides):
    config = ExperimentConfig.tiny(scheme=scheme, seed=seed)
    return config.replace(fidelity="flow", **overrides)


def _run(config):
    """A flow run's result, and the class of the engine that produced it."""
    result = run_experiment(config, keep_scenario=True)
    engine_class = type(result.scenario)
    result.scenario.teardown()
    return result, engine_class


def _assert_identical(scalar, vector, tag):
    """Equal results, both from a flow engine (never the packet engine)."""
    for result in (scalar, vector):
        assert result.micro_events > 0 and result.events_executed == 0, tag
    assert differences(scalar, vector, ignore=()) == [], tag


def _assert_knob_is_invisible(config, vector_batch, engine_class, tag):
    """``vector_batch`` lands on ``engine_class`` and changes no result field."""
    vector, vector_class = _run(config.replace(vector_batch=vector_batch))
    assert vector_class is engine_class, tag
    _assert_identical(run_experiment(config), vector, tag)
    return vector


@pytest.mark.parametrize("vector_batch", [3, 64, 10**6])
@pytest.mark.parametrize("scheme", ["clirs", "clirs-r95", "netrs-tor"])
def test_vector_is_bit_identical_to_scalar_flow(scheme, vector_batch):
    """Block size must never matter: smaller than the run (chunked reload),
    mid-size, and larger than the whole run all reduce to the scalar
    engine's exact event sequence.  In-network selection is not the SoA
    engine's: netrs-tor runs the scalar engine at every block size."""
    engine_class = FlowEngine if scheme == "netrs-tor" else VectorFlowEngine
    _assert_knob_is_invisible(
        _flow(scheme), vector_batch, engine_class, (scheme, vector_batch)
    )


@pytest.mark.parametrize("scheme", ["clirs", "clirs-r95", "netrs-tor"])
def test_vector_is_bit_identical_under_faults(scheme):
    """Server faults keep client-side schemes on the SoA engine, with fault
    transitions on the heap interleaving with the block cursor."""
    config = _flow(
        scheme,
        fault_schedule=SERVER_FAULTS,
        request_timeout=0.04,
        max_retries=3,
    )
    engine_class = FlowEngine if scheme == "netrs-tor" else VectorFlowEngine
    _assert_knob_is_invisible(config, 7, engine_class, scheme)


#: What keeps a config off the SoA engine, one reason per row.
_INELIGIBLE = {
    "netrs-tor": _flow("netrs-tor"),
    "c3-rate": _flow("clirs-r95", algorithm="c3-rate"),
    "random": _flow("clirs-r95", algorithm="random"),
}


@pytest.mark.parametrize("reason", sorted(_INELIGIBLE))
def test_ineligible_configs_run_the_scalar_engine(reason):
    _assert_knob_is_invisible(_INELIGIBLE[reason], 64, FlowEngine, reason)


#: Configs the flow engine does not model (they run on the packet engine).
_UNMODELLED = {
    "link-down": _flow("clirs-r95", fault_schedule=LINK_DOWN, request_timeout=0.04),
    "link-degrade": _flow(
        "clirs-r95", fault_schedule=LINK_DEGRADE, request_timeout=0.04
    ),
}


@pytest.mark.parametrize("reason", sorted(_INELIGIBLE) + sorted(_UNMODELLED))
def test_soa_engine_refuses_an_ineligible_config(reason):
    """There is no second path inside the SoA engine to fall back on."""
    config = _INELIGIBLE.get(reason) or _UNMODELLED[reason]
    with pytest.raises(ConfigurationError, match="scalar FlowEngine"):
        VectorFlowEngine(config, vector_batch=64)


def test_sharded_run_picks_the_engine_per_shard():
    """A server fault lands in one shard: every shard runs SoA, and the merged
    result does not depend on the knob."""
    config = ExperimentConfig.small(scheme="clirs-r95", seed=5).replace(
        fidelity="flow",
        total_requests=2000,
        n_clients=32,
        n_servers=64,
        shards=4,
        fault_schedule=SERVER_FAULTS,
        request_timeout=0.02,
        max_retries=5,
    )
    vector = config.replace(vector_batch=64)
    classes = [_run(sub)[1] for sub in shard_configs(vector)]
    assert classes == [VectorFlowEngine] * 4
    merged = run_experiment(vector)
    _assert_identical(run_experiment(config), merged, "sharded")
    assert merged.server_dropped_requests > 0


_CRASH_RETRY = dict(fault_schedule=SERVER_FAULTS, request_timeout=0.01)

#: The axes the inlined drain's branches read: name -> (scheme, overrides,
#: result fields that must be nonzero for the row to exercise its branch).
_FAST_PATH_AXES = {
    "stable-service": ("clirs-r95", dict(fluctuation_range=1.0), ()),
    "fluctuation-3x": ("clirs-r95", dict(fluctuation_range=3.0), ()),
    "unbatched-rng": ("clirs-r95", dict(rng_batch_size=0), ()),
    # Timeouts shorter than the tail: hundreds of live timeouts, retries
    # through the flat retry send, some requests lost.
    "live-timeouts": (
        "clirs",
        dict(request_timeout=0.002, max_retries=2),
        ("timeouts", "retries", "requests_lost", "duplicates_suppressed"),
    ),
    "live-timeouts-r95": (
        "clirs-r95",
        dict(request_timeout=0.002, max_retries=2),
        ("timeouts", "retries", "requests_lost", "redundant_requests"),
    ),
    "crash-no-retry": (
        "clirs",
        dict(max_retries=0, **_CRASH_RETRY),
        ("timeouts", "requests_lost", "server_dropped_requests"),
    ),
    "crash-one-retry": (
        "clirs-r95",
        dict(max_retries=1, **_CRASH_RETRY),
        ("timeouts", "retries", "server_dropped_requests"),
    ),
    "crash-never-recovers": (
        "clirs",
        dict(
            fault_schedule="server-down@0.02:server#0",
            request_timeout=0.01,
            max_retries=3,
        ),
        ("retries", "server_dropped_requests", "unavailability"),
    ),
    # One replica: the duplicate finds no other server; two: exactly one.
    "replication-1": ("clirs-r95", dict(replication_factor=1), ()),
    "replication-2": (
        "clirs-r95", dict(replication_factor=2), ("redundant_requests",)
    ),
    "one-client": ("clirs-r95", dict(n_clients=1), ()),
    "one-service-slot": ("clirs-r95", dict(parallelism=1, utilization=0.5), ()),
    "utilization-0.99": ("clirs-r95", dict(utilization=0.99), ()),
    "demand-skew": ("clirs-r95", dict(demand_skew=0.8), ()),
    "redundancy-p50": (
        "clirs-r95", dict(redundancy_percentile=50), ("redundant_requests",)
    ),
    "no-heap-compaction": ("clirs-r95", dict(engine_compaction=False), ()),
}


@pytest.mark.parametrize("axis", sorted(_FAST_PATH_AXES))
def test_fast_path_identity_matrix(axis):
    """Every branch of the one drain against the scalar engine: two seeds,
    a block far smaller and one far larger than the run."""
    scheme, overrides, exercised = _FAST_PATH_AXES[axis]
    for seed, vector_batch in ((5, 7), (6, 4096)):
        config = _flow(scheme, seed=seed, **overrides)
        result = _assert_knob_is_invisible(
            config, vector_batch, VectorFlowEngine, (axis, seed)
        )
        for name in exercised:
            assert getattr(result, name) > 0, (axis, seed, name)


def test_vector_same_seed_is_deterministic():
    config = _flow("clirs-r95", vector_batch=64)
    first = run_experiment(config)
    second = run_experiment(config)
    assert tuple(first.latency.samples) == tuple(second.latency.samples)
    assert first.summary() == second.summary()
    assert first.micro_events == second.micro_events


def test_vector_dispatches_through_run_experiment():
    """``run_experiment`` runs the SoA engine, and reports what one driven by
    hand does."""
    config = _flow("clirs", vector_batch=64)
    via_dispatch = run_experiment(config)
    direct = VectorFlowEngine(config)
    direct.run()
    assert tuple(via_dispatch.latency.samples) == tuple(direct.recorder.samples)
    assert via_dispatch.micro_events == direct.micro_events
    direct.teardown()


@pytest.mark.parametrize("scenario", ["fig4-clirs-r95", "faults-clirs"])
def test_vector_identity_on_committed_validation_scenarios(scenario):
    """The acceptance bar, spelled on the committed fidelity scenarios:
    the vectorized tier is bit-identical to the scalar serial tier, and
    the sharded run is invariant over the vector knob."""
    from repro.mesoscale.validate import _scenario_configs

    config = _scenario_configs()[scenario].replace(fidelity="flow")
    scalar = run_experiment(config)
    vector = run_experiment(config.replace(vector_batch=4096))
    _assert_identical(scalar, vector, scenario)
    sharded = run_experiment(config.replace(shards=4))
    sharded_vector = run_experiment(
        config.replace(shards=4, vector_batch=4096)
    )
    _assert_identical(sharded, sharded_vector, (scenario, "sharded"))


@pytest.mark.parametrize("seed", [7, 11])
def test_late_copies_count_as_on_the_packet_tier(seed):
    """R95 duplicates still on the wire when the last request completes: the
    SoA engine gives back the hops they never made, as the packet tier does."""
    config = ExperimentConfig.tiny(scheme="clirs-r95", seed=seed)
    packet = run_experiment(config)
    vector, engine_class = _run(config.replace(fidelity="flow", vector_batch=64))
    assert engine_class is VectorFlowEngine
    assert differences(packet, vector) == []


def test_vector_batch_requires_flow_fidelity():
    with pytest.raises(ConfigurationError):
        ExperimentConfig.tiny(scheme="clirs").replace(vector_batch=64)

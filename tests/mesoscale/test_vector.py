"""The SoA fast path's contract: ``vector_batch`` is a pure performance
knob -- any batch size, any scheme, faults or not, the vectorized engine
must be byte-identical to the scalar flow tier (samples, every counter,
micro-event count), and the config knob must land on it through every
dispatch surface.
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.mesoscale.runner import run_flow_experiment

from tests.mesoscale.test_flow import FAULT_SCHEDULE, IDENTITY_FIELDS

#: Flow-tier-only counter, checked on top of the shared identity fields.
_FIELDS = IDENTITY_FIELDS + ("micro_events",)

#: Same-server-only schedule: keeps the vector engine on its dense fast
#: path (link faults force the guarded scalar-send fallback).
SERVER_FAULTS = "server-down@0.02:server#0;server-up@0.06:server#0"


def _flow(scheme, **overrides):
    config = ExperimentConfig.tiny(scheme=scheme, seed=5)
    return config.replace(fidelity="flow", **overrides)


def _assert_identical(scalar, vector, tag):
    assert tuple(vector.latency.samples) == tuple(scalar.latency.samples), tag
    for name in _FIELDS:
        assert getattr(vector, name) == getattr(scalar, name), (tag, name)
    assert abs(vector.unavailability - scalar.unavailability) < 1e-12, tag


@pytest.mark.parametrize("vector_batch", [3, 64, 10**6])
@pytest.mark.parametrize("scheme", ["clirs", "clirs-r95", "netrs-tor"])
def test_vector_is_bit_identical_to_scalar_flow(scheme, vector_batch):
    """Block size must never matter: smaller than the run (chunked reload),
    mid-size, and larger than the whole run all reduce to the scalar
    engine's exact event sequence."""
    config = _flow(scheme)
    scalar = run_flow_experiment(config)
    vector = run_flow_experiment(config.replace(vector_batch=vector_batch))
    _assert_identical(scalar, vector, (scheme, vector_batch))


@pytest.mark.parametrize("fault_schedule", [FAULT_SCHEDULE, SERVER_FAULTS])
@pytest.mark.parametrize("scheme", ["clirs", "clirs-r95", "netrs-tor"])
def test_vector_is_bit_identical_under_faults(scheme, fault_schedule):
    """Fault schedules exercise both vector modes: link faults force the
    guarded (scalar-send) path, server-only faults keep the dense fast
    path while still interleaving macro fault events with the block
    cursor."""
    config = _flow(
        scheme,
        fault_schedule=fault_schedule,
        request_timeout=0.04,
        max_retries=3,
    )
    scalar = run_flow_experiment(config)
    vector = run_flow_experiment(config.replace(vector_batch=7))
    _assert_identical(scalar, vector, (scheme, fault_schedule[:20]))


def test_vector_same_seed_is_deterministic():
    config = _flow("clirs-r95", vector_batch=64)
    first = run_flow_experiment(config)
    second = run_flow_experiment(config)
    assert tuple(first.latency.samples) == tuple(second.latency.samples)
    assert first.summary() == second.summary()
    assert first.micro_events == second.micro_events


def test_vector_dispatches_through_run_experiment():
    config = _flow("clirs", vector_batch=64)
    via_dispatch = run_experiment(config)
    direct = run_flow_experiment(config)
    assert tuple(via_dispatch.latency.samples) == tuple(direct.latency.samples)
    assert via_dispatch.micro_events == direct.micro_events


@pytest.mark.parametrize("scenario", ["fig4-clirs-r95", "faults-clirs"])
def test_vector_identity_on_committed_validation_scenarios(scenario):
    """The acceptance bar, spelled on the committed fidelity scenarios:
    the vectorized tier is bit-identical to the scalar serial tier, and
    the sharded run is invariant over the vector knob."""
    from repro.mesoscale.validate import _scenario_configs

    config = _scenario_configs()[scenario].replace(fidelity="flow")
    scalar = run_flow_experiment(config)
    vector = run_flow_experiment(config.replace(vector_batch=4096))
    _assert_identical(scalar, vector, scenario)
    sharded = run_flow_experiment(config.replace(shards=4))
    sharded_vector = run_flow_experiment(
        config.replace(shards=4, vector_batch=4096)
    )
    _assert_identical(sharded, sharded_vector, (scenario, "sharded"))


def test_vector_batch_requires_flow_fidelity():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        ExperimentConfig.tiny(scheme="clirs").replace(vector_batch=64)

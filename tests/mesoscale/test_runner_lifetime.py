"""A flow run owns its memory: ``run_experiment`` parks the cyclic
collector for the run, restores the caller's collector state on every exit,
and tears the engine down so that it dies by reference count.

The oracle for "dies by reference count" is ``gc.collect()`` returning 0
after a run made with the collector off: an engine is one reference cycle of
tens of thousands of objects, so anything teardown misses shows up there.
"""

import gc
from contextlib import contextmanager

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.experiments import run_experiment
from repro.experiments.config import ExperimentConfig
from repro.mesoscale.flow import FlowEngine

_RETRY = dict(request_timeout=0.02, max_retries=5)
_CRASH = dict(
    fault_schedule="server-down@0.02:server#0;server-up@0.06:server#0", **_RETRY
)


def _config(scheme="clirs-r95", **overrides):
    fields = dict(fidelity="flow", total_requests=1500)
    fields.update(overrides)
    return ExperimentConfig.small(scheme=scheme, seed=5).replace(**fields)


_CONFIGS = {
    "scalar": _config(),
    "vector": _config(vector_batch=512),
    "netrs-tor-faults": _config("netrs-tor", **_CRASH),
    # The recovery is scheduled long after the last request completes: the
    # transition is still on the engine's heap when the engine is torn down.
    "netrs-tor-fault-pending": _config(
        "netrs-tor",
        fault_schedule="server-down@0.02:server#0;server-up@900:server#0",
        **_RETRY,
    ),
    "shards": _config(n_clients=32, n_servers=64, vector_batch=512, shards=4, **_CRASH),
}


@contextmanager
def _collector(enabled):
    """Run the block as a caller whose collector is on (or off)."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_finished_run_leaves_no_cyclic_garbage(name):
    gc.collect()  # empty the backlog, so that what is found below is the run's
    with _collector(False):
        result = run_experiment(_CONFIGS[name])
        assert gc.collect() == 0
    # The recorder is what survives the engine, and it still answers.
    assert result.completed_requests == _CONFIGS[name].total_requests
    assert result.summary()["mean"] > 0
    assert len(result.latency.samples) == len(result.latency)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("name", ["scalar", "vector", "shards"])
def test_collector_state_is_restored(name, enabled):
    with _collector(enabled):
        run_experiment(_CONFIGS[name])
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_is_restored_when_the_run_raises(enabled, monkeypatch):
    torn_down = []
    teardown = FlowEngine.teardown

    def recording_teardown(engine):
        torn_down.append(engine)
        teardown(engine)

    # An engine that never drains: the runner reports the stall.
    monkeypatch.setattr(FlowEngine, "run", lambda self, until=None: None)
    monkeypatch.setattr(FlowEngine, "teardown", recording_teardown)
    with _collector(enabled):
        with pytest.raises(ReproError, match="stalled"):
            run_experiment(_CONFIGS["scalar"])
        assert gc.isenabled() is enabled
    assert len(torn_down) == 1 and not vars(torn_down[0])


@pytest.mark.parametrize("name", ["scalar", "vector", "netrs-tor-faults"])
def test_keep_scenario_returns_a_live_engine(name):
    config = _CONFIGS[name]
    result = run_experiment(config, keep_scenario=True)
    engine = result.scenario
    assert isinstance(engine, FlowEngine)
    # What benchmarks/layered reads off a kept engine: every selector.
    selections = sum(client.selector.selections for client in engine.clients)
    selections += sum(
        op.selector.algorithm.selections for op in engine.operators.values()
    )
    assert selections >= config.total_requests
    assert len(engine.servers) == config.n_servers
    assert sum(s.completions for s in engine.servers.values()) > 0
    assert engine.recorder is result.latency


def test_keeping_the_engine_of_a_sharded_run_is_rejected_at_the_call():
    """A sharded run has no one engine to hand back; the flag used to be
    dropped silently and the caller failed later on ``result.scenario``."""
    with pytest.raises(ConfigurationError, match="one engine per shard"):
        run_experiment(_CONFIGS["shards"], keep_scenario=True)


def test_torn_down_engine_fails_loudly():
    engine = FlowEngine(_CONFIGS["scalar"])
    engine.teardown()
    with pytest.raises(AttributeError):
        engine.run()

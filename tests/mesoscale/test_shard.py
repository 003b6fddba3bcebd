"""The sharded flow tier's contract: ``shards=N`` runs N independent
scaled-down sub-experiments, so its guarantee is *not* equality with the
unsharded run (a different RNG universe) -- it is that the sharded result
is deterministic and invariant over everything that merely reorders the
work: vector on/off, worker count, resumption.  Fault schedules remap onto
shard-local populations and must aggregate exactly.
"""

import json
from array import array

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.exec import Job, JobOutcome
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.mesoscale import shard
from repro.mesoscale.shard import run_sharded_flow_experiment, shard_configs
from repro.mesoscale.validate import differences


def _sharded(scheme, **overrides):
    config = ExperimentConfig.small(scheme=scheme, seed=3)
    fields = dict(
        fidelity="flow", n_clients=32, n_servers=64, total_requests=600
    )
    fields.update(overrides)
    return config.replace(**fields)


def _assert_identical(a, b, tag):
    """Equal results, both from flow engines (never the packet engine)."""
    for result in (a, b):
        assert result.micro_events > 0 and result.events_executed == 0, tag
    assert differences(a, b, ignore=()) == [], tag


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("scheme", ["clirs", "clirs-r95", "netrs-tor"])
def test_sharded_run_is_deterministic_and_vector_invariant(scheme, shards):
    """Per shard count: repeat runs agree exactly, and routing every shard
    through the SoA fast path changes nothing (vector x shards identity)."""
    config = _sharded(scheme, shards=shards)
    base = run_experiment(config)
    again = run_experiment(config)
    _assert_identical(base, again, (scheme, shards, "repeat"))
    vector = run_experiment(config.replace(vector_batch=512))
    _assert_identical(base, vector, (scheme, shards, "vector"))
    assert base.completed_requests == config.total_requests


def test_parallel_workers_match_serial():
    """The merge is job-key ordered, so the worker count (and hence shard
    completion order) cannot leak into the result."""
    config = _sharded("clirs-r95", total_requests=400, shards=4, vector_batch=512)
    serial = run_sharded_flow_experiment(config, workers=1)
    parallel = run_sharded_flow_experiment(config, workers=4)
    _assert_identical(serial, parallel, "workers")


def test_a_shard_hands_over_unboxed_samples_that_record_as_json():
    sub = shard_configs(_sharded("clirs-r95", shards=2))[0]
    outcome = shard._run_shard_job(Job.from_config(sub, 0))
    assert isinstance(outcome.samples, np.ndarray) and outcome.samples.dtype == np.float64
    assert not outcome.samples.flags.writeable  # the recorder's buffer, read-only
    assert len(outcome.samples) > 0
    record = json.loads(json.dumps(outcome.to_record()))
    assert JobOutcome.from_record(record).samples == list(outcome.samples)


def test_a_ledger_round_trip_is_byte_identical(tmp_path, monkeypatch):
    """A sharded run spooled to a ledger reports what the in-memory run does,
    sample for sample and counter for counter; so does a run resumed from
    that ledger, which runs no shard again."""
    config = _sharded("clirs-r95", shards=2)
    memory = run_sharded_flow_experiment(config)
    want = (array("d", memory.latency.samples).tobytes(), memory.counters())
    spooled = run_sharded_flow_experiment(config, run_dir=tmp_path / "run")
    monkeypatch.setattr(shard, "run_experiment", None)  # a shard run would raise
    resumed = run_sharded_flow_experiment(config, run_dir=tmp_path / "run", resume=True)
    for result in (spooled, resumed):
        assert (array("d", result.latency.samples).tobytes(), result.counters()) == want


def test_fault_schedule_remaps_and_aggregates():
    """Logical fault targets land on their owning shard's local population;
    injected-fault counts and downtime aggregate exactly (each fault event
    is owned by exactly one shard)."""
    config = _sharded(
        "clirs",
        n_clients=64,
        fault_schedule=(
            "server-down@0.02:server#0;server-up@0.06:server#0;"
            "server-down@0.01:server#33;server-up@0.04:server#33"
        ),
        request_timeout=0.04,
        max_retries=3,
    )
    sharded = run_experiment(config.replace(shards=4))
    vector = run_experiment(config.replace(shards=4, vector_batch=512))
    _assert_identical(sharded, vector, "faults")
    # The remapped schedule injects exactly what the sub-experiments see:
    # summing the per-shard serial runs must reproduce the merged counters.
    subs = [run_experiment(sub) for sub in shard_configs(config.replace(shards=4))]
    assert sharded.faults_injected == sum(s.faults_injected for s in subs)
    assert sharded.unavailability == pytest.approx(
        sum(s.unavailability for s in subs)
    )
    assert sharded.completed_requests == sum(s.completed_requests for s in subs)


def test_shard_configs_are_independent_sub_experiments():
    config = _sharded("clirs", shards=4)
    subs = shard_configs(config)
    assert len(subs) == 4
    assert all(sub.shards == 1 for sub in subs)
    assert all(sub.n_servers == config.n_servers // 4 for sub in subs)
    assert sum(sub.total_requests for sub in subs) == config.total_requests
    assert len({sub.seed for sub in subs}) == 4  # disjoint RNG universes


def test_netrs_merge_reports_sharded_plan():
    config = _sharded("netrs-tor", shards=4)
    result = run_experiment(config)
    assert "FLOW-SHARDED" in result.plan_description
    assert "shards=4" in result.plan_description


def test_rejects_non_dividing_and_oversplit_configs():
    with pytest.raises(ConfigurationError):
        _sharded("clirs", shards=5)  # 64 % 5 != 0
    with pytest.raises(ConfigurationError):
        _sharded("clirs", total_requests=32, shards=64)  # < 1 request/shard


def test_rejects_a_config_the_flow_engine_does_not_model():
    """A packet shard would build the whole tree: sharding stays a flow-engine
    feature, and a config that runs on the packet engine keeps shards=1."""
    with pytest.raises(ConfigurationError, match="packet engine"):
        _sharded("clirs", shards=4, write_fraction=0.1)
    with pytest.raises(ConfigurationError, match="packet engine"):
        _sharded(
            "clirs",
            shards=4,
            fault_schedule="link-down@0.01:client#1/tor(client#1)",
            request_timeout=0.04,
        )


def test_rejects_raw_host_fault_targets():
    """Raw host names bind to the unsharded topology; sharded runs must
    refuse them up front rather than remap them wrongly."""
    with pytest.raises(ConfigurationError, match="logical"):
        _sharded(
            "clirs",
            shards=4,
            fault_schedule="server-down@0.02:host_0_0_1;server-up@0.06:host_0_0_1",
            request_timeout=0.04,
        )

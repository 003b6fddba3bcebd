"""Tests for the job model: stable keys, content digests, outcomes."""

import dataclasses
import functools
import json

import pytest

from repro.errors import ConfigurationError
from repro.exec import Job, JobOutcome, config_digest
from repro.experiments import run_experiment
from repro.experiments.config import RUN_OPTIONS, ExperimentConfig
from repro.mesoscale.validate import differences


#: One non-default value per run option (``vector_batch`` acts only on
#: the flow tier, so it rides with ``fidelity="flow"``).
_RUN_OPTION_VALUES = {
    "route_cache_size": {"route_cache_size": 0},
    "engine_compaction": {"engine_compaction": False},
    "rng_batch_size": {"rng_batch_size": 0},
    "fidelity": {"fidelity": "flow"},
    "vector_batch": {"vector_batch": 64, "fidelity": "flow"},
}

#: Configs the identity contract is held on, built on use.
_IDENTITY_CONFIGS = {
    "clirs-r95": lambda: ExperimentConfig.tiny("clirs-r95", seed=7),
    "netrs-ilp": lambda: ExperimentConfig.tiny("netrs-ilp", seed=7),
    "netrs-tor-crash": lambda: ExperimentConfig.tiny(
        "netrs-tor",
        seed=5,
        fault_schedule="server-down@0.01:server#0;server-up@0.03:server#0",
        request_timeout=0.01,
        max_retries=3,
    ),
    "clirs-quorum-churn": lambda: ExperimentConfig.tiny(
        "clirs",
        seed=3,
        write_fraction=0.3,
        write_quorum=2,
        read_quorum=2,
        request_timeout=0.25,
        churn_schedule="node-leave@0.01:server#1;node-join@0.03:server#1",
    ),
    "netrs-ilp-link-fault": lambda: ExperimentConfig.tiny(
        "netrs-ilp",
        seed=4,
        fault_schedule="link-down@0.01:tor0.0/agg0.0;link-up@0.03:tor0.0/agg0.0",
        request_timeout=0.02,
        max_retries=3,
    ),
}


@functools.lru_cache(maxsize=None)
def _base_result(config_name):
    return run_experiment(_IDENTITY_CONFIGS[config_name]())


def _other_value(config, name):
    """A value of field ``name`` that differs from ``config``'s."""
    value = getattr(config, name)
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    return f"{value}-changed"


class TestJobKeys:
    def test_key_embeds_index_scheme_and_seed(self):
        config = ExperimentConfig.tiny(scheme="netrs-tor", seed=7)
        job = Job.from_config(config, 3)
        assert job.key == "00003-netrs-tor-s7"

    def test_key_order_is_submission_order(self):
        configs = [
            ExperimentConfig.tiny(scheme=scheme, seed=seed)
            for seed in range(3)
            for scheme in ("clirs", "netrs-tor")
        ]
        jobs = [Job.from_config(c, i) for i, c in enumerate(configs)]
        assert sorted(job.key for job in jobs) == [job.key for job in jobs]

    def test_invalid_config_rejected_at_job_creation(self):
        config = ExperimentConfig.tiny()
        config.scheme = "bogus"
        with pytest.raises(ConfigurationError):
            Job.from_config(config, 0)


class TestDigests:
    def test_digest_stable_for_equal_configs(self):
        first = ExperimentConfig.tiny(seed=2)
        second = ExperimentConfig.tiny(seed=2)
        assert config_digest(first) == config_digest(second)

    @pytest.mark.parametrize(
        "name",
        [
            f.name
            for f in dataclasses.fields(ExperimentConfig)
            if f.name not in RUN_OPTIONS
        ],
    )
    def test_digest_changes_with_any_model_field(self, name):
        """A different value of any field outside ``RUN_OPTIONS`` is a
        different experiment, so a different digest."""
        base = ExperimentConfig.tiny(seed=2)
        changed = dataclasses.replace(base, **{name: _other_value(base, name)})
        assert config_digest(changed) != config_digest(base)

    @pytest.mark.parametrize("config_name", sorted(_IDENTITY_CONFIGS))
    @pytest.mark.parametrize("option", sorted(_RUN_OPTION_VALUES))
    def test_run_options_keep_identity_and_results(self, option, config_name):
        """The identity contract: a run option changes neither the digest nor
        any result (latency samples, every counter but each engine's own
        event count) -- on plain reads, under NetRS placement, through a
        server crash, a quorum/churn mix and a link fault (the only traffic
        that reads the route table)."""
        assert set(_RUN_OPTION_VALUES) == set(RUN_OPTIONS)
        base = _IDENTITY_CONFIGS[config_name]()
        variant = base.replace(**_RUN_OPTION_VALUES[option])
        assert getattr(variant, option) != getattr(base, option)
        assert config_digest(variant) == config_digest(base)
        assert differences(_base_result(config_name), run_experiment(variant)) == []


class TestJobOutcome:
    def test_record_roundtrip(self):
        outcome = JobOutcome(
            key="00000-clirs-s0",
            digest="abc",
            summary={"mean": 1.0, "p99": 4.0},
            write_summary={"mean": 2.0},
            counters={"rsnode_count": 2, "completed_requests": 100, "unavailability": 0.5},
            wall_time=0.5,
            attempts=2,
            samples=[1e-3, 2e-3],
        )
        record = json.loads(json.dumps(outcome.to_record()))  # as the ledger spools it
        assert JobOutcome.from_record(record) == outcome

    def test_from_record_ignores_unknown_fields(self):
        record = {"key": "k", "digest": "d", "schema": 1, "mystery": True}
        outcome = JobOutcome.from_record(record)
        assert outcome.key == "k"
        assert outcome.digest == "d"

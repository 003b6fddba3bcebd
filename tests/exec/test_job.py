"""Tests for the job model: stable keys, content digests, outcomes."""

import argparse
import dataclasses
import hashlib
import json

import pytest

from repro.cli import build_parser
from repro.errors import ConfigurationError
from repro.exec import Job, JobOutcome, config_digest
from repro.exec.job import _DIGEST_DEFAULTS
from repro.exec.ledger import SCHEMA_VERSION, RunLedger
from repro.experiments.config import ExperimentConfig


def _legacy_digest(config):
    """The digest of ``config`` as a pre-PR6 writer computed it: no elided
    field existed yet, and ``engine_backend`` (retired since, always
    ``"auto"`` in any ledger) was hashed unconditionally."""
    fields = dataclasses.asdict(config)
    for name in ("fidelity", "vector_batch", "shards", "read_quorum", "churn_schedule"):
        fields.pop(name)
    fields["engine_backend"] = "auto"
    return hashlib.sha256(
        json.dumps(fields, sort_keys=True, default=repr).encode("utf-8")
    ).hexdigest()[:16]


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

    def test_digest_changes_with_any_field(self):
        base = ExperimentConfig.tiny(seed=2)
        assert config_digest(base) != config_digest(base.replace(seed=3))
        assert config_digest(base) != config_digest(
            base.replace(utilization=0.42)
        )

    def test_digests_survive_the_retired_engine_backend_field(self):
        """``engine_backend`` was a founding field; its only surviving value
        stays in the payload, so these literals (measured at the last commit
        that had the field) still match and old ledgers resume.  Naming the
        field is an error, never silently ignored."""
        pinned = (
            (ExperimentConfig.small("clirs", seed=0), "0649eafa138c495f"),
            (ExperimentConfig.tiny("netrs-ilp", seed=3), "69e48b015cc5197a"),
            (ExperimentConfig.paper("clirs-r95", seed=1), "7b76efa72d2af46f"),
        )
        for config, digest in pinned:
            assert config_digest(config) == digest
        assert len(dataclasses.fields(ExperimentConfig)) == 54
        with pytest.raises(TypeError):
            ExperimentConfig(engine_backend="auto")
        with pytest.raises(TypeError):
            ExperimentConfig.tiny().replace(engine_backend="python")

    def test_digest_elides_default_fidelity(self):
        """Ledgers written before ``fidelity`` existed must keep matching.

        The pre-PR6 digest hashed a payload with no ``fidelity`` key; the
        field is elided while it holds its default, so that digest is
        reproduced exactly.  A non-default fidelity is a different
        experiment and must change the digest.
        """
        config = ExperimentConfig.tiny(seed=2)
        assert config.fidelity == "packet"
        legacy = _legacy_digest(config)
        assert config_digest(config) == legacy
        assert config_digest(config.replace(fidelity="flow")) != legacy

    @pytest.mark.parametrize("name", sorted(_DIGEST_DEFAULTS))
    def test_elided_fields_are_run_options_at_their_defaults(self, name):
        """Each ``_DIGEST_DEFAULTS`` key is an ``ExperimentConfig`` field,
        elides exactly that field's default, and is an option of ``netrs
        run``.  A new field added *without* an elision entry changes the
        pinned literals of
        ``test_digests_survive_the_retired_engine_backend_field``."""
        defaults = {
            field.name: field.default
            for field in dataclasses.fields(ExperimentConfig)
        }
        (subcommands,) = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        run_options = subcommands.choices["run"]._option_string_actions
        assert name in defaults
        assert _DIGEST_DEFAULTS[name] == defaults[name]
        assert "--" + name.replace("_", "-") in run_options

    def test_digest_elides_default_vector_and_shard_knobs(self):
        """``vector_batch`` / ``shards`` follow the ``fidelity`` dance: the
        fields are elided at their defaults so ledgers written before the
        knobs existed keep matching, and any non-default value is a
        different experiment."""
        config = ExperimentConfig.tiny(seed=2)
        assert (config.vector_batch, config.shards) == (0, 1)
        assert config.read_quorum is None and config.churn_schedule is None
        assert config_digest(config) == _legacy_digest(config)
        flow = config.replace(fidelity="flow")
        assert config_digest(flow.replace(vector_batch=64)) != config_digest(flow)
        assert config_digest(flow.replace(shards=2)) != config_digest(flow)

    def test_handwritten_pre_pr9_ledger_still_resumes(self, tmp_path):
        """A record whose digest hashed a payload with no ``vector_batch``/
        ``shards`` keys (the layout before the vectorized/sharded flow tier
        existed) still matches today's config."""
        config = ExperimentConfig.tiny(seed=5)
        legacy_digest = _legacy_digest(config)
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        record = {
            "schema": SCHEMA_VERSION,
            "key": "00000-clirs-s5",
            "digest": legacy_digest,
            "summary": {"mean": 1.0},
            "counters": {"rsnode_count": 0, "completed_requests": 10},
            "wall_time": 0.1,
            "attempts": 1,
        }
        (run_dir / "ledger.jsonl").write_text(
            json.dumps(record) + "\n", encoding="utf-8"
        )
        outcomes = RunLedger(run_dir).load()
        job = Job.from_config(config, 0)
        assert job.key in outcomes
        assert outcomes[job.key].digest == job.digest

    def test_handwritten_pre_pr8_ledger_still_resumes(self, tmp_path):
        """A ledger written before the elision entries were checked must keep
        matching: checking them pins digests, it does not change them."""
        config = ExperimentConfig.tiny(seed=5)
        legacy_digest = _legacy_digest(config)
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        record = {
            "schema": SCHEMA_VERSION,
            "key": "00000-clirs-s5",
            "digest": legacy_digest,
            "summary": {"mean": 1.0},
            "counters": {"rsnode_count": 0, "completed_requests": 10},
            "wall_time": 0.1,
            "attempts": 1,
        }
        (run_dir / "ledger.jsonl").write_text(
            json.dumps(record) + "\n", encoding="utf-8"
        )
        outcomes = RunLedger(run_dir).load()
        job = Job.from_config(config, 0)
        # Resume skips a job when key AND digest match a recorded outcome.
        assert job.key in outcomes
        assert outcomes[job.key].digest == job.digest


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

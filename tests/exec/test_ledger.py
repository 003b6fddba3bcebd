"""Tests for the JSONL run ledger."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.exec import LEDGER_NAME, ExecutionPolicy, JobOutcome, RunLedger, execute_jobs
from repro.exec.ledger import SCHEMA_VERSION
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import COUNTERS, run_experiment
from repro.experiments.sweep import run_sweep, sweep_jobs


def _outcome(key: str, digest: str = "d", mean: float = 1.0) -> JobOutcome:
    return JobOutcome(
        key=key,
        digest=digest,
        summary={"mean": mean},
        counters={"completed_requests": 100, "unavailability": 0.5},
    )


def _never_runs(job):
    raise AssertionError(f"{job.key} should have resumed from the ledger")


class TestRunLedger:
    def test_record_and_load_roundtrip(self, tmp_path):
        ledger = RunLedger(tmp_path / "run")
        first = _outcome("00000-clirs-s0")
        second = _outcome("00001-clirs-s1", mean=2.0)
        ledger.record(first)
        ledger.record(second)
        loaded = ledger.load()
        assert loaded == {first.key: first, second.key: second}
        assert len(ledger) == 2

    def test_empty_when_no_spool_exists(self, tmp_path):
        assert RunLedger(tmp_path / "nowhere").load() == {}

    def test_truncated_trailing_line_is_skipped(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.record(_outcome("00000-clirs-s0"))
        with (tmp_path / LEDGER_NAME).open("a") as spool:
            spool.write('{"schema": 2, "key": "00001-clirs-s1", "dig')
        loaded = ledger.load()
        assert set(loaded) == {"00000-clirs-s0"}

    def test_unknown_schema_is_skipped(self, tmp_path):
        ledger = RunLedger(tmp_path)
        record = {"schema": 999}
        record.update(_outcome("00000-clirs-s0").to_record())
        (tmp_path / LEDGER_NAME).write_text(json.dumps(record) + "\n")
        assert ledger.load() == {}

    def test_schema_1_record_is_skipped(self, tmp_path):
        """The first layout spelled counters as top-level fields; a resume
        runs such a job again rather than read it."""
        assert SCHEMA_VERSION == 2
        record = {
            "schema": 1,
            "key": "00000-clirs-s0",
            "digest": "d",
            "summary": {"mean": 1.0},
            "rsnode_count": 0,
            "completed_requests": 100,
            "timeouts": 0,
            "wall_time": 0.1,
            "attempts": 1,
        }
        (tmp_path / LEDGER_NAME).write_text(json.dumps(record) + "\n")
        assert RunLedger(tmp_path).load() == {}

    def test_later_duplicate_record_wins(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.record(_outcome("00000-clirs-s0", mean=1.0))
        ledger.record(_outcome("00000-clirs-s0", mean=9.0))
        assert ledger.load()["00000-clirs-s0"].summary["mean"] == 9.0

    def test_reset_drops_previous_spool(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.record(_outcome("00000-clirs-s0"))
        ledger.reset()
        assert ledger.load() == {}

    def test_run_dir_colliding_with_file_is_configuration_error(self, tmp_path):
        collision = tmp_path / "not-a-dir"
        collision.write_text("")
        with pytest.raises(ConfigurationError):
            RunLedger(collision).record(_outcome("00000-clirs-s0"))


class TestEveryCounterReachesTheLedger:
    def test_sweep_spools_and_resumes_every_counter(self, tmp_path):
        """A crash run through a sweep with a run directory, then resumed:
        each outcome read back carries every counter of the result, the fault
        counters included, and the sweep extras average all of them."""
        base = ExperimentConfig.tiny(scheme="clirs", seed=1).replace(
            fault_schedule="server-down@0.02:server#0;server-up@0.06:server#0",
            request_timeout=0.02,
            max_retries=3,
        )
        grid = dict(
            parameter="utilization",
            values=[base.utilization],
            schemes=["clirs"],
            repetitions=2,
        )
        swept = run_sweep(base, execution=ExecutionPolicy(run_dir=tmp_path), **grid)
        jobs, cells = sweep_jobs(base, **grid)
        resumed = execute_jobs(
            jobs,
            policy=ExecutionPolicy(run_dir=tmp_path, resume=True),
            runner=_never_runs,
        )
        for job in jobs:
            expected = run_experiment(job.config).counters()
            assert expected["faults_injected"] == 2
            assert resumed[job.key].counters == expected
        (cell,) = cells
        assert set(swept.extras[cell]) == set(COUNTERS)
        again = run_sweep(
            base, execution=ExecutionPolicy(run_dir=tmp_path, resume=True), **grid
        )
        assert again.extras == swept.extras

"""Engine tests: serial/parallel execution, retries, fallback, resume.

The fake runners below are module-level so the spawn-based pool can pickle
them by reference; they key side effects off environment variables, which
propagate to spawned workers.
"""

import functools
import json
import multiprocessing
import os
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, ExecutionError
from repro.exec import (
    ExecutionPolicy,
    Job,
    JobOutcome,
    ProgressReporter,
    RunLedger,
    default_run_dir,
    execute_jobs,
)
from repro.experiments.config import ExperimentConfig

#: Environment variable pointing fake runners at a scratch directory.
SCRATCH_ENV = "REPRO_TEST_EXEC_SCRATCH"


def _jobs(count: int):
    """Cheap distinct jobs (never actually simulated by fake runners)."""
    jobs = []
    for index in range(count):
        config = ExperimentConfig.tiny(seed=index)
        jobs.append(Job.from_config(config, index))
    return jobs


def echo_runner(job: Job) -> JobOutcome:
    """Deterministic outcome derived from the config, no simulation."""
    return JobOutcome(
        key=job.key,
        digest=job.digest,
        summary={"mean": float(job.config.seed)},
        counters={"completed_requests": job.config.total_requests, "micro_events": 0},
        wall_time=0.01,
    )


def touch_counting_runner(job: Job) -> JobOutcome:
    """Echo runner that appends one line per invocation to a scratch file."""
    marker = Path(os.environ[SCRATCH_ENV]) / f"{job.key}.runs"
    with marker.open("a") as handle:
        handle.write("run\n")
    return echo_runner(job)


def flaky_runner(job: Job) -> JobOutcome:
    """Fails on the first attempt per job, succeeds afterwards."""
    marker = Path(os.environ[SCRATCH_ENV]) / f"{job.key}.attempts"
    attempts = int(marker.read_text()) if marker.exists() else 0
    marker.write_text(str(attempts + 1))
    if attempts == 0:
        raise RuntimeError("injected first-attempt crash")
    return echo_runner(job)


def always_failing_runner(job: Job) -> JobOutcome:
    raise RuntimeError("injected permanent crash")


def worker_only_crash_runner(job: Job) -> JobOutcome:
    """Crashes in pool workers; succeeds in the parent process."""
    if multiprocessing.current_process().name != "MainProcess":
        raise RuntimeError("injected worker-only crash")
    return echo_runner(job)


@pytest.fixture
def scratch(tmp_path, monkeypatch):
    monkeypatch.setenv(SCRATCH_ENV, str(tmp_path))
    return tmp_path


class TestSerialExecution:
    def test_outcomes_ordered_by_job_key(self):
        jobs = _jobs(4)
        outcomes = execute_jobs(jobs, runner=echo_runner)
        assert list(outcomes) == [job.key for job in jobs]
        assert outcomes[jobs[2].key].summary == {"mean": 2.0}

    def test_duplicate_keys_rejected(self):
        job = _jobs(1)[0]
        with pytest.raises(ConfigurationError):
            execute_jobs([job, job], runner=echo_runner)

    def test_retry_recovers_from_one_crash(self, scratch):
        jobs = _jobs(2)
        outcomes = execute_jobs(
            jobs, policy=ExecutionPolicy(retries=1), runner=flaky_runner
        )
        assert all(outcome.attempts == 2 for outcome in outcomes.values())

    def test_exhausted_retries_raise_execution_error(self, scratch):
        with pytest.raises(ExecutionError):
            execute_jobs(
                _jobs(1),
                policy=ExecutionPolicy(retries=1),
                runner=always_failing_runner,
            )


class TestParallelExecution:
    def test_parallel_merge_matches_serial(self):
        jobs = _jobs(4)
        serial = execute_jobs(jobs, runner=echo_runner)
        parallel = execute_jobs(
            jobs, policy=ExecutionPolicy(workers=2), runner=echo_runner
        )
        # Identical keys, order and payloads (attempt counts included).
        assert parallel == serial

    def test_worker_crash_falls_back_in_process(self):
        jobs = _jobs(3)
        outcomes = execute_jobs(
            jobs,
            policy=ExecutionPolicy(workers=2, retries=1),
            runner=worker_only_crash_runner,
        )
        assert list(outcomes) == [job.key for job in jobs]

    def test_worker_retry_happens_inside_worker(self, scratch):
        jobs = _jobs(2)
        outcomes = execute_jobs(
            jobs,
            policy=ExecutionPolicy(workers=2, retries=1),
            runner=flaky_runner,
        )
        assert all(outcome.attempts == 2 for outcome in outcomes.values())
        for job in jobs:
            marker = scratch / f"{job.key}.attempts"
            assert marker.read_text() == "2"


class TestLedgerAndResume:
    def test_completed_jobs_spool_to_ledger(self, scratch, tmp_path):
        run_dir = tmp_path / "run"
        jobs = _jobs(3)
        execute_jobs(
            jobs,
            policy=ExecutionPolicy(run_dir=run_dir),
            runner=touch_counting_runner,
        )
        assert set(RunLedger(run_dir).load()) == {job.key for job in jobs}

    def test_resume_skips_completed_jobs(self, scratch, tmp_path):
        run_dir = tmp_path / "run"
        jobs = _jobs(4)
        # Simulate an interrupted sweep: only half the batch completed.
        execute_jobs(
            jobs[:2],
            policy=ExecutionPolicy(run_dir=run_dir),
            runner=touch_counting_runner,
        )
        outcomes = execute_jobs(
            jobs,
            policy=ExecutionPolicy(run_dir=run_dir, resume=True),
            runner=touch_counting_runner,
        )
        assert list(outcomes) == [job.key for job in jobs]
        for job in jobs:  # every job ran exactly once across both calls
            assert (scratch / f"{job.key}.runs").read_text() == "run\n"

    def test_resume_reruns_on_digest_mismatch(self, scratch, tmp_path):
        run_dir = tmp_path / "run"
        jobs = _jobs(2)
        execute_jobs(
            jobs,
            policy=ExecutionPolicy(run_dir=run_dir),
            runner=touch_counting_runner,
        )
        # Same key, different experiment: the cached outcome must not count.
        stale = Job.from_config(
            jobs[0].config.replace(utilization=0.123), 0
        )
        assert stale.key == jobs[0].key and stale.digest != jobs[0].digest
        execute_jobs(
            [stale, jobs[1]],
            policy=ExecutionPolicy(run_dir=run_dir, resume=True),
            runner=touch_counting_runner,
        )
        assert (scratch / f"{stale.key}.runs").read_text() == "run\nrun\n"
        assert (scratch / f"{jobs[1].key}.runs").read_text() == "run\n"

    def test_resume_reruns_a_schema_1_ledger(self, scratch, tmp_path):
        """Records of the first layout (a hand-picked subset of the counters
        as top-level fields) are skipped on load: their jobs run again, with
        the same results, and are spooled in today's layout."""
        run_dir = tmp_path / "run"
        run_dir.mkdir(parents=True)
        jobs = _jobs(2)
        lines = []
        for job in jobs:
            record = {"schema": 1, "key": job.key, "digest": job.digest}
            record.update(summary={"mean": float(job.config.seed)}, rsnode_count=0)
            lines.append(json.dumps(record))
        RunLedger(run_dir).path.write_text("\n".join(lines) + "\n")
        outcomes = execute_jobs(
            jobs,
            policy=ExecutionPolicy(run_dir=run_dir, resume=True),
            runner=touch_counting_runner,
        )
        assert outcomes == {job.key: echo_runner(job) for job in jobs}
        for job in jobs:  # re-run, once each
            assert (scratch / f"{job.key}.runs").read_text() == "run\n"
        assert RunLedger(run_dir).load() == outcomes

    def test_resume_crosses_engines(self, tmp_path, monkeypatch):
        """``fidelity`` is a run option: a sweep spooled on the packet engine
        resumes under ``fidelity="flow"`` without running a job, into the
        same cells, and both map to one derived run directory."""
        from repro.experiments import sweep as sweep_module

        grid = dict(
            parameter="utilization", values=[0.3, 0.9], schemes=["clirs", "netrs-tor"]
        )
        packet_base = ExperimentConfig.tiny(seed=3)
        flow_base = packet_base.replace(fidelity="flow")
        run_dir = tmp_path / "run"
        packet = sweep_module.run_sweep(
            packet_base, execution=ExecutionPolicy(run_dir=run_dir), **grid
        )
        monkeypatch.setattr(
            sweep_module,
            "execute_jobs",
            functools.partial(execute_jobs, runner=always_failing_runner),
        )
        flow = sweep_module.run_sweep(
            flow_base, execution=ExecutionPolicy(run_dir=run_dir, resume=True), **grid
        )
        assert flow.cells == packet.cells
        assert flow.raw == packet.raw
        packet_jobs, _ = sweep_module.sweep_jobs(packet_base, **grid)
        flow_jobs, _ = sweep_module.sweep_jobs(flow_base, **grid)
        assert default_run_dir(flow_jobs) == default_run_dir(packet_jobs)

    def test_fresh_run_resets_stale_ledger(self, scratch, tmp_path):
        run_dir = tmp_path / "run"
        jobs = _jobs(1)
        policy = ExecutionPolicy(run_dir=run_dir)
        execute_jobs(jobs, policy=policy, runner=touch_counting_runner)
        execute_jobs(jobs, policy=policy, runner=touch_counting_runner)
        # No resume: the second run re-executed and re-spooled everything.
        assert (scratch / f"{jobs[0].key}.runs").read_text() == "run\nrun\n"
        assert len(RunLedger(run_dir)) == 1

    def test_default_run_dir_stable_and_content_addressed(self):
        jobs = _jobs(2)
        assert default_run_dir(jobs) == default_run_dir(jobs)
        assert default_run_dir(jobs) != default_run_dir(jobs[:1])

    def test_policy_ledger_resolution(self, tmp_path):
        jobs = _jobs(1)
        assert ExecutionPolicy().make_ledger(jobs) is None
        explicit = ExecutionPolicy(run_dir=tmp_path).make_ledger(jobs)
        assert explicit is not None and explicit.run_dir == tmp_path
        derived = ExecutionPolicy(resume=True).make_ledger(jobs)
        assert derived is not None
        assert derived.run_dir == default_run_dir(jobs)


class TestProgressReporting:
    def test_reporter_lines(self):
        import io

        stream = io.StringIO()
        jobs = _jobs(2)
        reporter = ProgressReporter(workers=1, stream=stream)
        execute_jobs(
            jobs,
            policy=ExecutionPolicy(progress=reporter),
            runner=echo_runner,
        )
        text = stream.getvalue()
        assert "0/2 jobs" in text
        assert "2/2 jobs" in text
        assert "done: 2/2 jobs" in text

    def test_reporter_announces_resumed_jobs(self, tmp_path):
        import io

        jobs = _jobs(2)
        run_dir = tmp_path / "run"
        execute_jobs(
            jobs, policy=ExecutionPolicy(run_dir=run_dir), runner=echo_runner
        )
        stream = io.StringIO()
        execute_jobs(
            jobs,
            policy=ExecutionPolicy(
                run_dir=run_dir,
                resume=True,
                progress=ProgressReporter(stream=stream),
            ),
            runner=echo_runner,
        )
        assert "2/2 jobs already in ledger" in stream.getvalue()

"""ProgressReporter: done/total, ETA and utilization lines on a fake clock."""

import io
from types import SimpleNamespace

import pytest

from repro.exec import JobOutcome, ProgressReporter, progress
from repro.exec.progress import _format_eta


class TtyStream(io.StringIO):
    def isatty(self):
        return True


def _run(monkeypatch, reporter, total, skipped=0, jobs=(), finish_at=None):
    """Start ``reporter``, then finish one job per ``(clock, wall_time)``."""
    now = SimpleNamespace(value=0.0)
    monkeypatch.setattr(progress, "time", SimpleNamespace(monotonic=lambda: now.value))
    reporter.start(total, skipped=skipped)
    for at, wall_time in jobs:
        now.value = at
        reporter.job_done(JobOutcome(key="k", digest="d", wall_time=wall_time))
    if finish_at is not None:
        now.value = finish_at
        reporter.finish()
    return reporter.stream.getvalue()


@pytest.mark.parametrize(
    "seconds, text",
    [(0, "0s"), (59.9, "59s"), (60, "1m00s"), (61, "1m01s"), (3599, "59m59s"),
     (3600, "1h00m"), (5430, "1h30m"), (-5, "0s")],
)
def test_format_eta(seconds, text):
    assert _format_eta(seconds) == text


@pytest.mark.parametrize(
    "workers, total, skipped, jobs, line",
    [
        (1, 3, 0, [], "0/3 jobs  0%"),
        (1, 0, 0, [], "0/0 jobs"),
        (2, 3, 0, [(10.0, 10.0)], "1/3 jobs  33%  eta 20s  workers=2 util=50%"),
        (1, 4, 2, [(10.0, 10.0)], "3/4 jobs  75%  eta 10s  workers=1 util=100%"),
        (1, 2, 0, [(1.0, 5.0)], "1/2 jobs  50%  eta 1s  workers=1 util=100%"),
        (1, 1, 0, [(2.0, 1.0)], "1/1 jobs  100%  workers=1 util=50%"),
    ],
    ids=["empty bar", "no jobs", "eta", "resumed jobs set no rate",
         "utilization capped", "no eta when done"],
)
def test_progress_line(monkeypatch, workers, total, skipped, jobs, line):
    reporter = ProgressReporter(workers=workers, stream=io.StringIO())
    text = _run(monkeypatch, reporter, total, skipped, jobs)
    assert text.splitlines()[-1] == "[exec] " + line


def test_resumed_jobs_are_announced_first(monkeypatch):
    text = _run(monkeypatch, ProgressReporter(stream=io.StringIO()), 4, skipped=2)
    assert text.splitlines() == [
        "[exec] resume: 2/4 jobs already in ledger", "[exec] 2/4 jobs  50%"
    ]


def test_finish_summarises_the_run(monkeypatch):
    reporter = ProgressReporter(label="sweep", stream=io.StringIO())
    text = _run(monkeypatch, reporter, 3, 1, [(1.0, 1.0)] * 2, finish_at=12.0)
    assert text.splitlines()[-1] == "[sweep] done: 3/3 jobs in 12.0s (1 resumed)"


def test_a_tty_redraws_the_line_in_place(monkeypatch):
    reporter = ProgressReporter(stream=TtyStream())
    assert _run(monkeypatch, reporter, 2, 0, [(1.0, 1.0)], finish_at=1.0) == (
        "\r\x1b[2K[exec] 0/2 jobs  0%"
        "\r\x1b[2K[exec] 1/2 jobs  50%  eta 1s  workers=1 util=100%"
        "\n[exec] done: 1/2 jobs in 1.0s (0 resumed)\n"
    )


def test_workers_are_at_least_one():
    assert ProgressReporter(workers=0, stream=io.StringIO()).workers == 1

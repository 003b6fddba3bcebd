"""Run ledger: a JSONL spool of completed jobs under a run directory.

Each completed job appends exactly one line, flushed immediately, so an
interrupted sweep leaves a ledger that is valid up to (at worst) one
truncated trailing line.  ``--resume`` loads the ledger and skips every job
whose key *and* config digest match a recorded outcome; a changed config
re-runs even if the key collides.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

from repro.errors import ConfigurationError
from repro.exec.job import JobOutcome

#: File name of the spool inside a run directory.
LEDGER_NAME = "ledger.jsonl"

#: Bumped when the record layout changes incompatibly; :meth:`RunLedger.load`
#: skips records of any other version, so a resume re-runs their jobs.
#: Version 2 keeps a run's counters in one ``counters`` map
#: (:meth:`~repro.experiments.runner.ExperimentResult.counters`); version 1
#: spelled a hand-picked subset of them as top-level fields.
SCHEMA_VERSION = 2


class RunLedger:
    """Append-only JSONL spool of :class:`JobOutcome` records."""

    def __init__(self, run_dir: Union[str, Path]) -> None:
        self.run_dir = Path(run_dir)
        self.path = self.run_dir / LEDGER_NAME

    def _ensure_run_dir(self) -> None:
        try:
            self.run_dir.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise ConfigurationError(
                f"run directory {self.run_dir} exists and is not a directory"
            ) from exc

    def reset(self) -> None:
        """Start a fresh run: drop any spool left by a previous one."""
        self._ensure_run_dir()
        if self.path.exists():
            self.path.unlink()

    def record(self, outcome: JobOutcome) -> None:
        """Append one completed job, durable against interruption."""
        self._ensure_run_dir()
        record = {"schema": SCHEMA_VERSION}
        record.update(outcome.to_record())
        with self.path.open("a", encoding="utf-8") as spool:
            spool.write(json.dumps(record) + "\n")
            spool.flush()

    def load(self) -> Dict[str, JobOutcome]:
        """Completed outcomes by job key (later records win).

        Malformed lines -- e.g. a line truncated by the interrupt that the
        resume is recovering from -- are skipped, not fatal.
        """
        outcomes: Dict[str, JobOutcome] = {}
        if not self.path.exists():
            return outcomes
        with self.path.open("r", encoding="utf-8") as spool:
            for line in spool:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if record.get("schema") != SCHEMA_VERSION:
                    continue
                if "key" not in record or "digest" not in record:
                    continue
                outcomes[record["key"]] = JobOutcome.from_record(record)
        return outcomes

    def __len__(self) -> int:
        return len(self.load())

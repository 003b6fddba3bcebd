"""Job model: one deterministic experiment run with a stable identity.

A job is a fully resolved :class:`~repro.experiments.config.ExperimentConfig`
(scheme and seed already substituted) plus two identifiers:

* ``key`` -- orders jobs.  It embeds the zero-padded enumeration index, so
  sorting outcomes by key reproduces the exact submission order; parallel
  output merges byte-identical to a serial run.
* ``digest`` -- a content hash over the model: every config field but the
  run options.  The run ledger stores it with each outcome, so ``--resume``
  only reuses a cached result when the job it belongs to is genuinely the
  same experiment, whichever engine ran it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Sequence

if TYPE_CHECKING:  # imported lazily: experiments itself builds on repro.exec
    from repro.experiments.config import ExperimentConfig


def config_digest(config: "ExperimentConfig") -> str:
    """Stable content hash over the model fields of ``config``.

    The :data:`~repro.experiments.config.RUN_OPTIONS` are left out: they
    change how a run executes, never its result, so a job keeps its identity
    (and its ledger record) on every engine.
    """
    from repro.experiments.config import RUN_OPTIONS

    fields = dataclasses.asdict(config)
    for name in RUN_OPTIONS:
        del fields[name]
    payload = json.dumps(fields, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Job:
    """One deterministic ``(ExperimentConfig, scheme, seed)`` run."""

    key: str
    digest: str
    config: "ExperimentConfig"

    @classmethod
    def from_config(cls, config: "ExperimentConfig", index: int) -> "Job":
        """Build a job from a resolved config and its enumeration index."""
        config.validate()
        key = f"{index:05d}-{config.scheme}-s{config.seed}"
        return cls(key=key, digest=config_digest(config), config=config)


@dataclass
class JobOutcome:
    """The picklable measurement payload of one completed job.

    What sweeps and grids consume of an
    :class:`~repro.experiments.runner.ExperimentResult`, flattened so it
    crosses process boundaries and serialises to one JSONL ledger line: the
    latency summaries and every counter of the run
    (:meth:`~repro.experiments.runner.ExperimentResult.counters`).
    """

    key: str
    digest: str
    summary: Dict[str, float] = field(default_factory=dict)
    write_summary: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    wall_time: float = 0.0
    attempts: int = 1
    # Shard payload (fidelity="flow" with shards > 1; see repro.mesoscale.shard):
    # the recorded latency samples, so the key-ordered merge reproduces the
    # serial sample order exactly.  A float64 ``array("d")`` as a shard
    # hands it over, a list once read back from a ledger.  Empty for any
    # other job.
    samples: Sequence[float] = field(default_factory=list)

    def to_record(self) -> Dict[str, Any]:
        """One JSON-safe ledger record (the samples as a list of floats)."""
        record = dataclasses.asdict(self)
        record["samples"] = list(self.samples)
        return record

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "JobOutcome":
        """Inverse of :meth:`to_record`; ignores unknown fields."""
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in record.items() if k in known})


def outcome_from_result(job: Job, result) -> JobOutcome:
    """Flatten an :class:`ExperimentResult` into a :class:`JobOutcome`."""
    return JobOutcome(
        key=job.key,
        digest=job.digest,
        summary=result.summary(),
        write_summary=result.write_summary() or {},
        counters=result.counters(),
        wall_time=result.wall_time,
    )

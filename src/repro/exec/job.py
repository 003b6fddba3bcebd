"""Job model: one deterministic experiment run with a stable identity.

A job is a fully resolved :class:`~repro.experiments.config.ExperimentConfig`
(scheme and seed already substituted) plus two identifiers:

* ``key`` -- orders jobs.  It embeds the zero-padded enumeration index, so
  sorting outcomes by key reproduces the exact submission order; parallel
  output merges byte-identical to a serial run.
* ``digest`` -- a content hash over every config field.  The run ledger
  stores it with each outcome, so ``--resume`` only reuses a cached result
  when the job it belongs to is genuinely the same experiment.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Sequence

if TYPE_CHECKING:  # imported lazily: experiments itself builds on repro.exec
    from repro.experiments.config import ExperimentConfig


#: Fields elided from the digest payload while they hold their default.
#: Adding a config field changes every digest and silently invalidates all
#: existing ledgers; eliding the default keeps pre-existing job identities
#: stable (a job that never named the field *is* the same experiment).
#: ``tests/exec/test_job.py`` holds each entry to its field's default and a
#: ``netrs run`` option, and its pinned digest literals fail on a new field
#: that is missing here.
_DIGEST_DEFAULTS: Dict[str, Any] = {
    "fidelity": "packet",
    "vector_batch": 0,
    "shards": 1,
    "read_quorum": None,
    "churn_schedule": None,
}


def config_digest(config: "ExperimentConfig") -> str:
    """Stable content hash over every field of ``config``.

    Fields listed in :data:`_DIGEST_DEFAULTS` are dropped from the payload
    when they equal their default, so ledgers written before those fields
    existed keep matching resumed jobs (forward compatibility).
    """
    fields = dataclasses.asdict(config)
    # Retired field, hashed unconditionally while it existed: keep its only
    # surviving value in the payload so ledgers written before its removal
    # still resume.
    fields["engine_backend"] = "auto"
    for name, default in _DIGEST_DEFAULTS.items():
        if fields.get(name) == default:
            fields.pop(name, None)
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

    This is the subset of :class:`~repro.experiments.runner.ExperimentResult`
    that sweeps and grids consume, flattened so it crosses process
    boundaries and serialises to one JSONL ledger line.
    """

    key: str
    digest: str
    summary: Dict[str, float] = field(default_factory=dict)
    rsnode_count: int = 0
    drs_group_count: int = 0
    redundant_requests: int = 0
    completed_requests: int = 0
    sim_duration: float = 0.0
    wall_time: float = 0.0
    events_executed: int = 0
    micro_events: int = 0  # flow-engine internal events (0 if none ran)
    attempts: int = 1
    # Failure-aware counters (zero on fault-free runs; see docs/FAULTS.md).
    # ``from_record`` ignores unknown fields, so ledgers written before
    # these existed still resume cleanly.
    timeouts: int = 0
    retries: int = 0
    requests_lost: int = 0
    packets_dropped: int = 0
    unavailability: float = 0.0
    # Consistency counters (zero on read-only static-membership runs; see
    # docs/CONSISTENCY.md).  Same forward-compat story as the fault counters.
    writes_completed: int = 0
    write_failures: int = 0
    stale_reads: int = 0
    read_repairs: int = 0
    migrated_keys: int = 0
    migration_bytes: int = 0
    churn_events: int = 0
    write_summary: Dict[str, float] = field(default_factory=dict)
    # Shard payload (fidelity="flow" with shards > 1; see repro.mesoscale.shard).
    # Recorded latency samples travel with the outcome so the key-ordered merge
    # reproduces the serial sample order exactly; ``counters`` carries the
    # flow-tier traffic/fault counters the merged result sums.  Both default
    # empty, so pre-existing ledgers (which never wrote them) still resume.
    samples: Sequence[float] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)

    def to_record(self) -> Dict[str, Any]:
        """One JSON-safe ledger record."""
        return dataclasses.asdict(self)

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
        rsnode_count=result.rsnode_count,
        drs_group_count=result.drs_group_count,
        redundant_requests=result.redundant_requests,
        completed_requests=result.completed_requests,
        sim_duration=result.sim_duration,
        wall_time=result.wall_time,
        events_executed=result.events_executed,
        micro_events=result.micro_events,
        timeouts=result.timeouts,
        retries=result.retries,
        requests_lost=result.requests_lost,
        packets_dropped=result.packets_dropped,
        unavailability=result.unavailability,
        writes_completed=result.writes_completed,
        write_failures=result.write_failures,
        stale_reads=result.stale_reads,
        read_repairs=result.read_repairs,
        migrated_keys=result.migrated_keys,
        migration_bytes=result.migration_bytes,
        churn_events=result.churn_events,
        write_summary=result.write_summary() or {},
    )

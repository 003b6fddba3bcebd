"""Sharded flow-tier execution: fan one run out as independent exec jobs.

``ExperimentConfig.shards = N`` models the full system as ``N`` independent
sub-systems: shard ``s`` owns the contiguous block of clients and servers
``[s * size, (s + 1) * size)``, receives ``1/N`` of the requests (remainder
to the lowest shards) and runs as a self-contained flow experiment with its
own derived seed.  Because :meth:`ExperimentConfig.arrival_rate` scales with
``n_servers``, each shard automatically carries ``1/N`` of the aggregate
load, so per-server utilization -- the quantity the paper's latency curves
are driven by -- is unchanged.

Shards execute through :func:`repro.exec.execute_jobs`: serially by
default, or on a spawn-safe worker pool when ``workers > 1``.  Outcomes are
merged in job-key order -- which embeds the shard index -- so the merged
result is a pure function of the config: byte-identical for any worker
count, and (because each shard is an ordinary flow run) identical whether
shards run the scalar or the vectorized engine.

Fault schedules shard too: a sharded config is one the flow engine models,
so its faults are server crashes, and their logical targets (``server#i``)
are remapped onto the owning shard's local index space.  Raw host names
cannot be mapped and are rejected at config time.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.exec import ExecutionPolicy, Job, JobOutcome, execute_jobs, outcome_from_result
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.faults.events import ServerDown, ServerUp
from repro.faults.schedule import FaultSchedule, parse_fault_schedule
from repro.sim.guard import host_clock
from repro.sim.probes import LatencyRecorder

#: Per-shard seeds are spread with a large prime stride so neighbouring
#: shard indices never produce overlapping SeedSequence entropy pools.
_SEED_STRIDE = 100003

#: Counters the merge takes the max of; every other one sums (the shards are
#: disjoint sub-systems, and each fault event is owned by exactly one shard).
_MERGE_MAX = ("sim_duration", "accelerator_max_utilization")


# ----------------------------------------------------------------------
# Fault-target remapping
# ----------------------------------------------------------------------
def _remap(ref: str, config: "ExperimentConfig") -> Tuple[int, str]:
    """The owning shard of a logical server reference, and the reference in
    that shard's own index space."""
    inner = ref.strip()
    if not inner.startswith("server#"):
        raise ConfigurationError(
            f"sharded runs cannot map fault target {ref!r}: use logical "
            "'server#i' references (raw host names bind to the unsharded "
            "topology)"
        )
    try:
        index = int(inner[len("server#"):])
    except ValueError:
        raise ConfigurationError(f"bad logical fault target {ref!r}") from None
    if not 0 <= index < config.n_servers:
        raise ConfigurationError(
            f"fault target {ref!r} out of range (0..{config.n_servers - 1})"
        )
    size = config.n_servers // config.shards
    return index // size, f"server#{index % size}"


def split_fault_schedule(
    config: "ExperimentConfig",
) -> List[Optional[str]]:
    """Per-shard fault specs for ``config`` (None where a shard has none).

    Only server faults reach here (a sharded config is one the flow engine
    models).  Raises :class:`~repro.errors.ConfigurationError` for targets
    that do not shard: raw host names.
    """
    shards = config.shards
    if not config.fault_schedule:
        return [None] * shards
    per_shard: List[FaultSchedule] = [FaultSchedule() for _ in range(shards)]
    for event in parse_fault_schedule(config.fault_schedule).events:
        assert isinstance(event, (ServerDown, ServerUp))
        owner, local = _remap(event.server, config)
        per_shard[owner].add(type(event)(event.at, local))
    return [
        schedule.describe() if len(schedule) else None
        for schedule in per_shard
    ]


# ----------------------------------------------------------------------
# Shard enumeration
# ----------------------------------------------------------------------
def shard_configs(config: "ExperimentConfig") -> List["ExperimentConfig"]:
    """The ``config.shards`` independent sub-configs of a sharded run.

    Each sub-config has ``shards=1`` (it is an ordinary flow run), a
    deterministic derived seed, its share of the request budget, and the
    fault events owned by its node block.
    """
    shards = config.shards
    if shards <= 1:
        return [config]
    schedules = split_fault_schedule(config)
    base, remainder = divmod(config.total_requests, shards)
    subs: List["ExperimentConfig"] = []
    for index in range(shards):
        subs.append(
            config.replace(
                shards=1,
                n_servers=config.n_servers // shards,
                n_clients=config.n_clients // shards,
                total_requests=base + (1 if index < remainder else 0),
                seed=config.seed * _SEED_STRIDE + index,
                fault_schedule=schedules[index],
            )
        )
    return subs


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _run_shard_job(job: Job) -> JobOutcome:
    """Exec runner for one shard (module-level: spawn workers pickle it).

    The merge needs the raw samples (key-ordered concat reproduces the serial
    sample order); they travel on the outcome beside its counters, so they
    cross process boundaries and spool to the ledger.  They travel as a
    read-only view of the recorder's own float64 buffer
    (:attr:`~repro.sim.probes.LatencyRecorder.values`), unboxed; the shard's
    result is dropped here, so nothing else holds it.
    """
    result = run_experiment(job.config)
    outcome = outcome_from_result(job, result)
    outcome.samples = result.latency.values
    return outcome


def merge_outcomes(
    config: "ExperimentConfig",
    outcomes: Sequence[JobOutcome],
    *,
    wall_time: float = 0.0,
) -> "ExperimentResult":
    """Fold shard outcomes (in shard order) into one standard result.

    Latency samples concatenate in shard order; every counter sums but those
    of :data:`_MERGE_MAX`, which take the max.  A shard's samples are a
    float64 array when it ran in this process or a worker, a list when its
    outcome was read back from a ledger; either folds in as float64.
    """
    recorder = LatencyRecorder()
    for outcome in outcomes:
        recorder.extend_array(np.asarray(outcome.samples, dtype=np.float64))
    counters = {
        name: (max if name in _MERGE_MAX else sum)(o.counters[name] for o in outcomes)
        for name in outcomes[0].counters
    }
    result = ExperimentResult(
        config=config, latency=recorder, wall_time=wall_time, **counters
    )
    if result.rsnode_count:
        result.plan_description = (
            f"FLOW-SHARDED[shards={config.shards} "
            f"rsnodes={result.rsnode_count} granularity=rack]"
        )
    return result


def run_sharded_flow_experiment(
    config: "ExperimentConfig",
    *,
    workers: int = 1,
    run_dir: Optional[Union[str, os.PathLike]] = None,
    resume: bool = False,
) -> "ExperimentResult":
    """Run a ``shards > 1`` flow config and merge the shard outcomes.

    ``workers`` processes run the shards (default 1 = serial, in this one).
    The merged result is identical for every worker count: each shard is a
    fully seeded experiment and the merge consumes outcomes in shard order,
    never completion order.
    """
    config.validate()
    subs = shard_configs(config)
    jobs = [Job.from_config(sub, index) for index, sub in enumerate(subs)]
    policy = ExecutionPolicy(
        workers=max(1, workers), run_dir=run_dir, resume=resume
    )
    started = host_clock()
    outcomes = execute_jobs(jobs, policy=policy, runner=_run_shard_job)
    wall_time = host_clock() - started
    ordered = [outcomes[job.key] for job in jobs]
    return merge_outcomes(config, ordered, wall_time=wall_time)

"""Drive a :class:`FlowEngine` run and collect an :class:`ExperimentResult`.

This is the flow-tier twin of :func:`repro.experiments.runner.run_experiment`:
same safety horizon, same stall/NaN guards, same result schema -- so sweeps,
ledgers and figures consume flow results with zero changes.  The engine's
heap is the run's only clock, so ``events_executed`` (the packet tier's
clock) is 0 and what the engine ran is ``micro_events``.
"""

from __future__ import annotations

import gc
import math
import time

from repro.errors import ConfigurationError, ReproError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentResult
from repro.mesoscale.flow import FlowEngine
from repro.mesoscale.support import vector_eligible


def run_flow_experiment(
    config: ExperimentConfig,
    *,
    keep_engine: bool = False,
) -> ExperimentResult:
    """Run ``config`` on a flow engine; returns the standard result schema.

    ``config`` must be one the flow engine models
    (:func:`~repro.mesoscale.support.flow_models`; else the engine raises
    :class:`ConfigurationError`): ``run_experiment`` runs any other on the
    packet engine.

    Dispatch: ``config.shards > 1`` fans the run out as independent
    ``repro.exec`` jobs and merges them (repro.mesoscale.shard);
    ``config.vector_batch > 0`` selects the struct-of-arrays engine
    (repro.mesoscale.vector), bit-identical to the scalar one, for the
    configs it covers (:func:`~repro.mesoscale.support.vector_eligible`).

    Memory: a flow run owns what it allocates and nothing waits for the
    cyclic collector.  The collector is parked from engine construction to
    teardown (the drain loops allocate only acyclic event tuples and floats,
    so its passes find nothing: docs/MESOSCALE.md, "Memory lifetime") and
    the caller's collector state is restored on every exit.  The engine is
    torn down (:meth:`FlowEngine.teardown`) once the result is built, so it
    is freed by reference count and ``result.latency`` is all that survives;
    with ``keep_engine`` the live engine is attached as ``result.engine``
    instead, for inspection (one unsharded run only).
    """
    if config.shards > 1:
        if keep_engine:
            raise ConfigurationError(
                "a sharded run has one engine per shard, possibly in another "
                "process; keep engines per `shard_configs(config)` entry"
            )
        # Imported lazily: shard fan-out builds on this function.
        from repro.mesoscale.shard import run_sharded_flow_experiment

        return run_sharded_flow_experiment(config)
    collector_was_enabled = gc.isenabled()
    gc.disable()
    engine = None
    try:
        engine = _build_engine(config)
        result = _run_engine(engine, config)
        if keep_engine:
            result.engine = engine  # type: ignore[attr-defined]
            engine = None
        return result
    finally:
        if engine is not None:
            engine.teardown()
        if collector_was_enabled:
            gc.enable()


def _build_engine(config: ExperimentConfig) -> FlowEngine:
    """The scalar engine, or the SoA one where ``vector_batch`` applies."""
    if config.vector_batch > 0 and vector_eligible(config):
        # Imported lazily so scalar runs never pay the numpy-kernels import.
        from repro.mesoscale.vector import VectorFlowEngine

        return VectorFlowEngine(config)
    return FlowEngine(config)


def _run_engine(engine: FlowEngine, config: ExperimentConfig) -> ExperimentResult:
    """Drive ``engine`` to completion and read the result off it."""
    expected_duration = config.total_requests / config.arrival_rate()
    safety_horizon = engine.now + expected_duration * 5 + 10.0

    started_wall = time.perf_counter()  # repro: noqa(DET002) - real wall time, reported only
    engine.run(until=safety_horizon)
    wall_time = time.perf_counter() - started_wall  # repro: noqa(DET002) - reported only

    tracker = engine.tracker
    if tracker.completed < tracker.expected:
        raise ReproError(
            f"flow run stalled: {tracker.completed}/{tracker.expected} "
            f"requests completed within the safety horizon "
            f"({safety_horizon:.1f}s sim)"
        )
    if len(engine.recorder) == 0:
        raise ReproError("no latency samples were recorded")
    if math.isnan(engine.recorder.mean()):
        raise ReproError("latency statistics are NaN")

    result = ExperimentResult(
        config=config,
        latency=engine.recorder,
        sim_duration=engine.now,
        wall_time=wall_time,
        completed_requests=tracker.completed,
        transmissions=engine.transmissions,
        bytes_transferred=engine.bytes_transferred,
        netrs_overhead_bytes=engine.netrs_overhead_bytes,
        micro_events=engine.micro_events,
        redundant_requests=sum(c.redundant_sent for c in engine.clients),
        timeouts=sum(c.timeouts for c in engine.clients),
        retries=sum(c.retries for c in engine.clients),
        requests_lost=sum(c.requests_lost for c in engine.clients),
        duplicates_suppressed=sum(
            c.duplicates_suppressed for c in engine.clients
        ),
        server_dropped_requests=sum(
            s.dropped_requests for s in engine.servers.values()
        ),
    )
    if engine.faults is not None:
        result.faults_injected = engine.faults.faults_injected
        result.unavailability = engine.faults.unavailability()
    if engine.operators:
        result.rsnode_count = len(engine.operators)
        result.plan_description = (
            f"FLOW[rsnodes={len(engine.operators)} granularity=rack]"
        )
        result.accelerator_max_utilization = engine.accelerator_max_utilization()
        result.selector_requests_handled = engine.selector_requests_handled()
    return result

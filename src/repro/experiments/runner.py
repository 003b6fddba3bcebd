"""Run experiments and collect results.

``run_experiment`` builds a scenario, drives the workload to completion,
and extracts the paper's latency metrics plus system-level accounting
(RSNode counts, accelerator utilization, redundancy volume, fabric traffic).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ConfigurationError, ReproError
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenarios import Scenario, build_scenario
from repro.sim.core import collector_parked
from repro.sim.guard import deterministic_guard, host_clock
from repro.sim.probes import LatencyRecorder


@dataclass
class ExperimentResult:
    """Everything measured in one experiment run."""

    config: ExperimentConfig
    latency: LatencyRecorder
    sim_duration: float
    wall_time: float
    completed_requests: int
    # Scheme-level accounting
    rsnode_count: int = 0
    drs_group_count: int = 0
    plan_description: str = ""
    redundant_requests: int = 0
    accelerator_max_utilization: float = 0.0
    selector_requests_handled: int = 0
    # Fabric accounting
    transmissions: int = 0
    bytes_transferred: int = 0
    netrs_overhead_bytes: int = 0
    events_executed: int = 0
    # Entries the flow engine's heap ran (0 unless a flow engine ran; no
    # Environment runs there, so events_executed is 0 -- docs/MESOSCALE.md)
    micro_events: int = 0
    # Failure-aware accounting (all zero on fault-free runs; docs/FAULTS.md)
    timeouts: int = 0
    retries: int = 0
    requests_lost: int = 0
    duplicates_suppressed: int = 0
    packets_dropped: int = 0
    server_dropped_requests: int = 0
    faults_injected: int = 0
    unavailability: float = 0.0
    # Consistency accounting (all zero on read-only static-membership runs;
    # docs/CONSISTENCY.md)
    writes_completed: int = 0
    write_failures: int = 0
    stale_reads: int = 0
    read_repairs: int = 0
    repair_writes_sent: int = 0
    quorum_degraded_reads: int = 0
    digest_probes_sent: int = 0
    migrated_keys: int = 0
    migration_bytes: int = 0
    churn_events: int = 0

    write_latency: Optional[LatencyRecorder] = None

    def counters(self) -> Dict[str, float]:
        """Every counter of the run, by name, in field order (:data:`COUNTERS`)."""
        return {name: getattr(self, name) for name in COUNTERS}

    def write_summary(self) -> Optional[Dict[str, float]]:
        """Write-latency metrics in ms (None for read-only workloads)."""
        if self.write_latency is None or len(self.write_latency) == 0:
            return None
        return {
            metric: value * 1e3
            for metric, value in self.write_latency.summary().items()
        }

    def protocol_overhead_fraction(self) -> float:
        """Share of all transferred bytes spent on NetRS headers."""
        if self.bytes_transferred == 0:
            return 0.0
        return self.netrs_overhead_bytes / self.bytes_transferred

    def summary(self) -> Dict[str, float]:
        """The paper's four latency metrics, in **milliseconds**."""
        raw = self.latency.summary()
        return {metric: value * 1e3 for metric, value in raw.items()}

    def describe(self) -> str:
        """Multi-line human-readable report."""
        s = self.summary()
        lines = [
            f"scheme={self.config.scheme} seed={self.config.seed} "
            f"requests={self.completed_requests}",
            f"latency ms: mean={s['mean']:.3f} p95={s['p95']:.3f} "
            f"p99={s['p99']:.3f} p999={s['p999']:.3f}",
            f"sim={self.sim_duration:.2f}s wall={self.wall_time:.2f}s "
            f"events={self.events_executed}",
        ]
        if self.micro_events:  # a flow engine ran
            per_request = self.micro_events / max(1, self.completed_requests)
            lines.append(
                f"fidelity=flow micro_events={self.micro_events} "
                f"({per_request:.1f}/request)"
            )
        if self.config.netrs:
            lines.append(
                f"rsnodes={self.rsnode_count} drs_groups={self.drs_group_count} "
                f"acc_util_max={self.accelerator_max_utilization:.3f}"
            )
        if self.config.redundancy_enabled:
            lines.append(f"redundant_requests={self.redundant_requests}")
        if self.config.fault_schedule or self.timeouts or self.requests_lost:
            lines.append(
                f"faults: injected={self.faults_injected} "
                f"timeouts={self.timeouts} retries={self.retries} "
                f"lost={self.requests_lost} "
                f"packets_dropped={self.packets_dropped} "
                f"unavailability={self.unavailability * 1e3:.1f}ms"
            )
        ws = self.write_summary()
        if ws is not None:
            lines.append(
                f"writes ms: mean={ws['mean']:.3f} p95={ws['p95']:.3f} "
                f"p99={ws['p99']:.3f} p999={ws['p999']:.3f} "
                f"(completed={self.writes_completed} "
                f"failed={self.write_failures})"
            )
        if self.config.write_fraction or self.config.read_quorum is not None:
            reads = max(1, self.completed_requests)
            lines.append(
                "consistency: "
                f"stale_reads={self.stale_reads} "
                f"({self.stale_reads / reads:.4%}) "
                f"read_repairs={self.read_repairs} "
                f"repair_writes={self.repair_writes_sent} "
                f"degraded_quorums={self.quorum_degraded_reads} "
                f"digest_probes={self.digest_probes_sent}"
            )
        if self.config.churn_schedule:
            lines.append(
                f"churn: events={self.churn_events} "
                f"migrated_keys={self.migrated_keys} "
                f"migration_bytes={self.migration_bytes}"
            )
        for note in self.config.consistency_notes():
            lines.append(f"note: {note}")
        return "\n".join(lines)


#: The run's counters: every numeric field of :class:`ExperimentResult` but
#: ``wall_time`` (the host's time, not the run's), in field order.  The ledger,
#: the sweep extras, the shard merge and the fidelity gate all read this list,
#: so a counter added to the result reaches each of them with no other edit.
COUNTERS = tuple(
    f.name
    for f in dataclasses.fields(ExperimentResult)
    if f.type in ("int", "float") and f.name != "wall_time"
)


def run_experiment(
    config: ExperimentConfig,
    *,
    scenario: Optional[Scenario] = None,
    keep_scenario: bool = False,
) -> ExperimentResult:
    """Build (or reuse) a scenario, run it to completion, collect metrics.

    Raises :class:`ReproError` if the run does not complete within a generous
    simulated-time safety horizon (which would indicate a deadlock bug, not a
    slow system).

    With ``config.fidelity == "flow"`` the run goes to the fastest engine that
    gives the packet engine's result: a flow engine of :mod:`repro.mesoscale`
    where :func:`~repro.mesoscale.support.flow_models` holds (the SoA one
    where :func:`~repro.mesoscale.support.vector_eligible` does too), the
    packet engine otherwise.  The result schema is identical.

    With ``keep_scenario`` what ran is attached as ``result.scenario`` for
    inspection: the :class:`Scenario`, or the live flow engine.

    Build, drive and collect run under
    :func:`~repro.sim.guard.deterministic_guard`: a global-RNG call or a
    host-clock read anywhere in them raises
    :class:`~repro.sim.guard.NondeterminismError`.
    """
    with deterministic_guard():
        if config.fidelity == "flow":
            # Imported here: repro.mesoscale builds on this module.
            from repro.mesoscale.support import flow_models

            if flow_models(config):
                if scenario is not None:
                    raise ConfigurationError(
                        "scenario reuse is packet-tier only; a flow engine runs "
                        "this fidelity='flow' config and builds itself"
                    )
                return _run_flow(config, keep_scenario)
        return _run_packet(config, scenario, keep_scenario)


def _run_packet(
    config: ExperimentConfig, scenario: Optional[Scenario], keep_scenario: bool
) -> ExperimentResult:
    """Build ``config``'s scenario unless given one, run and collect it."""
    if scenario is None:
        scenario = build_scenario(config)
    env = scenario.env
    network = scenario.network
    scenario.tracker.when_done(env.stop)

    def run(until: float) -> None:
        scenario.workload.start()
        env.run(until=until)
        # Unwind eager trunk accounting for packets still in flight at the
        # stop so fabric counters match what hop-by-hop forwarding would
        # have counted.
        network.settle_trunks(env.now)

    wall_time = _drive(config, scenario, env, run)
    result = _collect(config, scenario, env, network, wall_time)
    result.events_executed = env.events_executed
    result.write_latency = scenario.write_recorder
    result.packets_dropped = network.packets_dropped
    clients = scenario.clients
    result.writes_completed = sum(c.writes_completed for c in clients)
    result.write_failures = sum(c.write_failures for c in clients)
    result.stale_reads = sum(c.stale_reads for c in clients)
    result.read_repairs = sum(c.read_repairs for c in clients)
    result.repair_writes_sent = sum(c.repair_writes_sent for c in clients)
    result.quorum_degraded_reads = sum(c.quorum_degraded_reads for c in clients)
    result.digest_probes_sent = sum(c.digest_probes_sent for c in clients)
    if scenario.churn is not None:
        result.churn_events = scenario.churn.churn_applied
        result.migrated_keys = scenario.churn.migrated_keys
        result.migration_bytes = scenario.churn.migration_bytes
    if scenario.plan is not None:
        result.rsnode_count = scenario.plan.rsnode_count
        result.drs_group_count = len(scenario.plan.drs_groups)
        result.plan_description = scenario.plan.describe()
    accelerators = scenario.accelerators()
    if accelerators:
        result.accelerator_max_utilization = max(
            acc.utilization() for acc in accelerators
        )
    if scenario.controller is not None:
        result.selector_requests_handled = sum(
            op.selector.requests_handled
            for op in scenario.controller.operators.values()
            if op.selector is not None
        )
    if keep_scenario:
        result.scenario = scenario  # type: ignore[attr-defined]
    return result


def _run_flow(config: ExperimentConfig, keep_scenario: bool) -> ExperimentResult:
    """Run ``config`` on a flow engine (``config.shards`` of them if > 1).

    Memory: a flow run owns what it allocates and nothing waits for the
    cyclic collector.  The collector is parked (:func:`collector_parked`)
    from engine construction to teardown (the drain loops allocate only
    acyclic event tuples and floats, so its passes find nothing:
    docs/MESOSCALE.md, "Memory lifetime") and the caller's collector state is
    restored on every exit.  The engine is
    torn down (``FlowEngine.teardown``) once the result is built, so it is
    freed by reference count and ``result.latency`` is all that survives,
    unless ``keep_scenario`` keeps it.
    """
    from repro.mesoscale.flow import FlowEngine
    from repro.mesoscale.support import vector_eligible

    if config.shards > 1:
        if keep_scenario:
            raise ConfigurationError(
                "a sharded run has one engine per shard, possibly in another "
                "process; keep engines per `shard_configs(config)` entry"
            )
        from repro.mesoscale.shard import run_sharded_flow_experiment

        return run_sharded_flow_experiment(config)
    engine = None
    with collector_parked():
        try:
            if config.vector_batch > 0 and vector_eligible(config):
                # Imported lazily so scalar runs never pay the numpy-kernels import.
                from repro.mesoscale.vector import VectorFlowEngine

                engine = VectorFlowEngine(config)
            else:
                engine = FlowEngine(config)
            wall_time = _drive(config, engine, engine, engine.run)
            result = _collect(config, engine, engine, engine, wall_time)
            result.micro_events = engine.micro_events
            operators = engine.operators.values()
            if operators:
                result.rsnode_count = len(operators)
                result.plan_description = (
                    f"FLOW[rsnodes={len(operators)} granularity=rack]"
                )
                result.accelerator_max_utilization = max(
                    op.accelerator.utilization() for op in operators
                )
                result.selector_requests_handled = sum(
                    op.selector.requests_handled for op in operators
                )
            if keep_scenario:
                result.scenario = engine  # type: ignore[attr-defined]
                engine = None
            return result
        finally:
            if engine is not None:
                engine.teardown()


def _drive(config: ExperimentConfig, built, clock, run) -> float:
    """``run(until)`` up to the safety horizon, check it finished; wall time.

    ``built`` is what the engine was built into (a :class:`Scenario` or a
    flow engine: its ``tracker`` and ``recorder``), ``clock`` what keeps its
    time.
    """
    expected_duration = config.total_requests / config.arrival_rate()
    safety_horizon = clock.now + expected_duration * 5 + 10.0

    started_wall = host_clock()
    run(safety_horizon)
    wall_time = host_clock() - started_wall

    tracker = built.tracker
    if tracker.completed < tracker.expected:
        raise ReproError(
            f"run stalled: {tracker.completed}/{tracker.expected} requests "
            f"completed within the safety horizon ({safety_horizon:.1f}s sim)"
        )
    if len(built.recorder) == 0:
        raise ReproError("no latency samples were recorded")
    if math.isnan(built.recorder.mean()):
        raise ReproError("latency statistics are NaN")
    return wall_time


def _collect(
    config: ExperimentConfig, built, clock, wire, wall_time: float
) -> ExperimentResult:
    """The result fields every engine keeps the same way.

    Its clients, servers and fault injector (on ``built``), its clock and
    the wire counters (``wire``: the packet tier's network, or the flow
    engine itself).
    """
    clients = built.clients
    result = ExperimentResult(
        config=config,
        latency=built.recorder,
        sim_duration=clock.now,
        wall_time=wall_time,
        completed_requests=built.tracker.completed,
        transmissions=wire.transmissions,
        bytes_transferred=wire.bytes_transferred,
        netrs_overhead_bytes=wire.netrs_overhead_bytes,
        redundant_requests=sum(c.redundant_sent for c in clients),
        timeouts=sum(c.timeouts for c in clients),
        retries=sum(c.retries for c in clients),
        requests_lost=sum(c.requests_lost for c in clients),
        duplicates_suppressed=sum(c.duplicates_suppressed for c in clients),
        server_dropped_requests=sum(
            s.dropped_requests for s in built.servers.values()
        ),
    )
    if built.faults is not None:
        result.faults_injected = built.faults.faults_injected
        result.unavailability = built.faults.unavailability()
    return result

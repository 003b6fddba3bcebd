"""Feature gating for the mesoscale (flow-level) fidelity tier.

The flow tier reproduces the packet engine's behaviour for the paper's core
read path; everything it cannot faithfully model is rejected *up front* with
a :class:`~repro.errors.ConfigurationError` naming the packet tier as the
fallback.  ``ExperimentConfig.validate`` calls :func:`ensure_flow_supported`
lazily whenever ``fidelity="flow"``, so unsupported combinations fail at
config time (CLI, sweeps, job creation) rather than mid-run.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

#: Schemes the flow tier models (see docs/MESOSCALE.md for the mapping).
FLOW_SCHEMES = ("clirs", "clirs-r95", "netrs-tor")

_LINK_EVENTS = ("LinkDown", "LinkUp", "LinkDegrade")


def _reject(reason: str) -> None:
    raise ConfigurationError(
        f"fidelity='flow' does not support {reason}; "
        "use fidelity='packet' for this configuration (docs/MESOSCALE.md)"
    )


def ensure_flow_supported(config) -> None:
    """Raise :class:`ConfigurationError` if ``config`` needs the packet tier."""
    if config.shards > 1:
        _ensure_shardable(config)
    if config.scheme not in FLOW_SCHEMES:
        _reject(
            f"scheme {config.scheme!r} (supported: {', '.join(FLOW_SCHEMES)}; "
            "multi-tier RSNode placement is packet-tier only)"
        )
    if config.workload_mode != "open":
        _reject("closed-loop workloads")
    if config.write_fraction:
        _reject(
            "mixed read/write workloads (quorum writes are not mirrored "
            "into the flow tier yet; set write_fraction=0)"
        )
    if config.read_quorum is not None and config.read_quorum > 1:
        _reject(
            "quorum reads (the digest-probe path is not mirrored into the "
            "flow tier yet; leave read_quorum unset)"
        )
    if config.churn_schedule:
        _reject(
            "membership churn (ring migration traffic is not mirrored into "
            "the flow tier yet; leave churn_schedule unset)"
        )
    if config.background_traffic_rate > 0:
        _reject("background traffic")
    if config.link_bandwidth is not None:
        _reject(
            "link_bandwidth (its links are pure delays; the packet tier "
            "models serialization and queueing exactly, with real queues)"
        )
    if config.track_link_stats:
        _reject("per-link byte accounting (there are no per-link queues)")
    if config.replan_period is not None:
        _reject("periodic replanning (the flow tier deploys one static plan)")
    if config.scheme == "netrs-tor":
        if config.group_granularity != "rack":
            _reject("non-rack traffic-group granularity with netrs-tor")
        # The packet tier degrades over-capacity groups to DRS; the flow
        # tier has no DRS path, so reject configs whose per-ToR demand
        # (uniform estimate) would exceed the accelerator budget.
        half = config.fat_tree_k // 2
        clients_per_rack = min(config.n_clients, half)
        group_rate = config.arrival_rate() * clients_per_rack / config.n_clients
        capacity = (
            config.max_accelerator_utilization
            * config.accelerator_cores
            / config.accelerator_service_time
            / config.work_per_request
        )
        if group_rate > capacity:
            _reject(
                "netrs-tor with per-ToR demand above the accelerator budget "
                "(the packet tier would engage DRS)"
            )
    if config.fault_schedule:
        from repro.faults.schedule import parse_fault_schedule

        for event in parse_fault_schedule(config.fault_schedule).events:
            kind = type(event).__name__
            if kind in ("RSNodeDown", "RSNodeUp"):
                _reject("RSNode fault events")
            if kind in _LINK_EVENTS:
                if not (_is_host(event.a) or _is_host(event.b)):
                    _reject(
                        f"link fault on {event.a}<->{event.b}: only "
                        "host-access links map onto the flow model "
                        "(fabric cuts imply rerouting)"
                    )


def vector_eligible(config) -> bool:
    """Whether the struct-of-arrays engine can run ``config``.

    ``repro.mesoscale.vector`` inlines one request lifecycle: client-side
    selection with plain C3 over links no fault touches.  That is where it
    is measured to pay (docs/MESOSCALE.md, "Vectorized fast path"); any
    other config runs the scalar engine whatever ``vector_batch`` says --
    in-network selection, another selector family (or C3's rate control),
    and link faults, whose per-hop checks need the scalar send path.
    """
    if config.netrs or config.algorithm != "c3":
        return False
    if config.fault_schedule:
        from repro.faults.schedule import parse_fault_schedule

        for event in parse_fault_schedule(config.fault_schedule).events:
            if type(event).__name__ in _LINK_EVENTS:
                return False
    return True


def _is_host(name: str) -> bool:
    target = name.strip()
    return target.startswith("host") or target.startswith(("server#", "client#"))


def _ensure_shardable(config) -> None:
    """Reject configs the shard fan-out cannot split evenly (or at all).

    Sharding models the system as ``shards`` disjoint sub-systems, so every
    shard needs an identical node block and at least one request; fault
    targets must remap onto a shard-local index space.
    """
    shards = config.shards
    if config.n_servers % shards:
        raise ConfigurationError(
            f"shards={shards} must divide n_servers={config.n_servers} "
            "(each shard is an identical sub-system; docs/MESOSCALE.md)"
        )
    if config.n_clients % shards:
        raise ConfigurationError(
            f"shards={shards} must divide n_clients={config.n_clients} "
            "(each shard is an identical sub-system; docs/MESOSCALE.md)"
        )
    if config.n_servers // shards < config.replication_factor:
        raise ConfigurationError(
            f"each of {shards} shards would hold "
            f"{config.n_servers // shards} servers, fewer than "
            f"replication_factor={config.replication_factor}"
        )
    if config.total_requests < shards:
        raise ConfigurationError(
            f"total_requests={config.total_requests} cannot be split over "
            f"{shards} shards (every shard needs at least one request)"
        )
    if config.fault_schedule:
        # The remap itself is the check: it raises on raw host names and
        # on link faults whose endpoints live in different shards.
        from repro.mesoscale.shard import split_fault_schedule

        split_fault_schedule(config)

"""Which engine runs a ``fidelity="flow"`` config.

``fidelity="flow"`` asks for the fastest engine that gives the packet
engine's result, bit for bit.  ``run_experiment`` picks it:

* the struct-of-arrays engine where :func:`vector_eligible` holds (and
  ``vector_batch > 0``);
* the scalar :class:`~repro.mesoscale.flow.FlowEngine` where
  :func:`flow_models` holds;
* the packet engine otherwise, which models everything hop by hop.

No config is refused for its fidelity.  Sharding alone is a flow-engine
feature (a packet shard would build the whole tree), so ``shards > 1`` is
rejected at config time unless :func:`flow_models` holds
(:func:`ensure_shardable`).
"""

from __future__ import annotations

from repro.errors import ConfigurationError

#: Schemes the flow tier models (see docs/MESOSCALE.md for the mapping).
FLOW_SCHEMES = ("clirs", "clirs-r95", "netrs-tor")


def flow_models(config) -> bool:
    """Whether the scalar flow engine models ``config`` exactly.

    It replaces the wire by constant per-hop delays (PAPER.md section V-A)
    and drives the packet tier's own read-path endpoints, so it covers an
    open-loop read workload over CliRS or one RSNode per client ToR, with
    server crashes as the only faults.  Writes, quorums, churn,
    replanning, DRS, RSNode and link faults all need the packet engine.
    """
    if (
        config.scheme not in FLOW_SCHEMES
        or config.write_fraction
        or (config.read_quorum is not None and config.read_quorum > 1)
        or config.churn_schedule
        or config.replan_period is not None
    ):
        return False
    if config.scheme == "netrs-tor":
        if config.group_granularity != "rack":
            return False
        # The flow engine has no DRS path: a per-ToR demand (uniform
        # estimate) above the accelerator budget would engage it.
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
            return False
    if config.fault_schedule:
        from repro.faults.events import ServerDown, ServerUp
        from repro.faults.schedule import parse_fault_schedule

        events = parse_fault_schedule(config.fault_schedule).events
        return all(isinstance(event, (ServerDown, ServerUp)) for event in events)
    return True


def vector_eligible(config) -> bool:
    """Whether the struct-of-arrays engine can run ``config``.

    ``repro.mesoscale.vector`` inlines one request lifecycle: client-side
    selection with plain C3, on a config the flow engine models.  That is
    where it is measured to pay (docs/MESOSCALE.md, "Vectorized fast path");
    in-network selection and another selector family (or C3's rate control)
    run the scalar engine whatever ``vector_batch`` says.
    """
    return not config.netrs and config.algorithm == "c3" and flow_models(config)


def ensure_shardable(config) -> None:
    """Reject configs the shard fan-out cannot split evenly (or at all).

    Sharding models the system as ``shards`` disjoint sub-systems, each run
    by a flow engine, so the config must be one :func:`flow_models` covers;
    every shard needs an identical node block and at least one request;
    fault targets must remap onto a shard-local index space.
    """
    shards = config.shards
    if not flow_models(config):
        raise ConfigurationError(
            f"shards={shards} splits the run over flow engines, and this "
            "config runs on the packet engine (docs/MESOSCALE.md, "
            "\"What the flow engine models\"); leave shards=1"
        )
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
        # The remap itself is the check: it raises on raw host names.
        from repro.mesoscale.shard import split_fault_schedule

        split_fault_schedule(config)

"""The five workloads: what each simulates, and how it is built and run.

Why each exists is recorded in ``BENCHMARK.json`` and README.md.

Every workload is ``ExperimentConfig.small`` plus the overrides below; the
benchmark seed is the only other input.  The simulator is driven through its
public calls only (``ExperimentConfig.small``, ``build_scenario``,
``run_experiment``, ``FlowEngine``/``VectorFlowEngine``, ``shard_configs``).

The modelled load is the paper's open-loop Poisson arrival at utilisation
0.9 on an 8-ary fat-tree with 32 servers and 64 clients unless a workload
says otherwise; the first 10 % of requests are warm-up and excluded from
latency.  The host-side driver is a closed loop of one cell at a time.
"""

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.experiments import ExperimentConfig, build_scenario, run_experiment
from repro.mesoscale import FlowEngine, VectorFlowEngine, shard_configs

#: Cells pooled into one run's simulated-latency figures.  Rep ``i`` of a run
#: simulates sub-seed ``i % POOL`` of the benchmark seed, so the timed reps
#: double as the latency sample: at utilisation 0.9 a single cell's p99 moves
#: 20-35 % from seed to seed, the mean over 16 cells about 10 %.
POOL = 16


@dataclass(frozen=True)
class Workload:
    """One set of inputs the benchmark runs."""

    name: str
    overrides: Dict[str, Any]
    #: Overrides that turn the config into its more detailed reference model;
    #: the accuracy check demands an identical result digest from it.
    reference: Dict[str, Any]

    def config(self, seed: int, cell: int = 0) -> ExperimentConfig:
        """The validated config of pooled cell ``cell`` under ``seed``."""
        return ExperimentConfig.small(seed=seed * POOL + cell, **self.overrides)

    def reference_config(self, seed: int) -> ExperimentConfig:
        """The reference model's config for cell 0 under ``seed``."""
        return self.config(seed).replace(**self.reference)


def build(config: ExperimentConfig) -> object:
    """The set-up step a run pays before its first event.

    Packet tier: the wired scenario (topology, fabric, servers, clients and,
    for NetRS schemes, the placement solve).  Flow tier: one engine per shard.
    """
    if config.fidelity != "flow":
        return build_scenario(config)
    engines: List[FlowEngine] = []
    for sub in shard_configs(config):
        if sub.vector_batch:
            engines.append(VectorFlowEngine(sub, vector_batch=sub.vector_batch))
        else:
            engines.append(FlowEngine(sub))
    return engines


def run(config: ExperimentConfig, prepared: object):
    """One cell on what :func:`build` prepared.

    ``run_experiment`` accepts a wired scenario but no built flow engine, so a
    flow cell builds its own again (about 1 % of its cell).
    """
    if config.fidelity == "flow":
        return run_experiment(config)
    return run_experiment(config, scenario=prepared)


#: Pure-performance knobs bypassed: no route cache, no pre-drawn RNG blocks,
#: no heap compaction.  Documented as "identical results either way".
_PLAIN_PACKET = {"route_cache_size": 0, "rng_batch_size": 0, "engine_compaction": False}

WORKLOADS = (
    Workload(
        name="pkt-clirs-r95",
        overrides={"scheme": "clirs-r95", "total_requests": 8000},
        reference=_PLAIN_PACKET,
    ),
    Workload(
        name="pkt-netrs-ilp",
        # 32 clients, not 64: the placement ILP then solves in 0.2 s on average
        # (0.03-2.3 s over 64 deployments) instead of 0.7 s (0.02-4.6 s), and
        # every pooled cell pays one solve.
        overrides={"scheme": "netrs-ilp", "n_clients": 32, "total_requests": 6000},
        reference=_PLAIN_PACKET,
    ),
    Workload(
        name="pkt-quorum-churn",
        overrides={
            "scheme": "clirs",
            "total_requests": 4000,
            "write_fraction": 0.3,
            "write_quorum": 2,
            "read_quorum": 2,
            # Twice the slowest write seen on 24 seeds, so that no write fails.
            "request_timeout": 0.25,
            "churn_schedule": "node-leave@0.03:server#1;node-join@0.08:server#1",
        },
        reference=_PLAIN_PACKET,
    ),
    Workload(
        name="flow-soa-shard",
        overrides={
            "scheme": "clirs-r95",
            "fat_tree_k": 16,
            "n_servers": 128,
            "n_clients": 512,
            "total_requests": 24000,
            "fidelity": "flow",
            "vector_batch": 4096,
            "shards": 4,
        },
        reference={"vector_batch": 0},
    ),
    Workload(
        name="flow-tor-faults",
        overrides={
            "scheme": "netrs-tor",
            "total_requests": 12000,
            "fidelity": "flow",
            "fault_schedule": "server-down@0.02:server#0;server-up@0.06:server#0",
            "request_timeout": 0.02,
            "max_retries": 5,
        },
        reference={"fidelity": "packet"},
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}

"""Experiment configuration: every knob of the paper's evaluation.

Defaults follow paper section V-A.  Two profiles are provided:

* :meth:`ExperimentConfig.paper` -- the full-scale setup (16-ary fat-tree,
  1024 hosts, 100 servers, 500 clients, 6 M requests).  Faithful but
  CPU-expensive in pure Python.
* :meth:`ExperimentConfig.small` -- the default shape-preserving scale-down
  (8-ary fat-tree, 128 hosts, 32 servers, 64 clients) used by tests and
  benchmarks; ratios (utilization, replication, fluctuation, accelerator
  parameters) are unchanged.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import ConfigurationError

#: The paper's evaluation schemes plus our ablation extras.
SCHEMES = (
    "clirs",
    "clirs-r95",
    "netrs-tor",
    "netrs-ilp",
    "netrs-greedy",
    "netrs-core",
)

#: Schemes where replica selection happens in the network.
NETRS_SCHEMES = ("netrs-tor", "netrs-ilp", "netrs-greedy", "netrs-core")

#: Maps a NetRS scheme to its placement solver backend.
SCHEME_SOLVERS = {
    "netrs-tor": "tor",
    "netrs-ilp": "ilp",
    "netrs-greedy": "greedy",
    "netrs-core": "core-only",
}

#: Fields that choose how a run executes, never what it measures: every
#: value gives bit-identical results, so a job's digest leaves them out
#: (``repro.exec.job.config_digest``).  Every other field is the model.
RUN_OPTIONS = (
    "route_cache_size",
    "engine_compaction",
    "rng_batch_size",
    "fidelity",
    "vector_batch",
)


@dataclass
class ExperimentConfig:
    """All parameters of one simulated experiment.

    Every field but the :data:`RUN_OPTIONS` is part of the model, and so of
    a job's identity.
    """

    scheme: str = "clirs"
    seed: int = 0
    # --- topology ---------------------------------------------------------
    fat_tree_k: int = 8
    switch_link_latency: float = 30e-6
    host_link_latency: float = 30e-6
    # --- run options: simulator performance knobs (identical results) -----
    route_cache_size: int = 65536  # ECMP path memoization bound; 0 = bypass
    engine_compaction: bool = True  # packet tier: compact cancelled timers
    rng_batch_size: int = 1024  # pre-drawn RNG block length; 0 = bypass
    # --- key-value store --------------------------------------------------
    n_servers: int = 32
    n_clients: int = 64
    replication_factor: int = 3
    virtual_nodes: int = 16
    parallelism: int = 4  # the paper's Np
    mean_service_time: float = 4e-3  # the paper's t_kv
    fluctuation_range: float = 3.0  # the paper's d; 1.0 disables fluctuation
    fluctuation_interval: float = 50e-3
    value_size: int = 1024
    # --- workload ----------------------------------------------------------
    utilization: float = 0.9  # nominal rho = t_kv * A / (Ns * Np)
    write_fraction: float = 0.0  # share of requests that are writes
    write_quorum: Optional[int] = None  # acks to wait for (None = all)
    read_quorum: Optional[int] = None  # replicas consulted per read (None = 1)
    total_requests: int = 30_000
    warmup_fraction: float = 0.1
    zipf_exponent: float = 0.99
    key_space: int = 1_000_000
    demand_skew: Optional[float] = None  # fraction of requests from hot clients
    hot_fraction: float = 0.2
    # --- replica selection --------------------------------------------------
    algorithm: str = "c3"
    ewma_alpha: float = 0.9
    # --- NetRS ---------------------------------------------------------------
    group_granularity: Union[str, int] = "rack"
    accelerator_cores: int = 1
    accelerator_service_time: float = 5e-6
    accelerator_link_delay: float = 1.25e-6  # half the 2.5 us RTT
    max_accelerator_utilization: float = 0.5  # the paper's U
    extra_hops_fraction: float = 0.2  # E = fraction * aggregate arrival rate
    work_per_request: float = 2.0  # request + response clone per served read
    replan_period: Optional[float] = None
    # --- CliRS-R95 -----------------------------------------------------------
    redundancy_percentile: float = 95.0
    redundancy_min_samples: int = 30
    # --- faults & robustness (see docs/FAULTS.md) ----------------------------
    fault_schedule: Optional[str] = None  # "kind@time:target;..."; None = none
    request_timeout: Optional[float] = None  # seconds; None = never time out
    max_retries: int = 3  # retransmissions per request, once a timeout is set
    # --- membership churn (see docs/CONSISTENCY.md) --------------------------
    churn_schedule: Optional[str] = None  # node-join/node-leave events only
    # --- run option: fidelity tier (see docs/MESOSCALE.md) -------------------
    # "packet" (hop-by-hop) or "flow": the fastest engine with the packet
    # engine's result (mesoscale.support picks it), same results either way.
    fidelity: str = "packet"
    # --- run option: flow-tier fast path (docs/MESOSCALE.md) -----------------
    # SoA request-block length; 0 = scalar flow engine.  Applies where
    # mesoscale.support.vector_eligible holds; elsewhere it changes nothing.
    vector_batch: int = 0
    # --- sharding: disjoint sub-systems, so part of the model ----------------
    shards: int = 1  # independent flow sub-experiments run as exec jobs

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def netrs(self) -> bool:
        """Whether replica selection happens in-network."""
        return self.scheme in NETRS_SCHEMES

    @property
    def redundancy_enabled(self) -> bool:
        """Whether clients duplicate slow requests (CliRS-R95)."""
        return self.scheme == "clirs-r95"

    @property
    def solver(self) -> str:
        """Placement backend for NetRS schemes."""
        return SCHEME_SOLVERS.get(self.scheme, "ilp")

    def arrival_rate(self) -> float:
        """Aggregate request rate A, from the nominal utilization.

        The paper defines utilization as ``t_kv * A / (Ns * Np)``.
        """
        return (
            self.utilization
            * self.n_servers
            * self.parallelism
            / self.mean_service_time
        )

    def effective_utilization(self) -> float:
        """Rate-averaged utilization under fluctuation: ``2 rho / (1 + d)``."""
        return 2.0 * self.utilization / (1.0 + self.fluctuation_range)

    def warmup_requests(self) -> int:
        """Requests excluded from latency statistics."""
        return int(self.total_requests * self.warmup_fraction)

    def prior_service_rate(self) -> float:
        """Cold-start service-rate prior for selectors: ``Np / t_kv``."""
        return self.parallelism / self.mean_service_time

    def effective_read_quorum(self) -> int:
        """Replicas consulted per read (R); ``None`` means 1."""
        return self.read_quorum if self.read_quorum is not None else 1

    def effective_write_quorum(self) -> int:
        """Acks awaited per write (W); ``None`` means all replicas."""
        return (
            self.write_quorum
            if self.write_quorum is not None
            else self.replication_factor
        )

    def consistency_notes(self) -> "list[str]":
        """Warning-level notes about the configured consistency regime.

        A sloppy quorum (``R + W <= N``) is deliberately *not* an error:
        it is a meaningful operating point (Dynamo-style availability over
        consistency) whose consequence -- reads may miss the latest write
        -- the staleness metrics exist to measure.  The note surfaces the
        choice in :meth:`ExperimentResult.describe` instead.
        """
        notes = []
        touches_quorums = (
            self.write_fraction > 0
            or self.read_quorum is not None
            or self.write_quorum is not None
        )
        if touches_quorums:
            r = self.effective_read_quorum()
            w = self.effective_write_quorum()
            if r + w <= self.replication_factor:
                notes.append(
                    f"sloppy quorum: R({r}) + W({w}) <= "
                    f"N({self.replication_factor}); read and write quorums "
                    "need not intersect, so reads may return stale values "
                    "-- see docs/CONSISTENCY.md"
                )
        return notes

    def extra_hops_budget(self) -> float:
        """The paper's E: allowed extra forwardings per second."""
        return self.extra_hops_fraction * self.arrival_rate()

    def total_hosts(self) -> int:
        """Hosts in the fat-tree."""
        half = self.fat_tree_k // 2
        return self.fat_tree_k * half * half

    # ------------------------------------------------------------------
    # Validation & profiles
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent settings."""
        if self.scheme not in SCHEMES:
            raise ConfigurationError(
                f"unknown scheme {self.scheme!r}; choose from {SCHEMES}"
            )
        if self.fat_tree_k < 2 or self.fat_tree_k % 2:
            raise ConfigurationError("fat_tree_k must be even and >= 2")
        if self.n_servers < self.replication_factor:
            raise ConfigurationError(
                "need at least replication_factor servers "
                f"({self.n_servers} < {self.replication_factor})"
            )
        if self.n_clients < 1:
            raise ConfigurationError("need at least one client")
        if self.n_servers + self.n_clients > self.total_hosts():
            raise ConfigurationError(
                f"{self.n_servers} servers + {self.n_clients} clients exceed "
                f"{self.total_hosts()} hosts (one role per host)"
            )
        if not 0 < self.utilization < math.inf:
            raise ConfigurationError("utilization must be finite and positive")
        if self.total_requests < 1:
            raise ConfigurationError("total_requests must be >= 1")
        if not 0 <= self.warmup_fraction < 1:
            raise ConfigurationError("warmup_fraction must be in [0, 1)")
        # Chained comparisons: NaN fails them all.
        if not 0 < self.mean_service_time < math.inf:
            raise ConfigurationError("mean_service_time must be finite and positive")
        if not 1 <= self.fluctuation_range < math.inf:
            raise ConfigurationError("fluctuation_range (d) must be finite and >= 1")
        if not 0 < self.fluctuation_interval < math.inf:
            raise ConfigurationError("fluctuation_interval must be finite and positive")
        if self.parallelism < 1 or self.virtual_nodes < 1 or self.key_space < 1:
            raise ConfigurationError("parallelism, virtual_nodes, key_space must be >= 1")
        if not 0 < self.zipf_exponent < math.inf:
            raise ConfigurationError("zipf_exponent must be finite and positive")
        if not 0 < self.hot_fraction < 1:
            raise ConfigurationError("hot_fraction must be in (0, 1)")
        if not (self.value_size >= 0 and 0 <= self.accelerator_link_delay < math.inf):
            raise ConfigurationError(
                "value_size and accelerator_link_delay must be >= 0 (the delay finite)"
            )
        if not (
            self.accelerator_cores >= 1 and 0 < self.accelerator_service_time < math.inf
        ):
            raise ConfigurationError(
                "accelerator_cores must be >= 1 and accelerator_service_time "
                "finite and positive"
            )
        if not 0 < self.max_accelerator_utilization <= 1:
            raise ConfigurationError("max_accelerator_utilization must be in (0, 1]")
        if not (
            0 < self.work_per_request < math.inf
            and 0 <= self.extra_hops_fraction < math.inf
        ):
            raise ConfigurationError(
                "work_per_request must be finite and positive, "
                "extra_hops_fraction finite and >= 0"
            )
        if not 0 <= self.redundancy_percentile <= 100 or self.redundancy_min_samples < 1:
            raise ConfigurationError(
                "redundancy_percentile must be in [0, 100], redundancy_min_samples >= 1"
            )
        if self.demand_skew is not None and not 0 < self.demand_skew < 1:
            raise ConfigurationError("demand_skew must be in (0, 1)")
        switch, host = self.switch_link_latency, self.host_link_latency
        if not (0 <= switch < math.inf and 0 <= host < math.inf):
            raise ConfigurationError("switch_link_latency, host_link_latency: finite, >= 0 s")
        if not 0 <= self.ewma_alpha < 1 or self.seed < 0:
            raise ConfigurationError("ewma_alpha must be in [0, 1), seed >= 0")
        if self.route_cache_size < 0:
            raise ConfigurationError("route_cache_size must be >= 0 (0 = off)")
        if self.rng_batch_size < 0:
            raise ConfigurationError("rng_batch_size must be >= 0 (0 = off)")
        if not 0 <= self.write_fraction < 1:
            raise ConfigurationError("write_fraction must be in [0, 1)")
        if self.write_quorum is not None and not (
            1 <= self.write_quorum <= self.replication_factor
        ):
            raise ConfigurationError(
                "write_quorum must be in [1, replication_factor]"
            )
        if self.read_quorum is not None and not (
            1 <= self.read_quorum <= self.replication_factor
        ):
            raise ConfigurationError(
                "read_quorum must be in [1, replication_factor] "
                f"(got {self.read_quorum} with replication_factor="
                f"{self.replication_factor}); a quorum cannot exceed the "
                "replica count"
            )
        if self.request_timeout is not None and not 0 < self.request_timeout < math.inf:
            raise ConfigurationError("request_timeout must be finite and positive (seconds)")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.replan_period is not None and not (
            self.netrs and self.replan_period > 0
        ):
            raise ConfigurationError(
                "replan_period re-solves the NetRS placement: it needs a "
                "NetRS scheme and a positive period (seconds)"
            )
        # Imported lazily, like the fault schedule's parser below: the rule
        # lives beside the traffic groups it shapes.
        from repro.core.plan import hosts_per_group

        hosts_per_group(self.group_granularity)
        if self.fault_schedule:
            # Imported lazily: config is loaded by exec workers and the CLI
            # before any fault machinery is needed.
            from repro.faults.schedule import parse_fault_schedule

            schedule = parse_fault_schedule(self.fault_schedule)
            if schedule.requires_timeouts() and self.request_timeout is None:
                raise ConfigurationError(
                    "fault_schedule crashes servers or cuts links, which "
                    "silently swallows requests; set request_timeout (and "
                    "max_retries) so clients can recover -- see docs/FAULTS.md"
                )
            if schedule.churn_events():
                raise ConfigurationError(
                    "node-join/node-leave events belong in churn_schedule, "
                    "not fault_schedule: churn is graceful membership "
                    "change, not a failure -- see docs/CONSISTENCY.md"
                )
        if self.churn_schedule:
            from repro.faults.schedule import parse_fault_schedule

            churn = parse_fault_schedule(self.churn_schedule)
            if len(churn.churn_events()) != len(churn.events):
                raise ConfigurationError(
                    "churn_schedule may contain only node-join/node-leave "
                    "events; put failures in fault_schedule instead -- see "
                    "docs/CONSISTENCY.md"
                )
        if self.fidelity not in ("packet", "flow"):
            raise ConfigurationError(
                f"fidelity must be 'packet' or 'flow', got {self.fidelity!r}"
            )
        if self.vector_batch < 0:
            raise ConfigurationError("vector_batch must be >= 0")
        if self.shards < 1:
            raise ConfigurationError("shards must be >= 1")
        if self.fidelity != "flow" and (self.vector_batch or self.shards > 1):
            raise ConfigurationError(
                "vector_batch and shards are flow-tier knobs; set "
                "fidelity='flow' to use them -- see docs/MESOSCALE.md"
            )
        if self.shards > 1:
            # Imported lazily for the same reason as the fault schedule.
            from repro.mesoscale.support import ensure_shardable

            ensure_shardable(self)

    def replace(self, **changes) -> "ExperimentConfig":
        """A copy with the given fields changed (validated).

        Every name must be a field: a method (``validate``) or a field this
        model no longer has is a :class:`ConfigurationError`, not a
        ``TypeError`` from deep inside :mod:`dataclasses`.
        """
        for name in changes:
            if name not in _FIELD_NAMES:
                raise ConfigurationError(f"unknown config field {name!r}")
        config = dataclasses.replace(self, **changes)
        config.validate()
        return config

    @classmethod
    def small(cls, scheme: str = "clirs", seed: int = 0, **overrides) -> "ExperimentConfig":
        """The scale-down profile used by tests and default benchmarks."""
        return cls(scheme=scheme, seed=seed).replace(**overrides)

    @classmethod
    def tiny(cls, scheme: str = "clirs", seed: int = 0, **overrides) -> "ExperimentConfig":
        """A minimal configuration for fast unit/integration tests."""
        defaults = dict(
            fat_tree_k=4,
            n_servers=6,
            n_clients=8,
            total_requests=600,
            key_space=10_000,
            virtual_nodes=4,
            warmup_fraction=0.1,
        )
        defaults.update(overrides)
        return cls(scheme=scheme, seed=seed).replace(**defaults)

    @classmethod
    def paper(cls, scheme: str = "clirs", seed: int = 0, **overrides) -> "ExperimentConfig":
        """The paper's full-scale parameters (section V-A)."""
        defaults = dict(
            fat_tree_k=16,
            n_servers=100,
            n_clients=500,
            total_requests=6_000_000,
            key_space=100_000_000,
            virtual_nodes=16,
        )
        defaults.update(overrides)
        return cls(scheme=scheme, seed=seed).replace(**defaults)


_FIELD_NAMES = frozenset(field.name for field in dataclasses.fields(ExperimentConfig))

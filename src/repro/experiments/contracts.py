"""Declared config-digest contracts (checked by ``netrs contracts``).

``repro.exec.job.config_digest`` hashes every :class:`ExperimentConfig`
field, so *adding* a field silently changes every job digest and orphans
all existing ledgers -- unless the new field is elided at its default via
``_DIGEST_DEFAULTS`` (the forward-compat dance PR6 performed for
``fidelity``).  Rule CON003 makes the dance unforgettable: every field not
grandfathered below must carry an elision entry whose value equals the
field's declared default, plus a CLI route (a dedicated ``--flag`` or a
declared entry in ``cli_via_sweep`` for knobs reached through the generic
``netrs sweep <field>`` path).

``FOUNDING_FIELDS`` lists the fields hashed *unconditionally* today.  They
are grandfathered as a matter of ledger compatibility, not taste: eliding
one of them now would change the digest of every existing default-valued
job and orphan every ledger written since the field appeared.  The list
therefore only ever grows when the contract itself is re-based -- never
edit it to silence a CON003 finding about a new field; add the elision
entry instead.
"""

from __future__ import annotations

from repro.lint.contracts import ContractRegistry, DigestContract

#: Every ExperimentConfig field that predates this contract and is hashed
#: unconditionally (``fidelity`` is absent: it already has an elision
#: entry, which CON003 validates against the field default instead).
FOUNDING_FIELDS = (
    "scheme",
    "seed",
    "fat_tree_k",
    "switch_link_latency",
    "host_link_latency",
    "link_bandwidth",
    "track_link_stats",
    "route_cache_size",
    "engine_compaction",
    "rng_batch_size",
    "background_traffic_rate",
    "background_packet_size",
    "n_servers",
    "n_clients",
    "replication_factor",
    "virtual_nodes",
    "parallelism",
    "mean_service_time",
    "fluctuation_range",
    "fluctuation_interval",
    "value_size",
    "workload_mode",
    "closed_window",
    "think_time",
    "utilization",
    "write_fraction",
    "write_quorum",
    "total_requests",
    "warmup_fraction",
    "zipf_exponent",
    "key_space",
    "demand_skew",
    "hot_fraction",
    "algorithm",
    "ewma_alpha",
    "group_granularity",
    "accelerator_cores",
    "accelerator_service_time",
    "accelerator_link_delay",
    "max_accelerator_utilization",
    "extra_hops_fraction",
    "work_per_request",
    "solver_time_limit",
    "replan_period",
    "redundancy_percentile",
    "redundancy_min_samples",
    "fault_schedule",
    "request_timeout",
    "max_retries",
)

DIGESTS = (
    DigestContract(
        name="experiment-config digest",
        config_path="src/repro/experiments/config.py",
        config_class="ExperimentConfig",
        digest_path="src/repro/exec/job.py",
        defaults_name="_DIGEST_DEFAULTS",
        founding_fields=FOUNDING_FIELDS,
        cli_path="src/repro/cli.py",
    ),
)

CONTRACTS = ContractRegistry(digests=list(DIGESTS))

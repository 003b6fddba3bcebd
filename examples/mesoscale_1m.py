#!/usr/bin/env python3
"""Mesoscale scale demo: a million requests across a million-host fat-tree.

The flow tier prices the wire in closed form on a fat-tree it never
materializes, and the full-scale run layers the struct-of-arrays fast path
(``vector_batch``) and the sharded parallel loop (``shards``) on top, which
is what makes this scale tractable in pure Python (see docs/MESOSCALE.md;
``--scheme netrs-tor`` runs the scalar flow engine, which the SoA one does
not cover).  This script

1. measures the packet tier's events per request on a small reference run
   of the same scheme, then
2. runs the full-scale flow experiment and reports wall clock, latency
   percentiles, peak RSS, and the flow engine's micro-events per request
   next to the packet tier's events per request.

It exits nonzero only if a run fails, so CI can run it as a smoke check.

Usage::

    python examples/mesoscale_1m.py                  # 1,024,000 hosts, 1M requests
    python examples/mesoscale_1m.py --hosts 100000   # ~100k hosts instead
    python examples/mesoscale_1m.py --smoke          # 1,024 hosts, 20k requests (CI)

``--workers N`` runs the shards on N processes (default: serial in one
process); either way the result is byte-identical -- the merge is job-key
ordered.
"""

import argparse
import resource
import sys
import time

from repro.experiments import ExperimentConfig, run_experiment
from repro.mesoscale import run_sharded_flow_experiment
from repro.mesoscale.support import vector_eligible

#: Full-scale topology: a 160-ary fat-tree is exactly 1,024,000 hosts.
DEFAULT_HOSTS = 1_024_000


def k_for_hosts(hosts: int) -> int:
    """Smallest even fat-tree arity whose k^3/4 hosts reach ``hosts``."""
    k = 4
    while k**3 // 4 < hosts:
        k += 2
    return k


def demo_config(smoke: bool, hosts: int, shards: int, scheme: str, seed: int):
    # Zipf skew is scale-free: at 1,000 servers the default exponent (0.99)
    # concentrates ~7% of the ~700k req/s aggregate on one 3-replica key
    # set, saturating it regardless of fleet size.  The demo milds the skew
    # so per-replica load stays below capacity at scale.
    scale = dict(
        zipf_exponent=0.6, utilization=0.7, fidelity="flow", vector_batch=4_096
    )
    if smoke:
        # CI-sized: a 16-ary fat-tree is 1,024 hosts, in a single shard.
        return ExperimentConfig.small(scheme=scheme, seed=seed).replace(
            fat_tree_k=16,
            n_servers=100,
            n_clients=400,
            total_requests=20_000,
            **scale,
        )
    # Full scale: the topology is closed-form (no per-host objects), so a
    # million hosts costs arithmetic, not memory; the per-request state is
    # the bounded part and the shards split it.
    return ExperimentConfig.small(scheme=scheme, seed=seed).replace(
        fat_tree_k=k_for_hosts(hosts),
        n_servers=1_000,
        n_clients=4_000,
        total_requests=1_000_000,
        shards=shards,
        **scale,
    )


def peak_rss_mib() -> float:
    """Peak RSS of this process plus any shard workers, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is KiB on Linux


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run: 1,024 hosts and 20k requests instead of "
        "1,024,000 hosts and 1M requests",
    )
    parser.add_argument(
        "--hosts",
        type=int,
        default=DEFAULT_HOSTS,
        help="target host count for the full-scale run; rounded up to the "
        "nearest fat-tree arity (default: 1,024,000 = a 160-ary tree)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=4,
        help="independent sub-experiments the full-scale run splits into "
        "(default 4; --smoke always runs a single shard)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes to run the shards on (default 1: serial); the "
        "merged result is identical for any value",
    )
    parser.add_argument(
        "--scheme", default="clirs", choices=("clirs", "clirs-r95", "netrs-tor")
    )
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    # --- packet-tier reference: events/request on a small same-scheme run.
    reference = ExperimentConfig.small(
        scheme=args.scheme, seed=args.seed, total_requests=4_000
    )
    started = time.perf_counter()
    packet = run_experiment(reference)
    packet_wall = time.perf_counter() - started
    packet_epr = packet.events_executed / packet.completed_requests
    print(
        f"packet reference: {packet.completed_requests} requests on "
        f"{reference.fat_tree_k}-ary tree in {packet_wall:.1f}s -- "
        f"{packet.events_executed} engine events "
        f"({packet_epr:.2f}/request)"
    )

    # --- the flow-tier run at scale.
    config = demo_config(args.smoke, args.hosts, args.shards, args.scheme, args.seed)
    hosts = config.fat_tree_k ** 3 // 4
    shard_note = f", {config.shards} shards" if config.shards > 1 else ""
    # vector_batch applies to client-side plain-C3 runs; netrs-tor runs the
    # scalar engine whatever the knob says (docs/MESOSCALE.md).
    if vector_eligible(config):
        engine_note = f"SoA engine, vector_batch={config.vector_batch}"
    else:
        engine_note = "scalar engine"
    print(
        f"\nflow tier: {hosts:,} hosts ({config.fat_tree_k}-ary fat-tree), "
        f"{config.n_servers} servers, {config.n_clients} clients, "
        f"{config.total_requests:,} requests [{args.scheme}, "
        f"{engine_note}{shard_note}] ..."
    )
    started = time.perf_counter()
    if config.shards > 1:
        result = run_sharded_flow_experiment(config, workers=args.workers)
    else:
        result = run_experiment(config)
    wall = time.perf_counter() - started

    s = result.summary()
    micro_epr = result.micro_events / result.completed_requests
    rate = result.completed_requests / wall

    print(
        f"completed {result.completed_requests:,} requests in {wall:.1f}s "
        f"({rate:,.0f} requests/s simulated throughput)"
    )
    print(
        f"latency: mean={s['mean']:.3f}ms p95={s['p95']:.3f}ms "
        f"p99={s['p99']:.3f}ms p99.9={s['p999']:.3f}ms"
    )
    print(
        f"events/request: flow micro-events {micro_epr:.2f} "
        f"vs packet events {packet_epr:.2f}"
    )
    print(f"peak RSS: {peak_rss_mib():,.0f} MiB (self + shard workers)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The k-ary fat-tree used by the paper's evaluation (Al-Fares et al.).

A k-ary fat-tree has:

* ``k`` pods, each with ``k/2`` ToR (edge) and ``k/2`` aggregation switches,
* ``k/2`` hosts per ToR, so ``k^3/4`` hosts total,
* ``(k/2)^2`` core switches in ``k/2`` groups of ``k/2``; aggregation switch
  ``a`` of every pod connects to core group ``a``.

The paper simulates the 16-ary instance: 1024 hosts, 128 ToR, 128
aggregation and 64 core switches.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import TopologyError
from repro.network.topology import Topology, build_tree


def build_fat_tree(k: int) -> Topology:
    """Build a k-ary fat-tree; ``k`` must be even and >= 2.

    Uses :func:`~repro.network.topology.build_tree` with the fat-tree's
    parameters; the round-robin core wiring there reduces exactly to the
    canonical disjoint core groups because ``core_links_per_agg *
    aggs_per_pod == cores``.
    """
    if k < 2 or k % 2 != 0:
        raise TopologyError(f"fat-tree arity must be even and >= 2, got k={k}")
    half = k // 2
    return build_tree(
        pods=k,
        racks_per_pod=half,
        hosts_per_rack=half,
        aggs_per_pod=half,
        cores=half * half,
        core_links_per_agg=half,
    )


@lru_cache(maxsize=4)
def shared_fat_tree(k: int) -> Topology:
    """Memoized, frozen :func:`build_fat_tree` per ``k``.

    A scenario only reads its topology, so every scenario in a process over
    the same ``k`` can share one, and with it what is derived from it
    (:meth:`~repro.network.topology.Topology.derived`: the geometry, and the
    router's ECMP tables once a run needs a walk): the cells of a sweep, the
    reps of a benchmark.  Each would otherwise build, validate and index the
    same tree (about 10 ms of CPU at k = 16 on a 2-core x86-64 host).  The
    tree is frozen, so adding a node or link to it raises instead of
    changing every scenario's wiring.  Results are unchanged -- only the
    per-build cost.
    """
    return build_fat_tree(k).freeze()


def fat_tree_dimensions(k: int) -> dict:
    """Expected element counts of a k-ary fat-tree (for tests and docs)."""
    half = k // 2
    return {
        "pods": k,
        "hosts": k * half * half,
        "tor_switches": k * half,
        "agg_switches": k * half,
        "core_switches": half * half,
        "switches": 2 * k * half + half * half,
    }

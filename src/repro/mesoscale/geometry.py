"""Constant-space fat-tree geometry for the flow tier.

The packet tier materializes every node and edge of the k-ary fat-tree
(:mod:`repro.network.topology`); at the mesoscale target of ~100k hosts that
graph alone costs hundreds of MB and seconds of build time.  The flow tier
only ever needs three facts about the topology:

* the **host-name list in canonical build order** -- identical to
  ``topology.hosts``, so the seeded ``placement`` permutation assigns the
  same client/server roles in both tiers at equal ``fat_tree_k``;
* the **locality class** of a host pair (same rack / same pod / cross-pod),
  which fixes the hop count (2 / 4 / 6) and hence the deterministic path
  delay under the paper's pure-delay link model;
* each host's **ToR name**, for NetRS operator placement and for resolving
  host-access-link fault targets.

``FatTreeGeometry`` provides exactly that from O(hosts) memory: one name
list plus one name->rack dict, no Node objects and no adjacency sets.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ConfigurationError


class FatTreeGeometry:
    """Host naming, locality and ToR lookup for a k-ary fat-tree."""

    __slots__ = ("k", "pods", "racks_per_pod", "hosts_per_rack", "hosts", "_rack_of")

    def __init__(self, k: int) -> None:
        if k < 2 or k % 2:
            raise ConfigurationError(f"fat_tree_k must be even and >= 2, got {k}")
        half = k // 2
        self.k = k
        self.pods = k
        self.racks_per_pod = half
        self.hosts_per_rack = half
        hosts: List[str] = []
        rack_of: Dict[str, int] = {}
        # Same nesting order as repro.network.topology.build_tree: pods
        # ascending, racks ascending, host index ascending.  topology.hosts
        # preserves insertion order, so these lists match element-for-element.
        for pod in range(k):
            for rack in range(half):
                global_rack = pod * half + rack
                for index in range(half):
                    name = f"host{pod}.{rack}.{index}"
                    hosts.append(name)
                    rack_of[name] = global_rack
        self.hosts = hosts
        self._rack_of = rack_of

    def total_hosts(self) -> int:
        """Hosts in the tree: ``k^3 / 4``."""
        return len(self.hosts)

    def rack_index(self, host: str) -> int:
        """Global rack index of ``host`` (pod-major)."""
        return self._rack_of[host]

    def pod_index(self, host: str) -> int:
        """Pod index of ``host``."""
        return self._rack_of[host] // self.racks_per_pod

    def tor_name(self, host: str) -> str:
        """Name of the ToR switch fronting ``host``."""
        pod, rack = divmod(self._rack_of[host], self.racks_per_pod)
        return f"tor{pod}.{rack}"

    def is_host(self, name: str) -> bool:
        """Whether ``name`` is one of this tree's hosts."""
        return name in self._rack_of

    def hop_count(self, a: str, b: str) -> int:
        """Hops on the ECMP path between hosts ``a`` and ``b`` (2, 4 or 6).

        Same rack: host-tor-host.  Same pod: host-tor-agg-tor-host.
        Cross-pod: host-tor-agg-core-agg-tor-host.  All ECMP choices are
        latency-equal, so the class alone fixes the path delay.
        """
        rack_a = self._rack_of[a]
        rack_b = self._rack_of[b]
        if rack_a == rack_b:
            return 2
        if rack_a // self.racks_per_pod == rack_b // self.racks_per_pod:
            return 4
        return 6


_GEOMETRY_MEMO: Dict[int, FatTreeGeometry] = {}
_GEOMETRY_MEMO_LIMIT = 4


def shared_geometry(k: int) -> FatTreeGeometry:
    """Memoized :class:`FatTreeGeometry` per ``k``.

    A geometry is never written after construction, so every flow engine in
    a process over the same tree can share one: the shards of one run, the
    reps of a benchmark, the cells of a sweep.  Each would otherwise build
    the same ``k^3 / 4`` host names (1.5 ms at k = 16, about a second at
    k = 160).  Results are unchanged -- only the per-construction cost.
    """
    geometry = _GEOMETRY_MEMO.get(k)
    if geometry is None:
        if len(_GEOMETRY_MEMO) >= _GEOMETRY_MEMO_LIMIT:
            _GEOMETRY_MEMO.clear()
        geometry = FatTreeGeometry(k)
        _GEOMETRY_MEMO[k] = geometry
    return geometry

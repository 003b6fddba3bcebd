"""The tree's locality relation: a host's ToR, rack and pod, and how many
links lie between two points.

NetRS prices every leg by the paper's locality classes (section III-B): two
hosts share a rack, a pod or neither, and are 2, 4 or 6 links apart.  Every
equal-cost route between two points is as long as the next, so these counts
are all either tier needs to deliver a packet; which switches a packet visits
is :class:`~repro.network.routing.Router`'s question, and only link faults
and per-hop forwarding ask it.  :class:`FatTreeGeometry` is the one answer,
and both tiers read it:

* the **flow tier** builds it from ``k`` (:func:`shared_geometry`) and never
  materializes the graph -- at the mesoscale target of ~100k hosts the graph
  alone costs hundreds of MB and seconds of build time;
* the **packet tier** derives it from its wired
  :class:`~repro.network.topology.Topology` (:meth:`FatTreeGeometry.of`,
  kept by ``Topology.derived``), so a tree wired by hand answers for its own
  links.

Both give the same answers on a k-ary fat-tree: hosts in the canonical build
order (so the seeded ``placement`` permutation assigns the same roles in
both tiers), the same rack numbers, the same distances.  Memory is O(hosts):
one name list plus one name -> rack dict, and tables of the switches.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, TopologyError
from repro.network.topology import NodeKind, Topology


class FatTreeGeometry:
    """Host order, a host's ToR, rack and pod, and link distances in a tree.

    Read-only after construction.  The tables the per-packet paths read in
    place are public: ``tor_pod`` (ToR -> pod), ``switch_pod`` (every switch
    -> its pod, ``None`` for a core), ``rack_pod`` (rack number -> pod) and
    ``cross_pod``, the links between hosts of two pods: 6, or 0 on a tree
    where a core misses a pod, so that only a walk can tell.
    """

    __slots__ = (
        "hosts",
        "rack_pod",
        "tor_pod",
        "switch_pod",
        "cross_pod",
        "_rack_of",
        "_tors",
    )

    def __init__(self, k: int) -> None:
        if k < 2 or k % 2:
            raise ConfigurationError(f"fat_tree_k must be even and >= 2, got {k}")
        half = k // 2
        # Same nesting order as repro.network.topology.build_tree: pods
        # ascending, racks ascending, host index ascending.  topology.hosts
        # preserves insertion order, so these lists match element-for-element.
        hosts = [
            f"host{pod}.{rack}.{index}"
            for pod in range(k)
            for rack in range(half)
            for index in range(half)
        ]
        tors = [f"tor{pod}.{rack}" for pod in range(k) for rack in range(half)]
        switch_pod: Dict[str, Optional[int]] = {
            f"core{core}": None for core in range(half * half)
        }
        switch_pod.update(
            {f"agg{pod}.{agg}": pod for pod in range(k) for agg in range(half)}
        )
        self._assign(
            hosts,
            {name: i // half for i, name in enumerate(hosts)},
            tors,
            [rack // half for rack in range(len(tors))],
            switch_pod,
            meshed=True,
        )

    @classmethod
    def of(cls, topology: Topology) -> "FatTreeGeometry":
        """The geometry of a wired tree, read off its links: any tree
        :func:`~repro.network.topology.build_tree` makes, or one wired by
        hand.  Racks are numbered in the ToRs' insertion order."""
        nodes = topology.nodes
        hosts = [name for name, node in nodes.items() if node.kind is NodeKind.HOST]
        switch_pod = {
            name: node.pod for name, node in nodes.items() if node.kind is not NodeKind.HOST
        }
        tors = [name for name, node in nodes.items() if node.kind is NodeKind.TOR]
        aggs = [node for node in nodes.values() if node.kind is NodeKind.AGG]
        rack_of = {
            host: rack
            for rack, tor in enumerate(tors)
            for host in topology.neighbors(tor)
            if nodes[host].kind is NodeKind.HOST
        }
        # Meshed: every linked core reaches every pod through some aggregation
        # switch of that pod.
        core_pods = {
            (core, agg.pod)
            for agg in aggs
            for core in topology.neighbors(agg.name)
            if nodes[core].kind is NodeKind.CORE
        }
        cores = {core for core, _ in core_pods}
        pods = {agg.pod for agg in aggs}
        geometry = cls.__new__(cls)
        geometry._assign(
            hosts,
            rack_of,
            tors,
            [switch_pod[tor] for tor in tors],
            switch_pod,
            meshed=len(core_pods) == len(cores) * len(pods),
        )
        return geometry

    def _assign(
        self,
        hosts: List[str],
        rack_of: Dict[str, int],
        tors: List[str],
        rack_pod: list,
        switch_pod: Dict[str, Optional[int]],
        meshed: bool,
    ) -> None:
        self.hosts = hosts
        self._rack_of = rack_of
        self._tors = tors
        self.rack_pod = rack_pod
        self.tor_pod: Dict[str, int] = dict(zip(tors, rack_pod))
        switch_pod.update(self.tor_pod)
        self.switch_pod = switch_pod
        self.cross_pod = 6 if meshed else 0

    # ------------------------------------------------------------------
    # Hosts
    # ------------------------------------------------------------------
    def total_hosts(self) -> int:
        """Hosts in the tree: ``k^3 / 4`` for a k-ary fat-tree."""
        return len(self.hosts)

    def is_host(self, name: str) -> bool:
        """Whether ``name`` is one of this tree's hosts."""
        return name in self._rack_of

    def rack_index(self, host: str) -> int:
        """Global rack number of ``host`` (pod-major on a fat-tree)."""
        return self._rack_of[host]

    def pod_index(self, host: str) -> int:
        """Pod of ``host``."""
        return self.rack_pod[self._rack_of[host]]

    def tor_of(self, host: str) -> str:
        """Name of the ToR switch ``host`` hangs off."""
        try:
            return self._tors[self._rack_of[host]]
        except KeyError:
            raise TopologyError(f"unknown host: {host}") from None

    def egress(self, target: Optional[str]) -> Optional[str]:
        """The switch that hands a packet to ``target``: a host's ToR, any
        other name itself."""
        rack = self._rack_of.get(target)  # type: ignore[arg-type]
        return target if rack is None else self._tors[rack]

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def hop_count(self, a: str, b: str) -> int:
        """Links on every ECMP path between hosts ``a`` and ``b`` (2, 4 or 6).

        Same rack: host-tor-host.  Same pod: host-tor-agg-tor-host.
        Cross-pod: host-tor-agg-core-agg-tor-host (0 where only a walk can
        tell).  All ECMP choices are latency-equal, so the class alone fixes
        the path delay.
        """
        rack_a = self._rack_of[a]
        rack_b = self._rack_of[b]
        if rack_a == rack_b:
            return 2
        if self.rack_pod[rack_a] == self.rack_pod[rack_b]:
            return 4
        return self.cross_pod

    def distance(self, switch: str, target: Optional[str]) -> Tuple[Optional[str], int]:
        """``target``'s egress switch (a host's ToR, a switch itself), and the
        links from ``switch`` to it.

        With a ToR at either end -- NetRS steers from a ToR to an RSNode and
        from an RSNode to a host -- tiers and pods fix the count: ToR to ToR
        2 within a pod and 4 across, ToR to aggregation switch 1 and 3, ToR
        to core 2; ``len(Router.path(switch, target, key))`` for every
        ``key``, less the host.  0 links when only a walk can tell:
        ``switch`` itself, no ToR at either end, an unknown name, a tree
        whose core misses a pod.
        """
        rack = self._rack_of.get(target)  # type: ignore[arg-type]
        egress = target if rack is None else self._tors[rack]  # inlined egress()
        pods = self.tor_pod
        if switch in pods:
            tor, other = switch, egress
        else:  # an aggregation or core switch, going down
            tor, other = egress, switch
        switch_pod = self.switch_pod
        if tor not in pods or other not in switch_pod or tor == other:
            return egress, 0
        within = 2 if other in pods else 1
        other_pod = switch_pod[other]
        if other_pod == pods[tor]:
            return egress, within
        if not self.cross_pod:
            return egress, 0
        return egress, 2 if other_pod is None else within + 2


@lru_cache(maxsize=4)
def shared_geometry(k: int) -> FatTreeGeometry:
    """Memoized :class:`FatTreeGeometry` per ``k``.

    A geometry is never written after construction, so every flow engine in
    a process over the same tree can share one: the shards of one run, the
    reps of a benchmark, the cells of a sweep.  Each would otherwise build
    the same ``k^3 / 4`` host names (1.5 ms at k = 16, about a second at
    k = 160).  Results are unchanged -- only the per-construction cost.
    """
    return FatTreeGeometry(k)

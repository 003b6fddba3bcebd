"""Tree-shaped data-center topologies.

A :class:`Topology` is a typed multigraph of core switches, aggregation
switches, ToR switches and hosts with the hierarchical structure of paper
Fig. 1.  :func:`build_tree` constructs a generic 3-tier Clos-like tree with
full ToR<->aggregation connectivity inside each pod and configurable
aggregation<->core wiring; :func:`~repro.network.fattree.build_fat_tree`
builds the canonical k-ary fat-tree on top of it.

Node names are human-readable and unique, e.g. ``core3``, ``agg1.2``
(pod 1, index 2), ``tor1.0``, ``host1.0.5`` (pod 1, rack 0, index 5).

A topology is built once and then only read.  What other layers derive from
its wiring -- its geometry, the router's ECMP tables -- is kept on it
(:meth:`Topology.derived`) and dropped by any change.  A tree shared across
scenarios (:func:`~repro.network.fattree.shared_fat_tree`) is
:meth:`~Topology.freeze`-d: adding a node or link to it raises, so no
caller can change the wiring under the scenarios that share it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import TopologyError
from repro.network.addressing import TIER_AGG, TIER_CORE, TIER_TOR


class NodeKind(Enum):
    """What a topology node is."""

    CORE = "core"
    AGG = "agg"
    TOR = "tor"
    HOST = "host"


#: Tier ID per node kind (hosts sit below ToRs; give them 3 for ordering).
KIND_TIER = {
    NodeKind.CORE: TIER_CORE,
    NodeKind.AGG: TIER_AGG,
    NodeKind.TOR: TIER_TOR,
    NodeKind.HOST: 3,
}


@dataclass(frozen=True, slots=True)
class Node:
    """One device or host in the topology."""

    name: str
    kind: NodeKind
    pod: Optional[int] = None
    rack: Optional[int] = None
    index: int = 0
    #: Paper tier ID: core 0, aggregation 1, ToR 2 (hosts: 3).  Stored, not
    #: derived per read: validation and the tier walks read it per link.
    tier: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tier", KIND_TIER[self.kind])


_FROZEN = "the topology is frozen (shared across scenarios); build a new one"


@dataclass
class Topology:
    """A typed adjacency structure over :class:`Node` objects."""

    nodes: Dict[str, Node] = field(default_factory=dict)
    _adjacency: Dict[str, List[str]] = field(default_factory=dict)
    _frozen: bool = field(default=False, repr=False, compare=False)
    _derived: Dict[Callable, Any] = field(
        default_factory=dict, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Register a node; names must be unique."""
        if self._frozen:
            raise TopologyError(_FROZEN)
        if self._derived:  # what was derived from the wiring is stale now
            self._derived.clear()
        if node.name in self.nodes:
            raise TopologyError(f"duplicate node name: {node.name}")
        self.nodes[node.name] = node
        self._adjacency[node.name] = []

    def add_link(self, a: str, b: str) -> None:
        """Create an undirected link between two existing nodes."""
        if self._frozen:
            raise TopologyError(_FROZEN)
        if self._derived:  # what was derived from the wiring is stale now
            self._derived.clear()
        if a not in self.nodes or b not in self.nodes:
            missing = a if a not in self.nodes else b
            raise TopologyError(f"unknown node: {missing}")
        if b in self._adjacency[a]:
            raise TopologyError(f"duplicate link {a} <-> {b}")
        self._adjacency[a].append(b)
        self._adjacency[b].append(a)

    def freeze(self) -> "Topology":
        """Refuse every later node or link; returns the topology itself."""
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        """Whether nodes and links can no longer be added."""
        return self._frozen

    def derived(self, build: Callable[["Topology"], Any]) -> Any:
        """``build(self)``, computed once per wiring.

        For read-only structures that depend on nothing but the nodes and
        links (the geometry, the router's ECMP tables): every caller over
        this topology gets the same object until a node or link is added.
        """
        value = self._derived.get(build)
        if value is None:
            value = self._derived[build] = build(self)
        return value

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def node(self, name: str) -> Node:
        """Look up a node by name."""
        try:
            return self.nodes[name]
        except KeyError:
            raise TopologyError(f"unknown node: {name}") from None

    def neighbors(self, name: str) -> Tuple[str, ...]:
        """All nodes directly linked to ``name``."""
        return tuple(self._adjacency[name])

    def by_kind(self, kind: NodeKind) -> List[Node]:
        """All nodes of a given kind, in insertion (deterministic) order."""
        return [n for n in self.nodes.values() if n.kind is kind]

    @property
    def hosts(self) -> List[Node]:
        """All end-hosts."""
        return self.by_kind(NodeKind.HOST)

    @property
    def switches(self) -> List[Node]:
        """All switches (core + aggregation + ToR)."""
        return [n for n in self.nodes.values() if n.kind is not NodeKind.HOST]

    def tor_of(self, host_name: str) -> Node:
        """The ToR switch a host hangs off."""
        host = self.node(host_name)
        if host.kind is not NodeKind.HOST:
            raise TopologyError(f"{host_name} is not a host")
        for neighbor in self._adjacency[host_name]:
            if self.nodes[neighbor].kind is NodeKind.TOR:
                return self.nodes[neighbor]
        raise TopologyError(f"host {host_name} has no ToR uplink")

    def hosts_under(self, tor_name: str) -> List[Node]:
        """End-hosts attached to a ToR switch."""
        tor = self.node(tor_name)
        if tor.kind is not NodeKind.TOR:
            raise TopologyError(f"{tor_name} is not a ToR switch")
        return [
            self.nodes[n]
            for n in self._adjacency[tor_name]
            if self.nodes[n].kind is NodeKind.HOST
        ]

    def aggs_in_pod(self, pod: int) -> List[Node]:
        """Aggregation switches of one pod."""
        return [n for n in self.by_kind(NodeKind.AGG) if n.pod == pod]

    def tors_in_pod(self, pod: int) -> List[Node]:
        """ToR switches of one pod."""
        return [n for n in self.by_kind(NodeKind.TOR) if n.pod == pod]

    def uplinks(self, name: str) -> List[str]:
        """Neighbors one tier closer to the core."""
        me = self.node(name)
        return [n for n in self._adjacency[name] if self.nodes[n].tier == me.tier - 1]

    def downlinks(self, name: str) -> List[str]:
        """Neighbors one tier further from the core."""
        me = self.node(name)
        return [n for n in self._adjacency[name] if self.nodes[n].tier == me.tier + 1]

    def validate(self) -> None:
        """Check structural invariants; raises :class:`TopologyError`.

        Every host has exactly one ToR uplink; every ToR has at least one
        aggregation uplink; every aggregation switch has at least one core
        uplink; links only connect adjacent tiers.
        """
        for node in self.nodes.values():
            for neighbor_name in self._adjacency[node.name]:
                neighbor = self.nodes[neighbor_name]
                if neighbor.tier - node.tier not in (1, -1):
                    raise TopologyError(
                        f"link {node.name} <-> {neighbor_name} skips a tier"
                    )
        for host in self.hosts:
            tors = [
                n for n in self._adjacency[host.name]
                if self.nodes[n].kind is NodeKind.TOR
            ]
            if len(tors) != 1:
                raise TopologyError(f"host {host.name} has {len(tors)} ToR uplinks")
        for tor in self.by_kind(NodeKind.TOR):
            if not self.uplinks(tor.name):
                raise TopologyError(f"ToR {tor.name} has no aggregation uplink")
        for agg in self.by_kind(NodeKind.AGG):
            if not self.uplinks(agg.name):
                raise TopologyError(f"aggregation {agg.name} has no core uplink")


def build_tree(
    *,
    pods: int,
    racks_per_pod: int,
    hosts_per_rack: int,
    aggs_per_pod: int,
    cores: int,
    core_links_per_agg: Optional[int] = None,
) -> Topology:
    """Build a generic 3-tier tree (paper Fig. 1).

    Inside a pod every ToR connects to every aggregation switch.  Each
    aggregation switch connects to ``core_links_per_agg`` core switches
    (default: all of them), assigned round-robin so core fan-in is balanced.

    Args:
        pods: Number of pods.
        racks_per_pod: ToR switches (racks) per pod.
        hosts_per_rack: End-hosts per rack.
        aggs_per_pod: Aggregation switches per pod.
        cores: Core switches in the top tier.
        core_links_per_agg: Core uplinks per aggregation switch.

    Returns:
        A validated :class:`Topology`.
    """
    if min(pods, racks_per_pod, hosts_per_rack, aggs_per_pod, cores) < 1:
        raise TopologyError("all topology dimensions must be >= 1")
    if core_links_per_agg is None:
        core_links_per_agg = cores
    if not 1 <= core_links_per_agg <= cores:
        raise TopologyError(
            f"core_links_per_agg must be in [1, {cores}], got {core_links_per_agg}"
        )

    topo = Topology()
    for c in range(cores):
        topo.add_node(Node(name=f"core{c}", kind=NodeKind.CORE, index=c))
    for p in range(pods):
        for a in range(aggs_per_pod):
            topo.add_node(Node(name=f"agg{p}.{a}", kind=NodeKind.AGG, pod=p, index=a))
        for r in range(racks_per_pod):
            topo.add_node(Node(name=f"tor{p}.{r}", kind=NodeKind.TOR, pod=p, rack=r))
            for h in range(hosts_per_rack):
                topo.add_node(
                    Node(
                        name=f"host{p}.{r}.{h}",
                        kind=NodeKind.HOST,
                        pod=p,
                        rack=r,
                        index=h,
                    )
                )
                topo.add_link(f"host{p}.{r}.{h}", f"tor{p}.{r}")
            for a in range(aggs_per_pod):
                topo.add_link(f"tor{p}.{r}", f"agg{p}.{a}")
        for a in range(aggs_per_pod):
            # Round-robin block assignment keeps core degree balanced and,
            # when core_links_per_agg * aggs_per_pod == cores, yields the
            # fat-tree's disjoint core groups.
            start = (a * core_links_per_agg) % cores
            for offset in range(core_links_per_agg):
                core_index = (start + offset) % cores
                topo.add_link(f"agg{p}.{a}", f"core{core_index}")

    topo.validate()
    return topo


def iter_rack_ids(topology: Topology) -> Iterable[Tuple[int, int]]:
    """Yield every ``(pod, rack)`` pair present in the topology."""
    seen = set()
    for tor in topology.by_kind(NodeKind.TOR):
        assert tor.pod is not None and tor.rack is not None
        pair = (tor.pod, tor.rack)
        if pair not in seen:
            seen.add(pair)
            yield pair

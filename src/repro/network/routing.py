"""Deterministic ECMP routing over tree topologies.

The router answers one question: *given that a device holds a packet, through
which sequence of devices does it reach a target node?*  Paths are valley-free
(climb, then descend) and equal-cost choices (which aggregation switch, which
core) are made by hashing the packet's flow key, so a flow always takes the
same path -- this models per-flow ECMP as deployed in real data centers and
keeps the simulation deterministic.

NetRS steers packets to waypoint switches (RSNodes); the router therefore
supports switch targets as well as host targets.  All combinations used by
the NetRS data plane are covered:

* ToR -> {host, ToR, aggregation, core}   (stamping ToR forwards to RSNode)
* aggregation/core -> host                (RSNode forwards to server/client)
* host -> anything                        (convenience: prepends the ToR)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import RoutingError, TopologyError
from repro.network.topology import Node, NodeKind, Topology


def _pick(options: List[str], flow_key: int, depth: int) -> str:
    """Deterministic ECMP choice among ``options``.

    ``depth`` decorrelates successive choices along one path so a flow does
    not always pick index ``k % n`` at every stage.
    """
    if not options:
        raise RoutingError("no candidate next hop")
    if len(options) == 1:
        return options[0]
    return options[(flow_key >> (5 * depth)) % len(options)]


#: Default bound on the forwarding table.  The table of a 16-ary fat-tree --
#: the paper's -- holds about 10 000 routes.
DEFAULT_PATH_CACHE_SIZE = 65536


#: One interned forwarding route: the switches a packet visits after the one
#: holding it, ending at the egress switch (the destination host's ToR, which
#: delivers to its attached host without reading the route, or the destination
#: switch).  Shared by every packet that follows it.
Route = Tuple[str, ...]

#: The route of a packet that has none yet, and of one already at its egress.
NO_ROUTE: Route = ()


class Router:
    """Path computation with precomputed topology indexes and a route table.

    :meth:`path` is the reference ECMP walk, a pure function of
    ``(src, dst, flow_key)`` for a fixed topology and link state.  One memo
    sits on it: the **forwarding table** behind :meth:`forwarding_route`,
    which switches consult only when they forward hop by hop.  On the default
    fabric no packet needs a route, only how far what next acts on it is
    (:meth:`distance`; ``Host.send`` prices a plain packet the same way).
    The table's key is what determines the walk in a fault-free tree -- the
    source switch (a ToR's pod: its walk never depends on the rack), the
    egress switch, and the flow-key bits the ECMP picks read -- and a
    cross-pod walk is stored as two segments, the climb to a core (which no
    destination influences) and the core's descent (which no source does),
    so the table is bounded by switches x fan-out, not by host pairs: 768
    routes carry all host traffic on the 8-ary tree, 10 240 on the paper's
    16-ary.

    ``path_cache_size`` bounds the table; ``0`` bypasses it, so every lookup
    is a fresh reference walk (the determinism suites and the benchmark's
    accuracy check compare the two modes byte for byte).  The *wiring* is
    frozen -- if nodes or edges are ever added, build a new ``Router`` --
    but link *liveness* is dynamic: :meth:`fail_link` marks a link dead and
    ECMP choices skip dead links when an alternative exists (local
    link-state rerouting: only the immediate next edge of each choice is
    checked, matching what a real switch knows; a cut with no alternative
    leaves the packet heading into the dead link, where the fabric drops
    it).  NetRS operator failures change which switch *selects*, not how
    packets are wired, so they never touch the table.

    While any link is down, a dead link changes candidate-list lengths, so
    the precomputed ECMP key masks no longer cover all influential bits:
    the forwarding table is emptied and bypassed (reference walks) until
    the last link is restored, when the canonical masked-key universe
    rebuilds.  Fault-free runs are therefore byte-identical to a Router
    without this machinery, which the determinism suites pin.

    Interned routes are shared between callers and must not be mutated.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        path_cache_size: int = DEFAULT_PATH_CACHE_SIZE,
    ) -> None:
        if path_cache_size < 0:
            raise ValueError("path_cache_size must be >= 0")
        self.topology = topology
        self.path_cache_size = path_cache_size
        self._routes: Dict[tuple, Route] = {}
        #: Forwarding-table lookups that had to walk (hits are not counted).
        self.misses = 0
        # Directed pairs (a, b) whose link is administratively dead; both
        # directions are stored so membership tests need no normalization.
        self._failed_links: set = set()
        self._tor_of_host: Dict[str, str] = {}
        self._aggs_by_pod: Dict[int, List[str]] = {}
        self._cores_of_agg: Dict[str, List[str]] = {}
        self._aggs_of_core_pod: Dict[Tuple[str, int], List[str]] = {}
        self._build_indexes()

    def _build_indexes(self) -> None:
        topo = self.topology
        for host in topo.hosts:
            self._tor_of_host[host.name] = topo.tor_of(host.name).name
        for agg in topo.by_kind(NodeKind.AGG):
            assert agg.pod is not None
            self._aggs_by_pod.setdefault(agg.pod, []).append(agg.name)
            cores = sorted(topo.uplinks(agg.name))
            self._cores_of_agg[agg.name] = cores
            for core in cores:
                self._aggs_of_core_pod.setdefault((core, agg.pod), []).append(agg.name)
        # Direct node map and host-name set: the hot path must not pay
        # ``topology.node``'s error handling per hop.
        self._nodes: Dict[str, Node] = topo.nodes
        self._host_names = frozenset(self._tor_of_host)
        # Forwarding-table scope of each switch: (source key, pod).  A ToR's
        # walk depends on its pod only; a core has no pod and only descends.
        self._scope: Dict[str, Tuple[object, Optional[int]]] = {}
        self._tor_pod: Dict[str, int] = {}
        for node in topo.switches:
            if node.kind is NodeKind.TOR:
                assert node.pod is not None
                self._scope[node.name] = (node.pod, node.pod)
                self._tor_pod[node.name] = node.pod
            else:
                self._scope[node.name] = (node.name, node.pod)
        # Switches between hosts of two pods; 0 (walk it) if a core misses a pod.
        cores = {core for core, _ in self._aggs_of_core_pod}
        meshed = len(self._aggs_of_core_pod) == len(cores) * len(self._aggs_by_pod)
        self._cross_pod = 5 if meshed else 0
        # Flow-key bits read by the pick at each ECMP depth; a walk is keyed
        # on the bits of the picks it makes, no others.
        masks = self._compute_ecmp_key_masks()
        self._pod_mask, depth1, self._descent_mask = masks or (0, 0, 0)
        self._climb_mask = self._pod_mask | depth1
        # Whether the forwarding table is in use at all (link faults suspend
        # it; see forwarding_route).
        self._interning = self.path_cache_size > 0 and masks is not None

    def _compute_ecmp_key_masks(self) -> Optional[Tuple[int, int, int]]:
        """Masks of the flow-key bits that can influence any ECMP choice.

        ``_pick`` at depth ``d`` computes ``(flow_key >> 5d) % n``.  When
        every candidate-list length ``n`` a given depth can ever see is a
        power of two (<= 32), that modulo only reads ``log2(n)`` bits of the
        shifted key, so two flow keys agreeing on the masked bits take
        identical paths for every ``(src, dst)``.  The forwarding table then
        keys on the *masked* key, collapsing the per-request flow keys (which
        otherwise never repeat) onto a few equivalence classes per pair.
        Lengths are tracked per depth: in a fat-tree every core reaches a
        pod through exactly one aggregation switch, so the depth-2 descent
        choice is a singleton and contributes no bits at all.  Returns one
        mask per depth (0: the aggregation switch climbed to, 1: the core,
        2: the aggregation switch descended through), or ``None`` (no
        forwarding table) when any length is not a power of two.
        """
        # Candidate-list lengths per _pick depth, matching the call sites in
        # _from_tor/_from_agg/_from_core.
        depth0 = set()  # climb: local aggs, or aggs wired to a target core
        depth1 = set()  # core choice off the chosen agg
        depth2 = set()  # descent agg into the destination pod
        for options in self._aggs_by_pod.values():
            depth0.add(len(options))
        for options in self._aggs_of_core_pod.values():
            depth0.add(len(options))  # climbers toward a core target
            depth2.add(len(options))  # descent into a pod
        for options in self._cores_of_agg.values():
            depth1.add(len(options))
        # The cross-pod aggregation-target branch of _from_tor builds two
        # derived candidate lists (both indexed at depth 1); enumerate their
        # possible lengths too.
        aggs = list(self._cores_of_agg)
        for target in aggs:
            target_cores = set(self._cores_of_agg[target])
            target_pod = self._nodes[target].pod
            for pod, pod_aggs in self._aggs_by_pod.items():
                if pod == target_pod:
                    continue
                shared_counts = [
                    len(target_cores.intersection(self._cores_of_agg[agg]))
                    for agg in pod_aggs
                ]
                depth1.update(n for n in shared_counts if n)
                climbers = sum(1 for n in shared_counts if n)
                if climbers:
                    depth1.add(climbers)
        masks = []
        for shift, lengths in ((0, depth0), (5, depth1), (10, depth2)):
            lengths.discard(0)
            if any(n & (n - 1) or n > 32 for n in lengths):
                return None
            bits = (1 << (max(lengths, default=1).bit_length() - 1)) - 1
            masks.append(bits << shift)
        return tuple(masks)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def tor_of(self, host_name: str) -> str:
        """Name of the ToR a host hangs off (cached)."""
        try:
            return self._tor_of_host[host_name]
        except KeyError:
            raise TopologyError(f"unknown host: {host_name}") from None

    def distance(self, switch: str, target: str) -> Tuple[Optional[str], int]:
        """``target``'s egress switch (a host's ToR, a switch itself), and the
        links from ``switch`` to it.

        With a ToR at either end -- NetRS steers from a ToR to an RSNode and
        from an RSNode to a host -- tiers and pods fix the count: ToR to ToR
        2 within a pod and 4 across, ToR to aggregation switch 1 and 3, ToR
        to core 2; ``len(path(switch, target, key))`` for every ``key``, less
        the host.  0 links when only a walk can tell: ``switch`` itself, no
        ToR at either end, an unknown name, a tree whose core misses a pod.
        """
        egress = self._tor_of_host.get(target, target)
        pods = self._tor_pod
        if switch in pods:
            tor, other = switch, egress
        else:  # an aggregation or core switch, going down
            tor, other = egress, switch
        scope = self._scope.get(other)
        if tor not in pods or scope is None or tor == other:
            return egress, 0
        within = 2 if other in pods else 1
        if scope[1] == pods[tor]:
            return egress, within
        if not self._cross_pod:
            return egress, 0
        return egress, 2 if scope[1] is None else within + 2

    def fail_link(self, a: str, b: str) -> None:
        """Mark the direct link ``a <-> b`` dead for ECMP choices.

        Empties the forwarding table: routes interned before the failure
        may cross the dead link, and nothing is interned while one is down.
        """
        self._failed_links.add((a, b))
        self._failed_links.add((b, a))
        self._routes.clear()

    def restore_link(self, a: str, b: str) -> None:
        """Bring a failed link back (the table refills after the last one)."""
        self._failed_links.discard((a, b))
        self._failed_links.discard((b, a))

    def _live(
        self, from_name: str, options: List[str], to_name: str | None = None
    ) -> List[str]:
        """ECMP candidates whose immediate links are alive.

        Checks the ``from_name -> option`` edge and, when ``to_name`` is
        given, the ``option -> to_name`` edge (the descent step, where the
        chosen switch's link to the final target is also known locally).
        Falls back to the unfiltered list when every candidate is dead --
        the packet then heads into a dead link and the fabric drops it,
        modeling a genuine partition rather than inventing a detour the
        topology does not offer.
        """
        failed = self._failed_links
        if not failed:
            return options
        live = [
            option
            for option in options
            if (from_name, option) not in failed
            and (to_name is None or (option, to_name) not in failed)
        ]
        return live or options

    @property
    def entries(self) -> int:
        """Routes currently interned in the forwarding table."""
        return len(self._routes)

    def forwarding_route(self, src: str, dst: str, flow_key: int) -> Route:
        """The route a packet held by switch ``src`` follows toward ``dst``.

        ``dst`` is a host or a switch; the route ends at its egress switch,
        so ``list(route) + [host]`` equals ``path(src, host, key)``.
        Segments come from the forwarding table (see the class docstring);
        only a cross-pod route, joined from its two segments, is built per
        call.  With the table bypassed (``path_cache_size=0``, a dead link,
        an ECMP fan-out that is not a power of two) every call is a fresh
        reference walk.
        """
        egress = self._tor_of_host.get(dst, dst)
        scope = self._scope.get(src)
        if scope is None or not self._interning or self._failed_links:
            return tuple(self.path(src, egress, flow_key))
        if src == egress:
            return NO_ROUTE
        table = self._routes
        source, pod = scope
        if pod is None:  # a core: only the descent is left
            key = (source, egress, flow_key & self._descent_mask)
            return table.get(key) or self._intern(key, src, egress, flow_key)
        egress_pod = self._tor_pod.get(egress)
        if egress_pod is None:  # toward an aggregation or core switch
            key = (source, egress, flow_key & self._climb_mask)
            return table.get(key) or self._intern(key, src, egress, flow_key)
        if egress_pod == pod:  # up one level and down again: one pick
            key = (source, egress, flow_key & self._pod_mask)
            return table.get(key) or self._intern(key, src, egress, flow_key)
        key = (source, None, flow_key & self._climb_mask)
        climb = table.get(key) or self._intern(key, src, egress, flow_key, -2)
        core = climb[-1]
        key = (core, egress, flow_key & self._descent_mask)
        descent = table.get(key) or self._intern(key, core, egress, flow_key)
        return climb + descent

    def _intern(
        self,
        key: tuple,
        src: str,
        egress: str,
        flow_key: int,
        stop: Optional[int] = None,
    ) -> Route:
        """Walk ``src -> egress``, keep the hops before ``stop``, store them.

        ``stop=-2`` keeps the climb of a cross-pod walk: everything before
        the descent's aggregation switch and the egress ToR.
        """
        route = tuple(self.path(src, egress, flow_key)[:stop])
        self.misses += 1
        table = self._routes
        if len(table) >= self.path_cache_size:
            del table[next(iter(table))]  # oldest first; hits cost nothing
        table[key] = route
        return route

    def path(self, src: str, dst: str, flow_key: int) -> List[str]:
        """Device names a packet visits *after* ``src``, ending at ``dst``.

        The reference ECMP walk, computed afresh on every call.  Raises
        :class:`RoutingError` when no valley-free path exists (e.g.
        aggregation to aggregation in a fat-tree, which NetRS never needs).
        """
        if src == dst:
            return []
        nodes = self._nodes
        src_node = nodes.get(src)
        dst_node = nodes.get(dst)
        if src_node is None or dst_node is None:
            # Cold path: reproduce topology.node's error reporting.
            src_node = self.topology.node(src)
            dst_node = self.topology.node(dst)
        if src_node.kind is NodeKind.HOST:
            tor = self.tor_of(src)
            if tor == dst:
                return [tor]
            return [tor] + self._from_tor(nodes[tor], dst_node, flow_key)
        if src_node.kind is NodeKind.TOR:
            return self._from_tor(src_node, dst_node, flow_key)
        if src_node.kind is NodeKind.AGG:
            return self._from_agg(src_node, dst_node, flow_key)
        return self._from_core(src_node, dst_node, flow_key)

    # ------------------------------------------------------------------
    # Per-source-kind path construction
    # ------------------------------------------------------------------
    def _from_tor(self, tor: Node, dst: Node, flow_key: int) -> List[str]:
        assert tor.pod is not None
        if dst.kind is NodeKind.HOST:
            dst_tor = self.tor_of(dst.name)
            if dst_tor == tor.name:
                return [dst.name]
            return self._from_tor(tor, self._nodes[dst_tor], flow_key) + [dst.name]
        if dst.kind is NodeKind.TOR:
            if dst.pod == tor.pod:
                agg = _pick(
                    self._live(tor.name, self._aggs_by_pod[tor.pod], dst.name),
                    flow_key,
                    0,
                )
                return [agg, dst.name]
            agg_up = _pick(
                self._live(tor.name, self._aggs_by_pod[tor.pod]), flow_key, 0
            )
            core = _pick(
                self._live(agg_up, self._cores_of_agg[agg_up]), flow_key, 1
            )
            assert dst.pod is not None
            agg_down = _pick(
                self._live(core, self._descent_aggs(core, dst.pod), dst.name),
                flow_key,
                2,
            )
            return [agg_up, core, agg_down, dst.name]
        if dst.kind is NodeKind.AGG:
            if dst.pod == tor.pod:
                return [dst.name]
            # Cross-pod aggregation target (responses heading to an RSNode in
            # the client's pod): climb via a local aggregation switch that
            # shares a core with the target.
            target_cores = set(self._cores_of_agg[dst.name])
            candidates = [
                (
                    agg,
                    [
                        c
                        for c in self._live(
                            agg, self._cores_of_agg[agg], dst.name
                        )
                        if c in target_cores
                    ],
                )
                for agg in self._live(tor.name, self._aggs_by_pod[tor.pod])
            ]
            candidates = [(agg, cores) for agg, cores in candidates if cores]
            if not candidates:
                raise RoutingError(
                    f"no core connects pod {tor.pod} to aggregation {dst.name}"
                )
            agg_up, shared_cores = candidates[
                (flow_key >> 5) % len(candidates)
            ]
            core = _pick(shared_cores, flow_key, 1)
            return [agg_up, core, dst.name]
        # Core target: climb via a local aggregation switch wired to it.
        climbers = self._aggs_of_core_pod.get((dst.name, tor.pod), [])
        if not climbers:
            raise RoutingError(f"pod {tor.pod} has no link to core {dst.name}")
        return [_pick(self._live(tor.name, climbers, dst.name), flow_key, 0), dst.name]

    def _from_agg(self, agg: Node, dst: Node, flow_key: int) -> List[str]:
        assert agg.pod is not None
        if dst.kind is NodeKind.HOST:
            dst_tor_name = self.tor_of(dst.name)
            dst_tor = self._nodes[dst_tor_name]
            if dst_tor.pod == agg.pod:
                return [dst_tor_name, dst.name]
            core = _pick(
                self._live(agg.name, self._cores_of_agg[agg.name]), flow_key, 1
            )
            assert dst_tor.pod is not None
            agg_down = _pick(
                self._live(
                    core, self._descent_aggs(core, dst_tor.pod), dst_tor_name
                ),
                flow_key,
                2,
            )
            return [core, agg_down, dst_tor_name, dst.name]
        if dst.kind is NodeKind.TOR:
            if dst.pod == agg.pod:
                return [dst.name]
            core = _pick(
                self._live(agg.name, self._cores_of_agg[agg.name]), flow_key, 1
            )
            assert dst.pod is not None
            agg_down = _pick(
                self._live(core, self._descent_aggs(core, dst.pod), dst.name),
                flow_key,
                2,
            )
            return [core, agg_down, dst.name]
        if dst.kind is NodeKind.CORE:
            if dst.name in self._cores_of_agg[agg.name]:
                return [dst.name]
            raise RoutingError(f"{agg.name} has no direct link to {dst.name}")
        raise RoutingError(
            f"aggregation-to-aggregation routing is not valley-free "
            f"({agg.name} -> {dst.name})"
        )

    def _from_core(self, core: Node, dst: Node, flow_key: int) -> List[str]:
        if dst.kind is NodeKind.HOST:
            dst_tor_name = self.tor_of(dst.name)
            dst_tor = self._nodes[dst_tor_name]
            assert dst_tor.pod is not None
            agg_down = _pick(
                self._live(
                    core.name,
                    self._descent_aggs(core.name, dst_tor.pod),
                    dst_tor_name,
                ),
                flow_key,
                2,
            )
            return [agg_down, dst_tor_name, dst.name]
        if dst.kind is NodeKind.TOR:
            assert dst.pod is not None
            agg_down = _pick(
                self._live(
                    core.name, self._descent_aggs(core.name, dst.pod), dst.name
                ),
                flow_key,
                2,
            )
            return [agg_down, dst.name]
        if dst.kind is NodeKind.AGG:
            assert dst.pod is not None
            if dst.name in self._descent_aggs(core.name, dst.pod):
                return [dst.name]
            raise RoutingError(f"{core.name} has no direct link to {dst.name}")
        raise RoutingError(f"core-to-core routing is undefined ({core.name} -> {dst.name})")

    def _descent_aggs(self, core: str, pod: int) -> List[str]:
        aggs = self._aggs_of_core_pod.get((core, pod), [])
        if not aggs:
            raise RoutingError(f"core {core} has no link into pod {pod}")
        return aggs

    # ------------------------------------------------------------------
    # Hop accounting (used by the placement model's sanity tests)
    # ------------------------------------------------------------------
    def hop_count(self, src: str, dst: str, flow_key: int = 0) -> int:
        """Number of forwardings on the default path from ``src`` to ``dst``.

        Counting matches the paper: every *switch* on the path forwards the
        packet once (intra-rack host-to-host is 1: the ToR forwards once; a
        detour via a core switch makes it 5).
        """
        hosts = self._host_names
        return sum(1 for name in self.path(src, dst, flow_key) if name not in hosts)

"""The RSNode placement problem (paper section III-B).

Gathers everything the solvers need:

* the traffic groups and their per-tier request rates (the matrix ``T``),
* the candidate NetRS operators with their capacities (``T_max``),
* the eligibility matrix ``R`` derived from the topology rules -- a core
  operator is on the default paths of every group; an aggregation operator
  only of groups in its pod; a ToR operator only of its own rack's groups,
* the extra-hops budget ``E``.

Extra-hops accounting implements the paper's Equation (7) with the
coefficient ``2 (h(i,j) - k)``: the paper prints ``+``, but its own worked
example (Tier-2 traffic to a core RSNode costs 4 extra hops) matches ``-``;
tier-``tau`` traffic steered to a tier-``t(j)`` operator detours
``2 (tau - t(j))`` hops (up and back down).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.core.plan import TrafficGroup
from repro.network.addressing import TIER_AGG, TIER_CORE, TIER_TOR
from repro.network.topology import Topology

#: Per-group traffic rates by tier category: (Tier-0, Tier-1, Tier-2) req/s.
TierTraffic = Tuple[float, float, float]


@dataclass(frozen=True, slots=True)
class OperatorSpec:
    """One candidate NetRS operator (a switch + its accelerator)."""

    operator_id: int
    switch: str
    tier: int  # 0 core, 1 aggregation, 2 ToR
    pod: Optional[int]  # None for core switches
    capacity: float  # max request rate this operator may serve (T_max_j)

    def __post_init__(self) -> None:
        if self.operator_id < 1:
            raise ConfigurationError("operator IDs must be positive integers")
        if self.capacity <= 0:
            raise ConfigurationError(f"operator {self.switch} has no capacity")


@dataclass
class PlacementProblem:
    """Inputs of the ILP: groups, operators, traffic, and the hop budget.

    ``shared_accelerators`` implements the paper's section III-B extension:
    when one accelerator is wired to several switches, Equation (6) becomes
    one joint constraint per switch set ``J`` with the shared device's
    capacity ``T_max_J``.  Operators not in any set keep their individual
    capacity.
    """

    groups: List[TrafficGroup]
    operators: List[OperatorSpec]
    traffic: Dict[int, TierTraffic]
    extra_hops_budget: float
    shared_accelerators: Dict[FrozenSet[int], float] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.shared_accelerators is None:
            self.shared_accelerators = {}
        if not self.groups:
            raise ConfigurationError("placement needs at least one group")
        if not self.operators:
            raise ConfigurationError("placement needs at least one operator")
        if self.extra_hops_budget < 0:
            raise ConfigurationError("extra-hops budget must be non-negative")
        missing = [g.group_id for g in self.groups if g.group_id not in self.traffic]
        if missing:
            raise ConfigurationError(f"no traffic data for groups {missing}")
        ids = [op.operator_id for op in self.operators]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("duplicate operator IDs")
        known = set(ids)
        seen: set = set()
        for members, capacity in self.shared_accelerators.items():
            if capacity <= 0:
                raise ConfigurationError("shared-accelerator capacity must be positive")
            if not members:
                raise ConfigurationError("shared-accelerator set is empty")
            unknown = set(members) - known
            if unknown:
                raise ConfigurationError(
                    f"shared-accelerator set references unknown operators {unknown}"
                )
            if seen & set(members):
                raise ConfigurationError(
                    "an operator appears in two shared-accelerator sets"
                )
            seen |= set(members)

    # ------------------------------------------------------------------
    # Matrix R: eligibility (paper's default-network-path rule)
    # ------------------------------------------------------------------
    def eligible(self, group: TrafficGroup, operator: OperatorSpec) -> bool:
        """Whether ``operator`` lies on default paths of ``group``'s requests."""
        if operator.tier == TIER_CORE:
            return True
        if operator.tier == TIER_AGG:
            return operator.pod == group.pod
        if operator.tier == TIER_TOR:
            return operator.switch == group.tor
        raise ConfigurationError(f"operator {operator.switch} has bad tier")

    # ------------------------------------------------------------------
    # Loads and hop costs
    # ------------------------------------------------------------------
    def group_load(self, group_id: int) -> float:
        """Total request rate of a group (Equation 6's left-hand side)."""
        return float(sum(self.traffic[group_id]))

    def total_load(self) -> float:
        """Aggregate request rate over all groups."""
        return sum(self.group_load(g.group_id) for g in self.groups)

    def extra_hops_rate(self, group: TrafficGroup, operator: OperatorSpec) -> float:
        """Extra forwardings per second if ``operator`` serves ``group``.

        Equation (7): ``sum_{k=0}^{h-1} 2 (h - k) T_{i, t(i)-k}`` with
        ``h = t(i) - t(j)``.  Traffic whose tier category is at or above the
        operator's tier passes through that tier anyway and costs nothing.
        """
        h = group.tier - operator.tier
        if h <= 0:
            return 0.0
        tiers = self.traffic[group.group_id]  # (T0, T1, T2)
        cost = 0.0
        for k in range(h):
            tier_category = group.tier - k  # 2, then 1, ...
            cost += 2.0 * (h - k) * tiers[tier_category]
        return cost

    def plan_extra_hops(self, assignments: Dict[int, int]) -> float:
        """Total extra-hop rate of a complete assignment."""
        by_id = {op.operator_id: op for op in self.operators}
        groups = {g.group_id: g for g in self.groups}
        return sum(
            self.extra_hops_rate(groups[gid], by_id[oid])
            for gid, oid in assignments.items()
        )

    def plan_operator_loads(self, assignments: Dict[int, int]) -> Dict[int, float]:
        """Request rate each operator would carry under an assignment."""
        loads: Dict[int, float] = {}
        for gid, oid in assignments.items():
            loads[oid] = loads.get(oid, 0.0) + self.group_load(gid)
        return loads

    def capacity_groups(self) -> List[Tuple[FrozenSet[int], float]]:
        """Capacity constraints as (operator set, joint capacity) pairs.

        Shared-accelerator sets first, then singletons for every operator
        not covered by a set.  Every operator appears in exactly one pair.
        """
        pairs: List[Tuple[FrozenSet[int], float]] = list(
            self.shared_accelerators.items()
        )
        covered = set()
        for members, _capacity in pairs:
            covered |= set(members)
        for op in self.operators:
            if op.operator_id not in covered:
                pairs.append((frozenset({op.operator_id}), op.capacity))
        return pairs

    def capacity_of_operator(self, operator_id: int) -> float:
        """The (possibly shared) capacity constraint covering one operator."""
        for members, capacity in self.shared_accelerators.items():
            if operator_id in members:
                return capacity
        for op in self.operators:
            if op.operator_id == operator_id:
                return op.capacity
        raise ConfigurationError(f"unknown operator {operator_id}")

    # ------------------------------------------------------------------
    # The array view the solvers share
    # ------------------------------------------------------------------
    @cached_property
    def arrays(self) -> "PlacementArrays":
        """Matrix ``R``, the Eq. (7) hop rates, loads and capacity rows.

        Built once, on first use, from ``groups``, ``operators``, ``traffic``
        and ``shared_accelerators``; do not change those afterwards (the hop
        budget is read live).  Matches the scalar :meth:`eligible`,
        :meth:`extra_hops_rate`, :meth:`group_load` and
        :meth:`capacity_groups` value for value.
        """
        return PlacementArrays.build(self)

    def rsnode_lower_bound(self) -> int:
        """A count of RSNodes no feasible plan can go below.

        The fewest capacity groups, largest first, whose capacities reach the
        total load -- ``m`` RSNodes draw on at most ``m`` of them -- raised to
        2 when no single operator is eligible for every group within both its
        capacity and the hop budget.  Both tests allow the slack
        :meth:`check_assignment` allows, so the bound never overshoots.
        """
        arrays = self.arrays
        total = float(arrays.group_loads.sum())
        reach = np.cumsum(np.sort(_slack(arrays.capacities))[::-1])
        bound = int(np.searchsorted(reach, total)) + 1
        if bound < 2:
            serves_all = (
                arrays.eligible.all(axis=0)
                & (total <= _slack(arrays.capacities[arrays.capacity_row]))
                & (arrays.hops.sum(axis=0) <= _slack(self.extra_hops_budget))
            )
            if not serves_all.any():
                bound = 2
        return bound

    def check_assignment(self, assignments: Dict[int, int]) -> None:
        """Validate a complete assignment against all constraints."""
        arrays = self.arrays
        for gid, oid in assignments.items():
            if oid not in arrays.operator_index:
                raise ConfigurationError(f"assignment uses unknown operator {oid}")
            if gid not in arrays.group_index:
                raise ConfigurationError(f"assignment of unknown group {gid}")
        gi = np.array([arrays.group_index[g] for g in assignments], dtype=np.intp)
        oj = np.array(
            [arrays.operator_index[o] for o in assignments.values()], dtype=np.intp
        )
        ineligible = np.flatnonzero(~arrays.eligible[gi, oj])
        if ineligible.size:
            k = ineligible[0]
            raise ConfigurationError(
                f"group {self.groups[gi[k]].group_id} assigned to ineligible "
                f"operator {self.operators[oj[k]].operator_id}"
            )
        joint = np.bincount(
            arrays.capacity_row[oj],
            weights=arrays.group_loads[gi],
            minlength=arrays.capacities.size,
        )
        overloaded = np.flatnonzero(joint > _slack(arrays.capacities))
        if overloaded.size:
            row = overloaded[0]
            members, capacity = self.capacity_groups()[row]
            raise ConfigurationError(
                f"accelerator serving operators {sorted(members)} "
                f"overloaded: {joint[row]:.1f} > {capacity:.1f} req/s"
            )
        extra = float(arrays.hops[gi, oj].sum())
        if extra > _slack(self.extra_hops_budget):
            raise ConfigurationError(
                f"extra-hop budget exceeded: {extra:.1f} > "
                f"{self.extra_hops_budget:.1f} hops/s"
            )


def _slack(limit):
    """A capacity or budget with the tolerance every feasibility test allows."""
    return limit * (1 + 1e-9) + 1e-6


@dataclass(frozen=True, eq=False)
class PlacementArrays:
    """A :class:`PlacementProblem` as arrays, in its groups' and operators' order.

    *Pairs* are the eligible (group, operator) entries of ``R`` in group-major
    order -- the ILP's ``P`` variables; the pairs of group ``i`` are
    ``group_start[i]:group_start[i + 1]``, in operator order.
    """

    group_index: Dict[int, int]  # group ID -> row
    operator_index: Dict[int, int]  # operator ID -> column
    eligible: np.ndarray  # (groups, operators) bool: matrix R
    hops: np.ndarray  # (groups, operators) Eq. (7) extra-hop rate
    pair_group: np.ndarray  # (pairs,) group row
    pair_operator: np.ndarray  # (pairs,) operator column
    pair_hops: np.ndarray  # (pairs,) extra-hop rate
    group_start: np.ndarray  # (groups + 1,) offsets into the pairs
    group_loads: np.ndarray  # (groups,) Eq. (6) left-hand-side weight
    capacity_row: np.ndarray  # (operators,) index into capacity_groups()
    capacities: np.ndarray  # (capacity groups,) T_max per constraint

    @classmethod
    def build(cls, problem: PlacementProblem) -> "PlacementArrays":
        groups, operators = problem.groups, problem.operators
        bad = [op.switch for op in operators if op.tier not in _TIERS]
        if bad:
            raise ConfigurationError(f"operator {bad[0]} has bad tier")
        operator_index = {op.operator_id: j for j, op in enumerate(operators)}
        tier = np.array([op.tier for op in operators])
        # Pods and switches as integers; -1 (no pod) matches no group.
        op_pod = np.array([-1 if op.pod is None else op.pod for op in operators])
        switch_code = {op.switch: j for j, op in enumerate(operators)}
        op_switch = np.array([switch_code[op.switch] for op in operators])
        group_pod = np.array([g.pod for g in groups])
        group_tor = np.array([switch_code.get(g.tor, -1) for g in groups])
        eligible = (
            (tier == TIER_CORE)
            | ((tier == TIER_AGG) & (op_pod == group_pod[:, None]))
            | ((tier == TIER_TOR) & (op_switch == group_tor[:, None]))
        )
        # (T0, T1, T2) rows; every group's ToR sits at tier TIER_TOR.
        traffic = np.array(
            [problem.traffic[g.group_id] for g in groups], dtype=float
        ).reshape(len(groups), 3)
        by_tier = np.zeros((len(groups), len(_TIERS)))
        for operator_tier in _TIERS:  # Eq. (7), summed as extra_hops_rate does
            h = TIER_TOR - operator_tier
            for k in range(h):
                by_tier[:, operator_tier] += 2.0 * (h - k) * traffic[:, TIER_TOR - k]
        hops = by_tier[:, tier]
        pair_group, pair_operator = np.nonzero(eligible)
        capacity_row = np.empty(len(operators), dtype=np.intp)
        capacity_groups = problem.capacity_groups()
        for row, (members, _capacity) in enumerate(capacity_groups):
            capacity_row[[operator_index[oid] for oid in members]] = row
        return cls(
            group_index={g.group_id: i for i, g in enumerate(groups)},
            operator_index=operator_index,
            eligible=eligible,
            hops=hops,
            pair_group=pair_group,
            pair_operator=pair_operator,
            pair_hops=hops[eligible],
            group_start=np.concatenate(([0], np.cumsum(eligible.sum(axis=1)))),
            group_loads=0.0 + traffic[:, 0] + traffic[:, 1] + traffic[:, 2],
            capacity_row=capacity_row,
            capacities=np.array([c for _m, c in capacity_groups], dtype=float),
        )


_TIERS = (TIER_CORE, TIER_AGG, TIER_TOR)


def build_operator_specs(
    topology: Topology,
    *,
    accelerator_cores: int,
    accelerator_service_time: float,
    max_utilization: float,
    work_per_request: float = 2.0,
    first_id: int = 1,
    utilization_overrides: Optional[Mapping[str, float]] = None,
) -> List[OperatorSpec]:
    """One candidate operator per switch, with capacity ``U c / t_ac``.

    ``work_per_request`` accounts for the accelerator touching each request
    *and* the clone of its response (2 packets per served request); the
    capacity in requests/second is scaled down accordingly.

    ``utilization_overrides`` maps switch names to a different utilization
    cap ``U_j`` -- the paper's mechanism for heterogeneous deployments where
    some accelerators are shared with other applications (lower cap) or
    dedicated (higher cap).
    """
    if not 0 < max_utilization <= 1:
        raise ConfigurationError("max_utilization must be in (0, 1]")
    if work_per_request <= 0:
        raise ConfigurationError("work_per_request must be positive")
    overrides = dict(utilization_overrides or {})
    known = {node.name for node in topology.switches}
    unknown = set(overrides) - known
    if unknown:
        raise ConfigurationError(f"utilization overrides for unknown switches {unknown}")
    specs: List[OperatorSpec] = []
    next_id = first_id
    for node in topology.switches:
        utilization = overrides.get(node.name, max_utilization)
        if not 0 < utilization <= 1:
            raise ConfigurationError(
                f"override for {node.name} must be in (0, 1], got {utilization}"
            )
        packet_rate = utilization * accelerator_cores / accelerator_service_time
        specs.append(
            OperatorSpec(
                operator_id=next_id,
                switch=node.name,
                tier=node.tier,
                pod=node.pod,
                capacity=packet_rate / work_per_request,
            )
        )
        next_id += 1
    return specs


def estimate_traffic(
    groups: Sequence[TrafficGroup],
    *,
    topology: Topology,
    server_hosts: Sequence[str],
    group_rates: Dict[int, float],
) -> Dict[int, TierTraffic]:
    """Bootstrap traffic matrix before any monitor data exists.

    Load-based selection spreads requests ~uniformly over servers, so each
    group's tier mix follows the fraction of servers in its rack / pod /
    elsewhere.
    """
    if not server_hosts:
        raise ConfigurationError("need at least one server host")
    locations = [topology.node(h) for h in server_hosts]
    total = len(locations)
    traffic: Dict[int, TierTraffic] = {}
    for group in groups:
        same_rack = sum(
            1 for n in locations if n.pod == group.pod and n.rack == group.rack
        )
        same_pod = (
            sum(1 for n in locations if n.pod == group.pod) - same_rack
        )
        other = total - same_rack - same_pod
        rate = group_rates.get(group.group_id, 0.0)
        traffic[group.group_id] = (
            rate * other / total,
            rate * same_pod / total,
            rate * same_rack / total,
        )
    return traffic

"""Traffic groups and the Replica Selection Plan (paper section III-A).

NetRS divides requests into **traffic groups** and assigns each group's
replica selection to one NetRS operator.  Granularities (the paper considers
host-level up to rack-level; request-level is explicitly ruled out):

* ``"host"``  -- each client host is its own group,
* ``"rack"``  -- all client hosts under one ToR form a group,
* an integer ``m`` -- intervening level: up to ``m`` hosts of the same rack
  per group.

The :class:`SelectionPlan` (RSP) maps every group to the operator that acts
as its RSNode, or marks it *degraded* (DRS: the client's backup replica is
used, section III-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.network.addressing import TIER_TOR
from repro.network.topology import Topology

Granularity = Union[str, int]


@dataclass(frozen=True, slots=True)
class TrafficGroup:
    """Requests from a set of co-racked client hosts."""

    group_id: int
    tor: str  # name of the ToR these hosts hang off
    pod: int
    rack: int
    hosts: Tuple[str, ...]

    @property
    def tier(self) -> int:
        """Paper's ``t(g)``: the tier of the ToR the group connects to."""
        return TIER_TOR

    def __post_init__(self) -> None:
        if not self.hosts:
            raise ConfigurationError(f"traffic group {self.group_id} has no hosts")


@dataclass(slots=True)
class SelectionPlan:
    """One Replica Selection Plan: group -> RSNode operator assignments."""

    assignments: Dict[int, int] = field(default_factory=dict)
    drs_groups: FrozenSet[int] = frozenset()
    solver: str = ""
    objective: float = 0.0
    solve_time: float = 0.0
    #: How ``solve_ilp`` showed the RSNode count minimal: ``"bound"`` (the
    #: greedy plan meets the problem's lower bound) or ``"milp"`` (HiGHS);
    #: empty for the heuristics.
    proof: str = ""
    #: Branch-and-bound nodes HiGHS explored (deterministic for one model);
    #: 0 when HiGHS did not run.
    mip_node_count: int = 0

    @property
    def rsnode_ids(self) -> Tuple[int, ...]:
        """Operator IDs that act as RSNodes under this plan."""
        return tuple(sorted(set(self.assignments.values())))

    @property
    def rsnode_count(self) -> int:
        """Number of distinct RSNodes (the ILP objective)."""
        return len(set(self.assignments.values()))

    def operator_of(self, group_id: int) -> int:
        """RSNode operator for a group (raises if the group is degraded)."""
        if group_id in self.drs_groups:
            raise ConfigurationError(f"group {group_id} is degraded (DRS)")
        try:
            return self.assignments[group_id]
        except KeyError:
            raise ConfigurationError(f"group {group_id} is not in the plan") from None

    def groups_of(self, operator_id: int) -> Tuple[int, ...]:
        """All groups whose RSNode is ``operator_id``."""
        return tuple(
            sorted(g for g, o in self.assignments.items() if o == operator_id)
        )

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"RSP[{self.solver}]: {self.rsnode_count} RSNodes for "
            f"{len(self.assignments)} groups"
            + (f", {len(self.drs_groups)} degraded" if self.drs_groups else "")
        )


def hosts_per_group(granularity: Granularity) -> Optional[int]:
    """How many hosts of one rack share a traffic group (``None``: all).

    ``"rack"`` -> ``None``, ``"host"`` -> 1, an integer ``m >= 1`` -> ``m``.
    Anything else -- another string such as ``"2"``, a ``bool``, ``m < 1``
    -- raises :class:`ConfigurationError`; ``ExperimentConfig.validate``
    applies this same rule, so a bad value never reaches a build.
    """
    if granularity == "rack":
        return None
    if granularity == "host":
        return 1
    if isinstance(granularity, int) and not isinstance(granularity, bool):
        if granularity >= 1:
            return granularity
    raise ConfigurationError(
        "group_granularity must be 'rack', 'host' or an integer >= 1, "
        f"got {granularity!r}"
    )


def make_traffic_groups(
    topology: Topology,
    client_hosts: Sequence[str],
    granularity: Granularity = "rack",
) -> List[TrafficGroup]:
    """Partition client hosts into traffic groups.

    Hosts are grouped by rack first; ``granularity`` then controls how many
    hosts of one rack share a group.  Group IDs start at 1 and are assigned
    in deterministic (rack, host) order.
    """
    per_group = hosts_per_group(granularity)

    by_rack: Dict[str, List[str]] = {}
    for host in client_hosts:
        tor = topology.tor_of(host)
        by_rack.setdefault(tor.name, []).append(host)

    groups: List[TrafficGroup] = []
    next_id = 1
    for tor_name in sorted(by_rack):
        tor = topology.node(tor_name)
        assert tor.pod is not None and tor.rack is not None
        hosts = sorted(by_rack[tor_name])
        chunk = per_group if per_group is not None else len(hosts)
        for start in range(0, len(hosts), chunk):
            groups.append(
                TrafficGroup(
                    group_id=next_id,
                    tor=tor_name,
                    pod=tor.pod,
                    rack=tor.rack,
                    hosts=tuple(hosts[start : start + chunk]),
                )
            )
            next_id += 1
    return groups

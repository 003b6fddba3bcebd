"""The NetRS controller (paper section III).

The controller is the centralized SDN-side brain: it

* turns monitor statistics (or a bootstrap estimate) into a
  :class:`~repro.core.placement.problem.PlacementProblem`,
* solves it with the configured backend (ILP / greedy / ToR / core-only),
* degrades traffic groups (DRS) when no feasible plan exists -- highest
  traffic first, per section III-C -- and retries,
* deploys the resulting Replica Selection Plan by rewriting NetRS rules on
  every switch and (de)activating operators,
* optionally re-plans periodically from fresh monitor data, and
* handles exceptions: operator overload and operator failure flip the
  affected groups to DRS.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.core.monitor import NetRSMonitor
from repro.core.operator_node import NetRSOperator
from repro.core.placement import SOLVERS
from repro.core.placement.problem import PlacementProblem, TierTraffic
from repro.core.plan import SelectionPlan, TrafficGroup
from repro.core.selector_node import NetRSSelector
from repro.errors import ConfigurationError, InfeasiblePlanError, PlacementError
from repro.network.packet import RSNODE_ILLEGAL
from repro.network.switch import ProgrammableSwitch
from repro.selection.base import ReplicaSelector
from repro.sim.core import Environment

#: Builds a fresh selection algorithm for a newly activated RSNode; receives
#: the number of RSNodes in the plan (C3's concurrency weight).
AlgorithmFactory = Callable[[int], ReplicaSelector]


class NetRSController:
    """Centralized controller generating and deploying RSPs."""

    def __init__(
        self,
        env: Environment,
        *,
        groups: Sequence[TrafficGroup],
        operators: Dict[int, NetRSOperator],
        tor_switches: Dict[str, ProgrammableSwitch],
        all_switches: Sequence[ProgrammableSwitch],
        monitors: Dict[str, NetRSMonitor],
        algorithm_factory: AlgorithmFactory,
        selector_ring,
        extra_hops_budget: float,
        solver: str = "ilp",
    ) -> None:
        if solver not in SOLVERS:
            raise ConfigurationError(
                f"unknown solver {solver!r}; available: {', '.join(sorted(SOLVERS))}"
            )
        self.env = env
        self.groups = list(groups)
        self.groups_by_id = {g.group_id: g for g in self.groups}
        self.operators = dict(operators)
        self.tor_switches = dict(tor_switches)
        self.all_switches = list(all_switches)
        self.monitors = dict(monitors)
        self.algorithm_factory = algorithm_factory
        self.selector_ring = selector_ring
        self.extra_hops_budget = extra_hops_budget
        self.solver = solver
        self.current_plan: Optional[SelectionPlan] = None
        self.directory: Dict[int, str] = {
            op_id: op.spec.switch for op_id, op in self.operators.items()
        }
        self.deployments = 0
        self.replans = 0
        self.failures_handled = 0
        self.overloads_handled = 0
        self._group_table_installed = False

    # ------------------------------------------------------------------
    # Static rules
    # ------------------------------------------------------------------
    def install_group_tables(self) -> None:
        """Install host -> traffic-group match rules on every client ToR."""
        for group in self.groups:
            tor = self._tor_for(group)
            for host in group.hosts:
                tor.install_group_rule(host, group.group_id)
        self._group_table_installed = True

    def _tor_for(self, group: TrafficGroup) -> ProgrammableSwitch:
        try:
            return self.tor_switches[group.tor]
        except KeyError:
            raise ConfigurationError(
                f"no ToR switch registered for {group.tor}"
            ) from None

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def build_problem(self, traffic: Dict[int, TierTraffic]) -> PlacementProblem:
        """Assemble the placement problem from a traffic matrix."""
        return PlacementProblem(
            groups=self.groups,
            operators=[op.spec for op in self.operators.values()],
            traffic=traffic,
            extra_hops_budget=self.extra_hops_budget,
        )

    def plan(self, traffic: Dict[int, TierTraffic]) -> SelectionPlan:
        """Solve for an RSP, degrading highest-traffic groups if needed."""
        solve = SOLVERS[self.solver]
        degraded: List[int] = []
        groups = list(self.groups)
        while True:
            if not groups:
                # Everything degraded: clients' backup replicas serve all
                # traffic.  Extreme, but better than no plan at all.
                return SelectionPlan(
                    assignments={},
                    drs_groups=frozenset(degraded),
                    solver=self.solver,
                )
            problem = PlacementProblem(
                groups=groups,
                operators=[op.spec for op in self.operators.values()],
                traffic=traffic,
                extra_hops_budget=self.extra_hops_budget,
            )
            try:
                plan = solve(problem)
            except InfeasiblePlanError:
                # Section III-C: degrade the highest-traffic group and retry
                # (high-demand clients have the freshest local state, so they
                # suffer least from selecting replicas themselves).
                groups = sorted(
                    groups,
                    key=lambda g: sum(traffic.get(g.group_id, (0.0, 0.0, 0.0))),
                    reverse=True,
                )
                victim = groups.pop(0)
                degraded.append(victim.group_id)
                continue
            plan.drs_groups = frozenset(degraded)
            return plan

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def deploy(self, plan: SelectionPlan) -> None:
        """Push an RSP into the data plane."""
        if not self._group_table_installed:
            self.install_group_tables()
        active_ids = set(plan.assignments.values())
        n_rsnodes = max(1, len(active_ids))
        # Directory first, so forwarding toward any RSNode resolves.
        for switch in self.all_switches:
            switch.set_directory(self.directory)
        # (De)activate operators.  Newly activated RSNodes start cold.
        for op_id, operator in self.operators.items():
            if op_id in active_ids:
                if not operator.active:
                    algorithm = self.algorithm_factory(n_rsnodes)
                    selector = NetRSSelector(
                        self.env, algorithm=algorithm, ring=self.selector_ring
                    )
                    operator.activate(selector, self.directory)
                else:
                    # Keep warm state; refresh the herd-extrapolation weight.
                    algorithm = operator.selector.algorithm  # type: ignore[union-attr]
                    if hasattr(algorithm, "concurrency_weight"):
                        algorithm.concurrency_weight = n_rsnodes
            elif operator.active:
                operator.deactivate()
        # RSNode-stamping rules on the client ToRs.
        for group in self.groups:
            tor = self._tor_for(group)
            if group.group_id in plan.drs_groups:
                tor.install_rsnode_rule(group.group_id, RSNODE_ILLEGAL)
            else:
                tor.install_rsnode_rule(
                    group.group_id, plan.operator_of(group.group_id)
                )
        self.current_plan = plan
        self.deployments += 1

    def plan_and_deploy(self, traffic: Dict[int, TierTraffic]) -> SelectionPlan:
        """Convenience: solve then deploy."""
        plan = self.plan(traffic)
        self.deploy(plan)
        return plan

    # ------------------------------------------------------------------
    # Periodic re-planning from monitor data
    # ------------------------------------------------------------------
    def measured_traffic(self) -> Dict[int, TierTraffic]:
        """Merge all monitors' window rates into one traffic matrix."""
        traffic: Dict[int, TierTraffic] = {
            g.group_id: (0.0, 0.0, 0.0) for g in self.groups
        }
        for monitor in self.monitors.values():
            for group_id, rates in monitor.rates().items():
                if group_id in traffic:
                    old = traffic[group_id]
                    traffic[group_id] = (
                        old[0] + rates[0],
                        old[1] + rates[1],
                        old[2] + rates[2],
                    )
        return traffic

    def start_replanning(self, period: float) -> None:
        """Begin periodic replan-from-monitors cycles."""
        if period <= 0:
            raise ConfigurationError("replan period must be positive")
        self.env.call_in(period, self._replan_tick, period)

    def _replan_tick(self, period: float) -> None:
        traffic = self.measured_traffic()
        for monitor in self.monitors.values():
            monitor.reset()
        if any(sum(rates) > 0 for rates in traffic.values()):
            try:
                self.plan_and_deploy(traffic)
                self.replans += 1
            except PlacementError:
                # Keep the previous plan; better a stale RSP than none.
                pass
        self.env.call_in(period, self._replan_tick, period)

    # ------------------------------------------------------------------
    # Exception handling (section III-C)
    # ------------------------------------------------------------------
    def degrade_groups(self, group_ids: Sequence[int]) -> None:
        """Flip the given groups to Degraded Replica Selection."""
        for group_id in group_ids:
            group = self.groups_by_id.get(group_id)
            if group is None:
                raise ConfigurationError(f"unknown group {group_id}")
            self._tor_for(group).install_rsnode_rule(group_id, RSNODE_ILLEGAL)
        if self.current_plan is not None:
            self.current_plan.drs_groups = self.current_plan.drs_groups.union(
                group_ids
            )

    def handle_operator_failure(self, operator_id: int) -> None:
        """An RSNode died: degrade its groups so clients' backups serve them."""
        operator = self._operator(operator_id)
        operator.switch.fail()
        self.failures_handled += 1
        self._degrade_assigned(operator_id)

    def recover_operator(self, operator_id: int) -> None:
        """Bring a failed operator back into the candidate pool."""
        self._operator(operator_id).switch.recover()

    def check_overloads(self, max_utilization: float) -> List[int]:
        """Degrade groups of any active operator above ``max_utilization``.

        Returns the IDs of operators found overloaded.
        """
        overloaded = []
        for op_id, operator in self.operators.items():
            if operator.active and operator.utilization() > max_utilization:
                overloaded.append(op_id)
                self.overloads_handled += 1
                self._degrade_assigned(op_id)
        return overloaded

    def _degrade_assigned(self, operator_id: int) -> None:
        if self.current_plan is None:
            return
        assigned = self.current_plan.groups_of(operator_id)
        if assigned:
            self.degrade_groups(assigned)

    def _operator(self, operator_id: int) -> NetRSOperator:
        try:
            return self.operators[operator_id]
        except KeyError:
            raise ConfigurationError(f"unknown operator {operator_id}") from None

"""The fault injector: replay a :class:`FaultSchedule` against a scenario.

The injector composes with the event engine rather than wrapping it: each
scheduled fault becomes one ordinary ``post_at`` callback on the run's clock,
so injection interleaves deterministically with workload traffic (the clock
breaks time ties by insertion order) and a run with a schedule is exactly as
reproducible as one without.  Both tiers drive it: the packet tier on its
:class:`~repro.sim.core.Environment` and :class:`~repro.network.fabric.Network`,
the flow tier on its :class:`~repro.mesoscale.flow.FlowEngine`, which is its
own clock and its own fabric.  Whatever is passed as ``network`` resolves
``tor(...)`` and literal names (``tor_of``, ``has_node``); the packet tier's
also says which node pairs share a link (``has_link``) and takes the link
transitions (the flow engine runs server faults only).

Construction resolves every symbolic target (``server#i``, ``client#i``,
``tor(...)``, operator ``busiest``) against the built scenario immediately,
and checks that every link event names a link, so a typo in a schedule fails
fast with a :class:`~repro.errors.ConfigurationError` instead of mid-run.

Besides applying faults, the injector is the bookkeeper for the
failure-aware metrics: it counts injected events and integrates per-target
unavailability windows (time a server or link spent down), which
``run_experiment`` surfaces on the result (see ``docs/FAULTS.md``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.faults.events import (
    FaultEvent,
    LinkDegrade,
    LinkDown,
    LinkUp,
    NodeJoin,
    NodeLeave,
    RSNodeDown,
    RSNodeUp,
    ServerDown,
    ServerUp,
)
from repro.faults.schedule import FaultSchedule

if TYPE_CHECKING:  # structural deps only; avoids import cycles
    from repro.core.controller import NetRSController
    from repro.kvstore.server import KVServer
    from repro.network.fabric import Network
    from repro.sim.core import Environment


class FaultInjector:
    """Arms a schedule's events on the simulation clock and applies them."""

    __slots__ = (
        "env",
        "schedule",
        "network",
        "servers",
        "server_hosts",
        "client_hosts",
        "controller",
        "_resolved",
        "_armed",
        "churn",
        "_down_since",
        "_closed_downtime",
        "faults_injected",
        "churn_applied",
    )

    def __init__(
        self,
        env: "Environment",
        schedule: FaultSchedule,
        *,
        network: "Network",
        servers: Dict[str, "KVServer"],
        server_hosts: Sequence[str] = (),
        client_hosts: Sequence[str] = (),
        controller: Optional["NetRSController"] = None,
        churn=None,
    ) -> None:
        self.env = env
        self.schedule = schedule
        self.network = network
        self.servers = servers
        self.server_hosts = tuple(server_hosts)
        self.client_hosts = tuple(client_hosts)
        self.controller = controller
        self.churn = churn
        # target key ("server:x" / "link:a/b" / "rsnode:i") -> went down at
        self._down_since: Dict[str, float] = {}
        self._closed_downtime = 0.0
        self.faults_injected = 0
        self.churn_applied = 0
        self._armed = False
        self._resolved: List[FaultEvent] = [
            self._resolve(event) for event in schedule.events
        ]
        if self.churn is not None:
            # Static replay: leave-of-inactive, join-of-active, and ring
            # underflow (active < replication_factor) fail at build time.
            self.churn.preflight(
                event
                for event in self._resolved
                if isinstance(event, (NodeJoin, NodeLeave))
            )

    # ------------------------------------------------------------------
    # Target resolution
    # ------------------------------------------------------------------
    def _resolve(self, event: FaultEvent) -> FaultEvent:
        if isinstance(event, (ServerDown, ServerUp, NodeJoin, NodeLeave)):
            name = self._resolve_node(event.server)
            if name not in self.servers:
                raise ConfigurationError(
                    f"fault target {event.server!r} resolves to {name!r}, "
                    f"which runs no key-value server"
                )
            if isinstance(event, (NodeJoin, NodeLeave)) and self.churn is None:
                raise ConfigurationError(
                    "node-join/node-leave events need a churn coordinator; "
                    "set churn_schedule (not fault_schedule) so the scenario "
                    "builds one -- see docs/CONSISTENCY.md"
                )
            return type(event)(event.at, name)
        if isinstance(event, (LinkDown, LinkUp, LinkDegrade)):
            a = self._resolve_node(event.a)
            b = self._resolve_node(event.b)
            if not self.network.has_link(a, b):
                raise ConfigurationError(
                    f"link fault {event.a}/{event.b} resolves to {a} <-> {b}, "
                    "which share no link"
                )
            if isinstance(event, LinkDegrade):
                return LinkDegrade(event.at, a, b, event.factor)
            return type(event)(event.at, a, b)
        # RSNode events
        return type(event)(event.at, self._resolve_operator(event.operator))

    def _resolve_node(self, ref: str) -> str:
        """Turn a symbolic node reference into a literal topology name."""
        ref = ref.strip()
        if ref.startswith("tor(") and ref.endswith(")"):
            inner = self._resolve_node(ref[4:-1])
            return self.network.tor_of(inner)
        for prefix, pool in (
            ("server#", self.server_hosts),
            ("client#", self.client_hosts),
        ):
            if ref.startswith(prefix):
                index_text = ref[len(prefix):]
                try:
                    index = int(index_text)
                except ValueError:
                    raise ConfigurationError(
                        f"bad fault target index in {ref!r}"
                    ) from None
                if not 0 <= index < len(pool):
                    raise ConfigurationError(
                        f"fault target {ref!r} out of range "
                        f"(have {len(pool)} such hosts)"
                    )
                return pool[index]
        if not self.network.has_node(ref):
            raise ConfigurationError(
                f"fault target {ref!r} is not a topology node (use a literal "
                f"name, 'server#i', 'client#i', or 'tor(...)')"
            )
        return ref

    def _resolve_operator(self, ref: Union[int, str]) -> int:
        if self.controller is None:
            raise ConfigurationError(
                "rsnode faults need a NetRS scheme (no controller in this "
                "scenario)"
            )
        if ref == "busiest":
            plan = self.controller.current_plan
            if plan is None or not plan.rsnode_ids:
                raise ConfigurationError(
                    "cannot resolve 'busiest': no plan is deployed"
                )
            return max(
                sorted(plan.rsnode_ids),
                key=lambda oid: len(plan.groups_of(oid)),
            )
        operator_id = int(ref)
        if operator_id not in self.controller.operators:
            raise ConfigurationError(f"unknown operator {operator_id}")
        return operator_id

    # ------------------------------------------------------------------
    # Arming & applying
    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Schedule every event on the simulation clock (idempotent).

        Nothing cancels a transition: one still pending when the run ends
        simply never fires.
        """
        if self._armed:
            return
        self._armed = True
        for event in self._resolved:
            self.env.post_at(event.at, self._apply, (event,))

    def _apply(self, event: FaultEvent) -> None:
        now = self.env.now
        if isinstance(event, (NodeJoin, NodeLeave)):
            # Graceful churn: counted separately from faults and exempt
            # from unavailability windows (the host never goes dark).
            self.churn_applied += 1
            if isinstance(event, NodeLeave):
                self.churn.leave(event.server)
            else:
                self.churn.join(event.server)
            return
        self.faults_injected += 1
        if isinstance(event, ServerDown):
            server = self.servers[event.server]
            if not server.down:
                server.fail()
                self._open_window(f"server:{event.server}", now)
        elif isinstance(event, ServerUp):
            server = self.servers[event.server]
            if server.down:
                server.recover()
                self._close_window(f"server:{event.server}", now)
        elif isinstance(event, LinkDown):
            self.network.fail_link(event.a, event.b)
            self._open_window(self._link_key(event.a, event.b), now)
        elif isinstance(event, LinkUp):
            self.network.restore_link(event.a, event.b)
            self._close_window(self._link_key(event.a, event.b), now)
        elif isinstance(event, LinkDegrade):
            self.network.degrade_link(event.a, event.b, event.factor)
        elif isinstance(event, RSNodeDown):
            assert self.controller is not None
            self.controller.handle_operator_failure(event.operator)
            self._open_window(f"rsnode:{event.operator}", now)
        else:  # RSNodeUp
            assert self.controller is not None
            self.controller.recover_operator(event.operator)
            self._close_window(f"rsnode:{event.operator}", now)

    # ------------------------------------------------------------------
    # Unavailability accounting
    # ------------------------------------------------------------------
    @staticmethod
    def _link_key(a: str, b: str) -> str:
        lo, hi = (a, b) if a <= b else (b, a)
        return f"link:{lo}/{hi}"

    def _open_window(self, key: str, now: float) -> None:
        self._down_since.setdefault(key, now)

    def _close_window(self, key: str, now: float) -> None:
        started = self._down_since.pop(key, None)
        if started is not None:
            self._closed_downtime += now - started

    def unavailability(self, now: Optional[float] = None) -> float:
        """Total target-seconds of downtime, including still-open windows.

        Summed over all targets: two servers down for 50 ms each count
        0.1 s.  ``now`` defaults to the current simulation time.
        """
        if now is None:
            now = self.env.now
        open_windows = sum(now - started for started in self._down_since.values())
        return self._closed_downtime + open_windows

    def open_faults(self) -> Tuple[str, ...]:
        """Targets currently down, in deterministic (sorted) order."""
        return tuple(sorted(self._down_since))

"""Fault schedules: ordered, deterministic timelines of fault events.

A :class:`FaultSchedule` is built three ways:

* **programmatically** -- chain the builder methods::

      schedule = (
          FaultSchedule()
          .server_down(0.05, "server#0")
          .server_up(0.10, "server#0")
      )

* **from a spec string** (the ``ExperimentConfig.fault_schedule`` knob and
  the CLI's ``--faults`` flag)::

      server-down@0.05:server#0; server-up@0.10:server#0

  Grammar: events separated by ``;``, each ``kind@time:target``.  Kinds are
  ``server-down``, ``server-up``, ``link-down``, ``link-up``,
  ``link-degrade``, ``rsnode-down``, ``rsnode-up``, plus the graceful-churn
  kinds ``node-join`` / ``node-leave`` (legal only in the separate
  ``churn_schedule`` knob; see ``docs/CONSISTENCY.md``).  Link targets name both
  endpoints as ``a/b`` (``link-degrade`` appends ``*factor``); RSNode
  targets are an operator ID or ``busiest``.  Whitespace around tokens is
  ignored.

* **randomly but reproducibly** -- :meth:`FaultSchedule.random_server_crashes`
  draws crash times and victims from a named ``repro.sim.rng`` stream, so a
  "random" fault workload is still a pure function of the experiment seed.

Events are replayed in ``(time, insertion order)`` order, which keeps
injection deterministic even when several faults share a timestamp.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.faults.events import (
    CHURN_EVENT_TYPES,
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

#: Spec keyword -> event class, for the parser and ``describe``.
_KINDS = {
    "server-down": ServerDown,
    "server-up": ServerUp,
    "link-down": LinkDown,
    "link-up": LinkUp,
    "link-degrade": LinkDegrade,
    "rsnode-down": RSNodeDown,
    "rsnode-up": RSNodeUp,
    "node-join": NodeJoin,
    "node-leave": NodeLeave,
}
_KIND_NAMES = {cls: name for name, cls in _KINDS.items()}


class FaultSchedule:
    """An ordered collection of :class:`~repro.faults.events.FaultEvent`."""

    __slots__ = ("_events",)

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        self._events: List[FaultEvent] = list(events)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def events(self) -> Tuple[FaultEvent, ...]:
        """Events in replay order: by time, insertion order breaking ties."""
        order = sorted(range(len(self._events)), key=lambda i: (self._events[i].at, i))
        return tuple(self._events[i] for i in order)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self.events)

    def requires_timeouts(self) -> bool:
        """Whether this schedule can strand in-flight requests.

        Server crashes and link cuts silently swallow packets, so a run
        injecting them needs client request timeouts to terminate; pure
        degradation and RSNode failures do not (DRS keeps serving).
        """
        return any(
            isinstance(event, (ServerDown, LinkDown)) for event in self._events
        )

    def churn_events(self) -> Tuple[FaultEvent, ...]:
        """The graceful node-join/node-leave subset, in replay order.

        Churn is graceful (no packets are lost), so it never factors into
        :meth:`requires_timeouts`; config validation uses this to keep the
        churn axis out of ``fault_schedule`` and vice versa.
        """
        return tuple(
            event
            for event in self.events
            if isinstance(event, CHURN_EVENT_TYPES)
        )

    def describe(self) -> str:
        """The canonical spec string for this schedule (parser-compatible)."""
        parts = []
        for event in self.events:
            kind = _KIND_NAMES[type(event)]
            if isinstance(event, (ServerDown, ServerUp, NodeJoin, NodeLeave)):
                target = event.server
            elif isinstance(event, LinkDegrade):
                target = f"{event.a}/{event.b}*{event.factor:g}"
            elif isinstance(event, (LinkDown, LinkUp)):
                target = f"{event.a}/{event.b}"
            else:
                target = str(event.operator)
            parts.append(f"{kind}@{event.at:g}:{target}")
        return ";".join(parts)

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def add(self, event: FaultEvent) -> "FaultSchedule":
        """Append one event; returns ``self`` for chaining."""
        self._events.append(event)
        return self

    def server_down(self, at: float, server: str) -> "FaultSchedule":
        return self.add(ServerDown(at, server))

    def server_up(self, at: float, server: str) -> "FaultSchedule":
        return self.add(ServerUp(at, server))

    def link_down(self, at: float, a: str, b: str) -> "FaultSchedule":
        return self.add(LinkDown(at, a, b))

    def link_up(self, at: float, a: str, b: str) -> "FaultSchedule":
        return self.add(LinkUp(at, a, b))

    def link_degrade(
        self, at: float, a: str, b: str, factor: float
    ) -> "FaultSchedule":
        return self.add(LinkDegrade(at, a, b, factor))

    def rsnode_down(self, at: float, operator: Union[int, str]) -> "FaultSchedule":
        return self.add(RSNodeDown(at, operator))

    def rsnode_up(self, at: float, operator: Union[int, str]) -> "FaultSchedule":
        return self.add(RSNodeUp(at, operator))

    def node_join(self, at: float, server: str) -> "FaultSchedule":
        return self.add(NodeJoin(at, server))

    def node_leave(self, at: float, server: str) -> "FaultSchedule":
        return self.add(NodeLeave(at, server))

    @classmethod
    def from_spec(cls, spec: str) -> "FaultSchedule":
        """Parse a spec string (see module docstring for the grammar)."""
        return parse_fault_schedule(spec)

    @classmethod
    def random_server_crashes(
        cls,
        rng,
        *,
        servers: Sequence[str],
        count: int,
        window: Tuple[float, float],
        downtime: float,
        seed_note: str = "faults",
    ) -> "FaultSchedule":
        """``count`` crash-and-recover pairs at seeded-random times/victims.

        ``rng`` must be a raw named stream (e.g. ``registry.stream("faults")``
        -- it interleaves ``random`` and ``integers`` draws, so a batched
        stream would raise); ``window`` bounds the crash start times;
        ``downtime`` is how long each victim stays down.  The resulting
        schedule is a pure function of the stream's seed, keeping "random"
        fault workloads byte-reproducible.  ``seed_note`` only documents
        which stream name the caller used.
        """
        if not servers:
            raise ConfigurationError("random_server_crashes needs servers")
        if count < 1:
            raise ConfigurationError("count must be >= 1")
        lo, hi = window
        if not 0 <= lo <= hi:
            raise ConfigurationError(f"bad crash window {window!r}")
        if downtime <= 0:
            raise ConfigurationError("downtime must be positive")
        del seed_note  # documentation-only
        schedule = cls()
        for _ in range(count):
            start = lo + float(rng.random()) * (hi - lo)
            victim = servers[int(rng.integers(len(servers)))]
            schedule.server_down(start, victim)
            schedule.server_up(start + downtime, victim)
        return schedule


def _parse_float(text: str, what: str, clause: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigurationError(
            f"bad {what} {text!r} in fault clause {clause!r}"
        ) from None


def _parse_link(target: str, clause: str) -> Tuple[str, str]:
    a, sep, b = target.partition("/")
    a, b = a.strip(), b.strip()
    if not sep or not a or not b:
        raise ConfigurationError(
            f"link fault target must be 'a/b', got {target!r} in {clause!r}"
        )
    return a, b


def _parse_operator(target: str) -> Union[int, str]:
    if target == "busiest":
        return target
    try:
        return int(target)
    except ValueError:
        raise ConfigurationError(
            f"rsnode fault target must be an operator ID or 'busiest', "
            f"got {target!r}"
        ) from None


def parse_fault_schedule(spec: str) -> FaultSchedule:
    """Parse ``kind@time:target;...`` into a :class:`FaultSchedule`.

    Raises :class:`~repro.errors.ConfigurationError` on any malformed
    clause, naming the clause so config typos are easy to find.
    """
    schedule = FaultSchedule()
    for raw_clause in spec.split(";"):
        clause = raw_clause.strip()
        if not clause:
            continue
        head, colon, target = clause.partition(":")
        target = target.strip()
        kind_name, at_sign, time_text = head.partition("@")
        kind_name = kind_name.strip()
        if not colon or not at_sign or not target:
            raise ConfigurationError(
                f"fault clause must look like 'kind@time:target', "
                f"got {clause!r}"
            )
        event_cls = _KINDS.get(kind_name)
        if event_cls is None:
            raise ConfigurationError(
                f"unknown fault kind {kind_name!r} in {clause!r}; "
                f"choose from {sorted(_KINDS)}"
            )
        at = _parse_float(time_text.strip(), "time", clause)
        if event_cls in (ServerDown, ServerUp, NodeJoin, NodeLeave):
            args: tuple = (target,)
        elif event_cls is LinkDegrade:
            link_text, star, factor_text = target.partition("*")
            if not star:
                raise ConfigurationError(
                    f"link-degrade target must be 'a/b*factor', got "
                    f"{target!r} in {clause!r}"
                )
            a, b = _parse_link(link_text.strip(), clause)
            args = (a, b, _parse_float(factor_text.strip(), "factor", clause))
        elif event_cls in (LinkDown, LinkUp):
            args = _parse_link(target, clause)
        else:  # RSNodeDown / RSNodeUp
            args = (_parse_operator(target),)
        try:
            schedule.add(event_cls(at, *args))
        except ConfigurationError as error:  # a time or factor out of range
            raise ConfigurationError(f"{error} in fault clause {clause!r}") from None
    if not len(schedule):
        raise ConfigurationError(f"fault schedule {spec!r} contains no events")
    return schedule

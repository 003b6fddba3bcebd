"""Fault event taxonomy: the things a :class:`FaultSchedule` can inject.

Each event is a frozen dataclass carrying its injection time (``at``,
simulated seconds from the start of the run) plus the target of the fault.
Targets may be literal topology node names or the symbolic references
resolved by :class:`repro.faults.injector.FaultInjector` (``server#i``,
``client#i``, ``tor(...)``) -- symbolic references exist because role
placement is seeded-random, so a config written before the run cannot know
the literal host names.

The taxonomy (see ``docs/FAULTS.md`` for the failure model):

* :class:`ServerDown` / :class:`ServerUp` -- crash-stop a key-value server
  and bring it back.  A crashed server loses its queue and every request in
  service; arriving requests are dropped.
* :class:`LinkDown` / :class:`LinkUp` -- cut a single physical link.  The
  fabric drops packets on the dead link and the router invalidates cached
  paths and ECMP-reroutes around it.
* :class:`LinkDegrade` -- multiply a link's per-hop delay (brown-out rather
  than black-out); cleared by :class:`LinkUp`.
* :class:`RSNodeDown` / :class:`RSNodeUp` -- fail a NetRS operator
  (switch + accelerator).  The controller flips its traffic groups to
  Degraded Replica Selection, so requests fall back to the client-chosen
  backup replica -- the paper's section III-C failover story.
* :class:`NodeJoin` / :class:`NodeLeave` -- **graceful membership churn**
  on the consistent-hash ring (see ``docs/CONSISTENCY.md``).  Unlike the
  crash-stop events above, the host stays up and reachable: the ring's
  active set changes, ownership diffs are computed, and key-range
  migration transfers flow through the fabric.  Churn events live in
  ``churn_schedule`` (never ``fault_schedule``) and do not open
  unavailability windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from repro.errors import ConfigurationError


def _check_time(at: float) -> None:
    if not 0 <= at < math.inf:
        raise ConfigurationError(
            f"fault event time must be finite and >= 0 seconds, got {at!r}"
        )


@dataclass(frozen=True)
class ServerDown:
    """Crash-stop a key-value server at time ``at``."""

    at: float
    server: str

    def __post_init__(self) -> None:
        _check_time(self.at)


@dataclass(frozen=True)
class ServerUp:
    """Recover a previously crashed server (empty queue, state intact)."""

    at: float
    server: str

    def __post_init__(self) -> None:
        _check_time(self.at)


@dataclass(frozen=True)
class LinkDown:
    """Cut the direct link between two adjacent nodes."""

    at: float
    a: str
    b: str

    def __post_init__(self) -> None:
        _check_time(self.at)


@dataclass(frozen=True)
class LinkUp:
    """Restore a cut or degraded link to its nominal latency."""

    at: float
    a: str
    b: str

    def __post_init__(self) -> None:
        _check_time(self.at)


@dataclass(frozen=True)
class LinkDegrade:
    """Multiply the per-hop delay of a link by a finite ``factor`` >= 1."""

    at: float
    a: str
    b: str
    factor: float

    def __post_init__(self) -> None:
        _check_time(self.at)
        if not 1.0 <= self.factor < math.inf:
            raise ConfigurationError(
                "link degradation factor must be finite and >= 1, "
                f"got {self.factor!r}"
            )


@dataclass(frozen=True)
class RSNodeDown:
    """Fail a NetRS operator; its groups degrade to client-side backups.

    ``operator`` is an operator ID, or the symbolic ``"busiest"`` (the
    operator carrying the most traffic groups in the deployed plan).
    """

    at: float
    operator: Union[int, str]

    def __post_init__(self) -> None:
        _check_time(self.at)


@dataclass(frozen=True)
class RSNodeUp:
    """Return a failed operator to the candidate pool.

    Note the asymmetry with the data path: recovery does *not* un-degrade
    the operator's groups -- per the paper, a fresh plan (replanning or an
    explicit :meth:`NetRSController.plan_and_deploy`) re-activates them.
    """

    at: float
    operator: Union[int, str]

    def __post_init__(self) -> None:
        _check_time(self.at)


@dataclass(frozen=True)
class NodeLeave:
    """Gracefully decommission ``server`` from the hash ring at ``at``.

    The server hands its key ranges to the new owners (it donates the
    migration transfers itself) and stops receiving new ownership; the
    host remains up, so in-flight requests still complete.
    """

    at: float
    server: str

    def __post_init__(self) -> None:
        _check_time(self.at)


@dataclass(frozen=True)
class NodeJoin:
    """Admit ``server`` (previously left, or started inactive) to the ring.

    The joiner acquires the ring segments its hash points claim; previous
    owners stream the affected key ranges to it as background transfers.
    """

    at: float
    server: str

    def __post_init__(self) -> None:
        _check_time(self.at)


#: Everything a schedule can hold.
FaultEvent = Union[
    ServerDown,
    ServerUp,
    LinkDown,
    LinkUp,
    LinkDegrade,
    RSNodeDown,
    RSNodeUp,
    NodeJoin,
    NodeLeave,
]

#: The graceful-churn subset (legal only in ``churn_schedule``).
CHURN_EVENT_TYPES = (NodeJoin, NodeLeave)

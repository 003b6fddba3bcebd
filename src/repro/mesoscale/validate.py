"""Packet-vs-flow identity gate behind ``netrs validate-fidelity``.

The flow tier replaces the packet tier's wire with closed-form path delays
and drives the packet tier's own endpoints, consuming the same RNG streams
in the same order (docs/MESOSCALE.md).  Its one contract is therefore
bit-identity: on every config it accepts, a flow run reports exactly the
latency samples and counters the packet run of the same config does.  This
module runs each registered scenario under both tiers and passes only on
that exact equality; every difference prints as a ``BREACH`` line naming the
counter, or the first latency sample, that differs.  :func:`differences` is
the comparison itself, shared with the identity tests.

Scenario registry: ``fig4-clirs-r95`` is one cell of the paper's Figure 4
sweep (n_clients=32 on the small profile); ``faults-clirs`` replays a
crash-and-recover schedule with timeouts, exercising the fault mapping in
both tiers; ``netrs-tor`` is the one NetRS scheme both tiers run, whose
packet/flow cost ratio says whether the packet tier can replace the scalar
flow engine; ``late-copies-clirs-r95`` ends with R95 duplicates still on the
wire, whose hops the flow tier must give back as the packet tier does.  All
of them are gated by default.

Every report also prints what each tier cost the host: CPU seconds per
request (``time.process_time`` around each run) and their packet/flow ratio.
That is information, never a breach: CPU time on a shared host moves by
tens of per cent from run to run.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment


def differences(
    expected, actual, ignore: Sequence[str] = ("events_executed", "micro_events")
) -> List[str]:
    """Every way result ``actual`` differs from ``expected``; empty if none.

    Compared exactly: the latency samples (named by the first index that
    differs) and every counter of the run
    (:meth:`~repro.experiments.runner.ExperimentResult.counters`) not in
    ``ignore``.  By default that leaves out what each tier counts of its own
    clock -- packet-engine events, flow micro-events -- so two tiers compare.
    """
    found: List[str] = []
    want, got = expected.latency.samples, actual.latency.samples
    if len(want) != len(got):
        found.append(f"latency samples: {len(want)} expected, {len(got)} got")
    else:
        for index, (a, b) in enumerate(zip(want, got)):
            if a != b:
                found.append(f"latency sample #{index}: expected {a!r}, got {b!r}")
                break
    theirs = actual.counters()
    for name, a in expected.counters().items():
        b = theirs[name]
        if a != b and name not in ignore:
            found.append(f"{name}: expected {a!r}, got {b!r}")
    return found


#: Scenario name -> config builder; built on use so imports stay validation-free.
_SCENARIOS: Dict[str, Callable[[], ExperimentConfig]] = {
    # One Figure-4 cell (small profile, n_clients=32) on the redundant
    # scheme: exercises selection, redundancy timers and the R95 cache.
    "fig4-clirs-r95": lambda: ExperimentConfig.small(
        scheme="clirs-r95", seed=11
    ).replace(n_clients=32, total_requests=6_000),
    # Crash-and-recover with timeouts: exercises the fault mapping
    # (queue loss, drops, retries, unavailability windows) in both tiers.
    "faults-clirs": lambda: ExperimentConfig.small(scheme="clirs", seed=7).replace(
        total_requests=6_000,
        fault_schedule=(
            "server-down@0.05:server#0;server-up@0.25:server#0;"
            "server-down@0.10:server#3;server-up@0.30:server#3"
        ),
        request_timeout=40e-3,
        max_retries=3,
    ),
    # The NetRS scheme both tiers run, on the benchmark's 12 000 requests
    # of ``flow-tor-faults`` without the crash: the packet/flow cost ratio.
    "netrs-tor": lambda: ExperimentConfig.small(scheme="netrs-tor", seed=1).replace(
        total_requests=12_000
    ),
    # Late copies (R95 duplicates and their replies) still travelling when
    # the last request completes: the hops they never made are not counted.
    "late-copies-clirs-r95": lambda: ExperimentConfig.small(
        scheme="clirs-r95", seed=2
    ).replace(n_clients=32, total_requests=3_000),
}

#: Every registered scenario; the gate runs them all by default.
VALIDATION_SCENARIOS = tuple(_SCENARIOS)


def _scenario_configs() -> Dict[str, ExperimentConfig]:
    """The registry, built."""
    return {name: build() for name, build in _SCENARIOS.items()}


@dataclass
class FidelityReport:
    """One scenario run under both tiers, and every way they differ."""

    scenario: str
    packet_events: int
    flow_micro_events: int
    completed_requests: int
    breaches: List[str]
    #: Host CPU seconds each tier's run took (informational, never gated).
    packet_cpu_s: float = 0.0
    flow_cpu_s: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.breaches

    def format(self) -> str:
        """Human-readable gate report, one block per scenario."""
        verdict = "PASS" if self.passed else "FAIL"
        lines = [f"[{verdict}] {self.scenario} ({self.completed_requests} requests)"]
        requests = max(1, self.completed_requests)
        lines.append(
            f"  events/request: packet={self.packet_events / requests:.2f} "
            f"flow micro={self.flow_micro_events / requests:.2f}"
        )
        ratio = self.packet_cpu_s / self.flow_cpu_s if self.flow_cpu_s > 0 else float("nan")
        lines.append(
            f"  cpu/request: packet={self.packet_cpu_s / requests * 1e6:.1f}us "
            f"flow={self.flow_cpu_s / requests * 1e6:.1f}us packet/flow={ratio:.2f}"
        )
        for breach in self.breaches:
            lines.append(f"  BREACH: {breach}")
        return "\n".join(lines)


def _cpu_timed(run, *args, **kwargs):
    """``run(*args, **kwargs)`` and the host CPU seconds it took."""
    started = time.process_time()
    result = run(*args, **kwargs)
    return result, time.process_time() - started


def compare_tiers(name: str, config: ExperimentConfig) -> FidelityReport:
    """Run ``config`` under both tiers and list where the flow run differs.

    ``fidelity="flow"`` runs the packet engine on a config the flow engine
    does not model, which would compare that engine with itself: a flow leg
    that ran no micro-event is a breach of its own.
    """
    packet, packet_cpu = _cpu_timed(run_experiment, config.replace(fidelity="packet"))
    flow, flow_cpu = _cpu_timed(run_experiment, config.replace(fidelity="flow"))
    breaches = differences(packet, flow)
    if flow.micro_events == 0:
        breaches.insert(0, "flow leg ran no flow engine (micro_events == 0)")
    return FidelityReport(
        scenario=name,
        packet_events=packet.events_executed,
        flow_micro_events=flow.micro_events,
        completed_requests=packet.completed_requests,
        breaches=breaches,
        packet_cpu_s=packet_cpu,
        flow_cpu_s=flow_cpu,
    )


def validate_fidelity(
    scenarios: Optional[Sequence[str]] = None,
) -> List[FidelityReport]:
    """Run the identity gate over the named scenarios (default: all)."""
    registry = _scenario_configs()
    reports = []
    for name in tuple(registry) if scenarios is None else scenarios:
        config = registry.get(name)
        if config is None:
            raise ConfigurationError(
                f"unknown validation scenario {name!r}; "
                f"available: {', '.join(sorted(registry))}"
            )
        reports.append(compare_tiers(name, config))
    return reports


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (also mounted as ``netrs validate-fidelity``)."""
    parser = argparse.ArgumentParser(
        prog="validate-fidelity",
        description="Gate flow-tier runs on bit-identity with the packet engine.",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="scenario to run (repeatable; default: all of --list)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    args = parser.parse_args(argv)
    if args.list:
        for name in sorted(_scenario_configs()):
            print(name)
        return 0
    reports = validate_fidelity(args.scenario)
    for report in reports:
        print(report.format())
    failed = [r for r in reports if not r.passed]
    if failed:
        print(
            f"fidelity gate FAILED on {len(failed)}/{len(reports)} scenarios",
            file=sys.stderr,
        )
        return 1
    print(f"fidelity gate passed on {len(reports)} scenarios")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())

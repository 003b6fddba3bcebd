"""Packet-vs-flow validation harness behind ``netrs validate-fidelity``.

The flow tier is only useful if it provably tracks the packet engine on the
paper's configurations.  This module runs the same config under both tiers
and gates on latency-distribution agreement:

* **per-percentile relative error** on the paper's four metrics (mean, p95,
  p99, p999), and
* **Kolmogorov-Smirnov distance** between the recorded latency samples.

Both thresholds are committed in :data:`DEFAULT_TOLERANCES`.  For the
CliRS schemes the flow tier replays the exact RNG streams and float
arithmetic of the packet engine, so the observed errors are ~0; the
tolerances are deliberately wider (5 % / 0.05 KS) to stay meaningful if
either tier's internals drift.  The harness proves it *can* fail via the
``service_time_scale`` knob: a mis-calibrated flow run must breach the gate
(tested in ``tests/mesoscale/test_validate.py``).

Scenario registry: ``fig4-clirs-r95`` is one cell of the paper's Figure 4
sweep (n_clients=32 on the small profile); ``faults-clirs`` replays a
crash-and-recover schedule with timeouts, exercising the PR5 fault mapping
in both tiers.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.mesoscale.runner import run_flow_experiment

#: The paper's four latency metrics, as produced by ``result.summary()``.
METRICS = ("mean", "p95", "p99", "p999")


@dataclass(frozen=True)
class Tolerances:
    """Committed agreement thresholds for the fidelity gate."""

    #: Max |flow - packet| / packet per summary metric.
    rel_err: Dict[str, float] = field(
        default_factory=lambda: {
            "mean": 0.05,
            "p95": 0.05,
            "p99": 0.08,
            "p999": 0.12,
        }
    )
    #: Max two-sample Kolmogorov-Smirnov distance between latency samples.
    ks_distance: float = 0.05


DEFAULT_TOLERANCES = Tolerances()


def _scenario_configs() -> Dict[str, ExperimentConfig]:
    """Build the registry lazily so imports stay validation-free."""
    return {
        # One Figure-4 cell (small profile, n_clients=32) on the redundant
        # scheme: exercises selection, redundancy timers and the R95 cache.
        "fig4-clirs-r95": ExperimentConfig.small(
            scheme="clirs-r95", seed=11
        ).replace(n_clients=32, total_requests=6_000),
        # Crash-and-recover with timeouts: exercises the fault mapping
        # (queue loss, drops, retries, unavailability windows) in both tiers.
        "faults-clirs": ExperimentConfig.small(scheme="clirs", seed=7).replace(
            total_requests=6_000,
            fault_schedule=(
                "server-down@0.05:server#0;server-up@0.25:server#0;"
                "server-down@0.10:server#3;server-up@0.30:server#3"
            ),
            request_timeout=40e-3,
            max_retries=3,
        ),
    }


#: Names of the committed validation scenarios.
VALIDATION_SCENARIOS = ("fig4-clirs-r95", "faults-clirs")


def ks_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sample Kolmogorov-Smirnov statistic ``sup |F_a - F_b|``."""
    xs = np.sort(np.asarray(a, dtype=float))
    ys = np.sort(np.asarray(b, dtype=float))
    if len(xs) == 0 or len(ys) == 0:
        return 1.0
    grid = np.concatenate([xs, ys])
    cdf_a = np.searchsorted(xs, grid, side="right") / len(xs)
    cdf_b = np.searchsorted(ys, grid, side="right") / len(ys)
    return float(np.max(np.abs(cdf_a - cdf_b)))


@dataclass
class FidelityReport:
    """Agreement measurements for one scenario under both tiers."""

    scenario: str
    packet_summary: Dict[str, float]
    flow_summary: Dict[str, float]
    rel_err: Dict[str, float]
    ks: float
    packet_events: int
    flow_micro_events: int
    completed_requests: int
    passed: bool
    breaches: List[str]

    def format(self) -> str:
        """Human-readable gate report, one block per scenario."""
        verdict = "PASS" if self.passed else "FAIL"
        lines = [f"[{verdict}] {self.scenario} ({self.completed_requests} requests)"]
        for metric in METRICS:
            lines.append(
                f"  {metric:>5}: packet={self.packet_summary[metric]:8.3f}ms "
                f"flow={self.flow_summary[metric]:8.3f}ms "
                f"rel_err={self.rel_err[metric]:.2e}"
            )
        lines.append(f"  KS distance: {self.ks:.2e}")
        requests = max(1, self.completed_requests)
        lines.append(
            f"  events/request: packet={self.packet_events / requests:.2f} "
            f"flow micro={self.flow_micro_events / requests:.2f}"
        )
        for breach in self.breaches:
            lines.append(f"  BREACH: {breach}")
        return "\n".join(lines)


def compare_tiers(
    name: str,
    config: ExperimentConfig,
    *,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
    service_time_scale: float = 1.0,
) -> FidelityReport:
    """Run ``config`` under both tiers and measure their agreement.

    ``service_time_scale`` is forwarded to the flow tier only -- setting it
    away from 1.0 deliberately mis-calibrates the flow model, which the
    gate must catch.
    """
    # Imported here: the packet runner imports this module's package lazily
    # for the fidelity dispatch, so a module-level import would be circular.
    from repro.experiments.runner import run_experiment

    packet = run_experiment(config.replace(fidelity="packet"))
    flow = run_flow_experiment(config, service_time_scale=service_time_scale)

    packet_summary = packet.summary()
    flow_summary = flow.summary()
    rel_err = {
        metric: abs(flow_summary[metric] - packet_summary[metric])
        / abs(packet_summary[metric])
        for metric in METRICS
    }
    ks = ks_distance(packet.latency.samples, flow.latency.samples)

    breaches: List[str] = []
    for metric in METRICS:
        budget = tolerances.rel_err[metric]
        if rel_err[metric] > budget:
            breaches.append(
                f"{metric} relative error {rel_err[metric]:.4f} "
                f"> tolerance {budget}"
            )
    if ks > tolerances.ks_distance:
        breaches.append(
            f"KS distance {ks:.4f} > tolerance {tolerances.ks_distance}"
        )
    return FidelityReport(
        scenario=name,
        packet_summary=packet_summary,
        flow_summary=flow_summary,
        rel_err=rel_err,
        ks=ks,
        packet_events=packet.events_executed,
        flow_micro_events=flow.micro_events,
        completed_requests=packet.completed_requests,
        passed=not breaches,
        breaches=breaches,
    )


def validate_fidelity(
    scenarios: Sequence[str] = VALIDATION_SCENARIOS,
    *,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
    service_time_scale: float = 1.0,
) -> List[FidelityReport]:
    """Run the fidelity gate over the named scenarios."""
    registry = _scenario_configs()
    reports = []
    for name in scenarios:
        config = registry.get(name)
        if config is None:
            raise ConfigurationError(
                f"unknown validation scenario {name!r}; "
                f"available: {', '.join(sorted(registry))}"
            )
        reports.append(
            compare_tiers(
                name,
                config,
                tolerances=tolerances,
                service_time_scale=service_time_scale,
            )
        )
    return reports


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (also mounted as ``netrs validate-fidelity``)."""
    parser = argparse.ArgumentParser(
        prog="validate-fidelity",
        description="Gate flow-tier latency distributions against the packet engine.",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="scenario to run (repeatable; default: all committed scenarios)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    parser.add_argument(
        "--service-scale",
        type=float,
        default=1.0,
        metavar="X",
        help="mis-calibration knob: multiply flow-tier service times "
        "(default 1.0; used to prove the gate fails)",
    )
    args = parser.parse_args(argv)
    if args.list:
        for name in sorted(_scenario_configs()):
            print(name)
        return 0
    names = tuple(args.scenario) if args.scenario else VALIDATION_SCENARIOS
    reports = validate_fidelity(names, service_time_scale=args.service_scale)
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

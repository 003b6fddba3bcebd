"""Canonical definitions of the paper's figures (section V-B).

Each figure is a named sweep specification; the benchmarks, the CLI and
EXPERIMENTS.md all derive from these definitions so there is exactly one
source of truth for what "Fig. 4" means.

The paper's parameter values are recorded verbatim; the *scaled* values map
them onto the default small profile (8-ary fat-tree, 128 hosts) with the
same proportions relative to host count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.exec import ExecutionPolicy
from repro.experiments.config import ExperimentConfig
from repro.experiments.sweep import SweepResult, run_sweep

#: The four schemes every paper figure compares.
PAPER_SCHEMES = ("clirs", "clirs-r95", "netrs-tor", "netrs-ilp")


@dataclass(frozen=True)
class FigureSpec:
    """One evaluation figure: which parameter is swept and how."""

    figure_id: str
    title: str
    parameter: str
    paper_values: Tuple[Any, ...]
    scaled_values: Tuple[Any, ...]
    schemes: Tuple[str, ...] = PAPER_SCHEMES

    def values(self, profile: str) -> Tuple[Any, ...]:
        """Swept values for a profile (``"paper"`` or ``"small"``)."""
        if profile == "paper":
            return self.paper_values
        if profile == "small":
            return self.scaled_values
        raise ConfigurationError(f"unknown profile {profile!r}")


FIGURES: Dict[str, FigureSpec] = {
    "fig4": FigureSpec(
        figure_id="fig4",
        title="Fig. 4 - varying number of clients",
        parameter="n_clients",
        paper_values=(100, 300, 500, 700),
        scaled_values=(16, 32, 64, 96),
    ),
    "fig5": FigureSpec(
        figure_id="fig5",
        title="Fig. 5 - varying demand skewness",
        parameter="demand_skew",
        paper_values=(0.70, 0.80, 0.90, 0.95),
        scaled_values=(0.70, 0.80, 0.90, 0.95),
    ),
    "fig6": FigureSpec(
        figure_id="fig6",
        title="Fig. 6 - varying system utilization",
        parameter="utilization",
        paper_values=(0.30, 0.50, 0.70, 0.90),
        scaled_values=(0.30, 0.50, 0.70, 0.90),
    ),
    "fig7": FigureSpec(
        figure_id="fig7",
        title="Fig. 7 - varying service time",
        parameter="mean_service_time",
        paper_values=(0.1e-3, 0.5e-3, 1.0e-3, 2.0e-3, 4.0e-3),
        scaled_values=(0.1e-3, 0.5e-3, 1.0e-3, 2.0e-3, 4.0e-3),
    ),
}


def base_config(profile: str, seed: int = 0, **overrides) -> ExperimentConfig:
    """Default configuration for a profile."""
    if profile == "paper":
        return ExperimentConfig.paper(seed=seed, **overrides)
    if profile == "small":
        return ExperimentConfig.small(seed=seed, **overrides)
    raise ConfigurationError(f"unknown profile {profile!r}")


def run_figure(
    figure_id: str,
    *,
    profile: str = "small",
    seed: int = 0,
    repetitions: int = 1,
    schemes: Sequence[str] = (),
    total_requests: int = 0,
    values: Sequence[Any] = (),
    execution: Optional[ExecutionPolicy] = None,
    **overrides: Any,
) -> SweepResult:
    """Execute one paper figure end to end.

    ``total_requests`` and ``values`` override the profile defaults (handy
    for fast benchmark runs); zero/empty means "use the profile's values".
    ``overrides`` are further config fields of the base config.
    ``execution`` is forwarded to :func:`run_sweep` for parallelism/resume.
    """
    spec = FIGURES.get(figure_id)
    if spec is None:
        raise ConfigurationError(
            f"unknown figure {figure_id!r}; available: {', '.join(sorted(FIGURES))}"
        )
    if total_requests:
        overrides["total_requests"] = total_requests
    base = base_config(profile, seed=seed, **overrides)
    chosen_values: List[Any] = list(values) if values else list(spec.values(profile))
    # Fig. 7 changes the service time, which changes the absolute arrival
    # rate but not utilization; nothing else to adjust.  Fig. 5's sweep values
    # are skew fractions and apply to any profile unchanged.
    return run_sweep(
        base,
        parameter=spec.parameter,
        values=chosen_values,
        schemes=list(schemes) if schemes else list(spec.schemes),
        repetitions=repetitions,
        execution=execution,
    )

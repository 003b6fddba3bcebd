"""Parameter sweeps: the engine behind every paper figure.

A figure in the paper is one parameter swept over a few values, four schemes
per value, three seeds per (value, scheme), and four latency metrics per run.
:func:`run_sweep` enumerates exactly that grid as deterministic jobs,
executes them through :mod:`repro.exec` (serially by default, in parallel
with an :class:`~repro.exec.ExecutionPolicy`), and returns a
:class:`SweepResult` the table formatter and benchmarks consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.exec import ExecutionPolicy, Job, execute_jobs
from repro.experiments.config import ExperimentConfig
from repro.experiments.metrics import METRICS, mean_of_summaries

#: (parameter value, scheme) -> averaged metric summary in milliseconds.
Cell = Tuple[Any, str]


@dataclass
class SweepResult:
    """Grid of averaged latency summaries."""

    parameter: str
    values: List[Any]
    schemes: List[str]
    repetitions: int
    cells: Dict[Cell, Dict[str, float]] = field(default_factory=dict)
    #: Every counter of the run, averaged over the repetitions.
    extras: Dict[Cell, Dict[str, float]] = field(default_factory=dict)
    #: Per-repetition summaries (same order as seeds), for statistics.
    raw: Dict[Cell, List[Dict[str, float]]] = field(default_factory=dict)

    def summary(self, value: Any, scheme: str) -> Dict[str, float]:
        """Averaged latency metrics (ms) for one grid cell."""
        try:
            return self.cells[(value, scheme)]
        except KeyError:
            raise ConfigurationError(
                f"no data for {self.parameter}={value!r}, scheme={scheme!r}"
            ) from None

    def series(self, scheme: str, metric: str) -> List[float]:
        """One plotted line of the figure: ``metric`` across all values."""
        if metric not in METRICS:
            raise ConfigurationError(f"unknown metric {metric!r}")
        if scheme not in self.schemes:
            raise ConfigurationError(
                f"unknown scheme {scheme!r}; swept: {', '.join(self.schemes)}"
            )
        return [self.summary(value, scheme)[metric] for value in self.values]

    def confidence_interval(self, value: Any, scheme: str, metric: str):
        """Mean +/- t-based CI of a metric over the repetitions."""
        from repro.experiments.statistics import mean_and_ci

        summaries = self.raw.get((value, scheme))
        if not summaries:
            raise ConfigurationError(
                f"no raw repetition data for {self.parameter}={value!r}, "
                f"scheme={scheme!r}"
            )
        return mean_and_ci([s[metric] for s in summaries])

    def compare_schemes(self, value: Any, baseline: str, other: str, metric: str):
        """Paired per-seed comparison of two schemes at one sweep value."""
        from repro.experiments.statistics import paired_comparison

        baseline_raw = self.raw.get((value, baseline))
        other_raw = self.raw.get((value, other))
        if not baseline_raw or not other_raw:
            raise ConfigurationError("both schemes need raw repetition data")
        return paired_comparison(
            [s[metric] for s in baseline_raw],
            [s[metric] for s in other_raw],
        )

    def to_json(self) -> str:
        """Machine-readable dump: parameter, values, per-scheme series."""
        import json

        payload = {
            "parameter": self.parameter,
            "values": self.values,
            "schemes": self.schemes,
            "repetitions": self.repetitions,
            "metrics_ms": {
                scheme: {
                    metric: self.series(scheme, metric) for metric in METRICS
                }
                for scheme in self.schemes
            },
        }
        return json.dumps(payload, indent=2)


def sweep_jobs(
    base: ExperimentConfig,
    *,
    parameter: str,
    values: Sequence[Any],
    schemes: Sequence[str],
    repetitions: int = 1,
    overrides: Optional[Dict[str, Any]] = None,
) -> Tuple[List[Job], Dict[Cell, List[str]]]:
    """Enumerate the (value x scheme x seed) grid as deterministic jobs.

    Returns the job batch (in canonical submission order) and the mapping
    from each grid cell to the job keys of its repetitions, in seed order.
    """
    if not values:
        raise ConfigurationError("sweep needs at least one value")
    if not schemes:
        raise ConfigurationError("sweep needs at least one scheme")
    if repetitions < 1:
        raise ConfigurationError("repetitions must be >= 1")

    jobs: List[Job] = []
    cell_keys: Dict[Cell, List[str]] = {}
    for value in values:
        for scheme in schemes:
            keys: List[str] = []
            for rep in range(repetitions):
                changes: Dict[str, Any] = {
                    parameter: value,
                    "scheme": scheme,
                    "seed": base.seed + rep,
                }
                if overrides:
                    changes.update(overrides)
                config = base.replace(**changes)
                job = Job.from_config(config, len(jobs))
                jobs.append(job)
                keys.append(job.key)
            cell_keys[(value, scheme)] = keys
    return jobs, cell_keys


def run_sweep(
    base: ExperimentConfig,
    *,
    parameter: str,
    values: Sequence[Any],
    schemes: Sequence[str],
    repetitions: int = 1,
    overrides: Optional[Dict[str, Any]] = None,
    execution: Optional[ExecutionPolicy] = None,
) -> SweepResult:
    """Run the full (value x scheme x seed) grid for one figure.

    ``parameter`` names an :class:`ExperimentConfig` field; each repetition
    r runs with ``seed = base.seed + r`` so schemes are compared on identical
    deployments, matching the paper's repeated random deployments.

    ``execution`` controls parallelism, the run ledger and resume (see
    :class:`repro.exec.ExecutionPolicy`); the default runs serially,
    in-process, with no spooling -- bit-identical to the historical harness.
    """
    jobs, cell_keys = sweep_jobs(
        base,
        parameter=parameter,
        values=values,
        schemes=schemes,
        repetitions=repetitions,
        overrides=overrides,
    )
    outcomes = execute_jobs(jobs, policy=execution)

    result = SweepResult(
        parameter=parameter,
        values=list(values),
        schemes=list(schemes),
        repetitions=repetitions,
    )
    for cell, keys in cell_keys.items():
        runs = [outcomes[key] for key in keys]
        summaries = [run.summary for run in runs]
        result.cells[cell] = mean_of_summaries(summaries)
        result.raw[cell] = summaries
        result.extras[cell] = {
            name: sum(run.counters[name] for run in runs) / len(runs)
            for name in runs[0].counters
        }
    return result

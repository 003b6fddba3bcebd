"""Two-parameter grids: explore the operating space beyond single sweeps.

The paper varies one parameter per figure.  ``run_grid`` crosses two (e.g.
utilization x client count) for one or two schemes and renders the result as
an ASCII heatmap -- either a metric for one scheme, or the *reduction* of one
scheme against a baseline, which shows where in the operating space NetRS
pays off most.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.exec import ExecutionPolicy, Job, execute_jobs
from repro.experiments.config import ExperimentConfig
from repro.experiments.metrics import METRICS, reduction

#: (row value, column value) -> scheme -> summary (ms).
GridCell = Tuple[Any, Any]


@dataclass
class GridResult:
    """Latency summaries across a two-parameter grid."""

    row_parameter: str
    column_parameter: str
    row_values: List[Any]
    column_values: List[Any]
    schemes: List[str]
    cells: Dict[GridCell, Dict[str, Dict[str, float]]] = field(
        default_factory=dict
    )

    def value(self, row: Any, column: Any, scheme: str, metric: str) -> float:
        """One metric (ms) at one grid point."""
        try:
            return self.cells[(row, column)][scheme][metric]
        except KeyError:
            raise ConfigurationError(
                f"no data at ({self.row_parameter}={row!r}, "
                f"{self.column_parameter}={column!r}, {scheme!r})"
            ) from None

    def reduction_at(
        self, row: Any, column: Any, baseline: str, other: str, metric: str
    ) -> float:
        """Latency reduction (%) of ``other`` vs ``baseline`` at one point."""
        return reduction(
            self.value(row, column, baseline, metric),
            self.value(row, column, other, metric),
        )


def run_grid(
    base: ExperimentConfig,
    *,
    row_parameter: str,
    row_values: Sequence[Any],
    column_parameter: str,
    column_values: Sequence[Any],
    schemes: Sequence[str],
    execution: Optional[ExecutionPolicy] = None,
) -> GridResult:
    """Run the full cross product (one seed; grids grow fast).

    The (row x column x scheme) cells are independent jobs executed through
    :mod:`repro.exec`, so ``execution`` buys the same parallelism, ledger
    spooling and resume that sweeps get.
    """
    if row_parameter == column_parameter:
        raise ConfigurationError("row and column parameters must differ")
    if not row_values or not column_values or not schemes:
        raise ConfigurationError("grid needs values on both axes and schemes")

    jobs: List[Job] = []
    cell_keys: Dict[GridCell, Dict[str, str]] = {}
    for row in row_values:
        for column in column_values:
            keys: Dict[str, str] = {}
            for scheme in schemes:
                config = base.replace(
                    **{row_parameter: row, column_parameter: column, "scheme": scheme}
                )
                job = Job.from_config(config, len(jobs))
                jobs.append(job)
                keys[scheme] = job.key
            cell_keys[(row, column)] = keys
    outcomes = execute_jobs(jobs, policy=execution)

    result = GridResult(
        row_parameter=row_parameter,
        column_parameter=column_parameter,
        row_values=list(row_values),
        column_values=list(column_values),
        schemes=list(schemes),
    )
    for cell, keys in cell_keys.items():
        result.cells[cell] = {
            scheme: outcomes[key].summary for scheme, key in keys.items()
        }
    return result


#: Shade ramp for the heatmap, light to dark.
_SHADES = " .:-=+*#%@"


def format_heatmap(
    grid: GridResult,
    *,
    metric: str = "mean",
    scheme: str = "",
    baseline: str = "",
    other: str = "",
) -> str:
    """ASCII heatmap of a metric (one scheme) or a reduction (two schemes).

    Pass either ``scheme`` (absolute values) or ``baseline`` + ``other``
    (reduction of ``other`` vs ``baseline``, in percent).
    """
    if metric not in METRICS:
        raise ConfigurationError(f"unknown metric {metric!r}")
    showing_reduction = bool(baseline or other)
    if showing_reduction and not (baseline and other):
        raise ConfigurationError("reduction mode needs baseline and other")
    if not showing_reduction and not scheme:
        raise ConfigurationError("pass scheme=, or baseline= and other=")

    def cell_value(row: Any, column: Any) -> float:
        if showing_reduction:
            return grid.reduction_at(row, column, baseline, other, metric)
        return grid.value(row, column, scheme, metric)

    values = {
        (r, c): cell_value(r, c)
        for r in grid.row_values
        for c in grid.column_values
    }
    low = min(values.values())
    high = max(values.values())
    span = (high - low) or 1.0

    title = (
        f"{metric} reduction of {other} vs {baseline} (%)"
        if showing_reduction
        else f"{metric} latency of {scheme} (ms)"
    )
    row_width = max(len(str(r)) for r in grid.row_values)
    row_width = max(row_width, len(grid.row_parameter))
    cell_width = max(max(len(f"{v:.1f}") for v in values.values()), 6)

    lines = [title]
    header = grid.row_parameter.rjust(row_width) + " | " + "  ".join(
        str(c).rjust(cell_width) for c in grid.column_values
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in grid.row_values:
        cells = []
        for column in grid.column_values:
            value = values[(row, column)]
            shade = _SHADES[
                min(len(_SHADES) - 1, int((value - low) / span * len(_SHADES)))
            ]
            cells.append(f"{value:.1f}{shade}".rjust(cell_width))
        lines.append(str(row).rjust(row_width) + " | " + "  ".join(cells))
    lines.append(
        f"(columns: {grid.column_parameter}; shade ramp "
        f"'{_SHADES.strip()}' = low to high)"
    )
    return "\n".join(lines)

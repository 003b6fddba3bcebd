"""Latency-metric helpers shared by sweeps, tables and assertions."""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping

import numpy as np

from repro.errors import ConfigurationError

#: The four metrics every figure of the paper reports.
METRICS = ("mean", "p95", "p99", "p999")

#: Pretty labels for tables.
METRIC_LABELS = {
    "mean": "Avg.",
    "p95": "95th Percentile",
    "p99": "99th Percentile",
    "p999": "99.9th Percentile",
}


def reduction(baseline: float, other: float) -> float:
    """Relative latency reduction of ``other`` vs ``baseline``, in percent.

    Positive means ``other`` is faster, matching the paper's phrasing
    ("NetRS reduces the mean latency by up to 48.4%").
    """
    if baseline <= 0 or math.isnan(baseline) or math.isnan(other):
        return math.nan
    return 100.0 * (baseline - other) / baseline


def summary_reduction(
    baseline: Mapping[str, float], other: Mapping[str, float]
) -> Dict[str, float]:
    """Per-metric reductions between two latency summaries."""
    return {m: reduction(baseline[m], other[m]) for m in METRICS if m in baseline}


def mean_of_summaries(summaries: Iterable[Mapping[str, float]]) -> Dict[str, float]:
    """Average several repetitions' summaries metric-by-metric.

    The paper repeats each experiment over 3 deployments and reports the
    aggregate; averaging the per-run metrics reproduces that.
    """
    summaries = list(summaries)
    if not summaries:
        raise ConfigurationError("cannot average an empty set of summaries")
    keys = list(summaries[0].keys())
    matrix = np.array(
        [[s[key] for key in keys] for s in summaries], dtype=float
    )
    return dict(zip(keys, matrix.mean(axis=0).tolist()))

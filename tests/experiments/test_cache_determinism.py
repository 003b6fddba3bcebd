"""Determinism of the hot-path optimizations (ISSUE 2 acceptance criterion).

The routing cache and the engine's cancelled-timer compaction are *pure*
performance knobs: running the same seed with them enabled must produce
byte-identical results to running with both bypassed
(``route_cache_size=0, engine_compaction=False``), down to packet-level
traces and sweep JSON dumps.  Mirrors the style of
``tests/exec/test_determinism.py``.
"""

import pytest

from repro.analysis import attach_probes
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import build_scenario
from repro.experiments.sweep import run_sweep

#: The cache-bypass overrides: everything computed from scratch, no
#: compaction, no pre-drawn RNG blocks.
BYPASS = dict(
    route_cache_size=0,
    engine_compaction=False,
    rng_batch_size=0,
)


def _run_with_trace(config):
    scenario = build_scenario(config)
    probes = attach_probes(scenario, staleness=False, queues=False)
    result = run_experiment(config, scenario=scenario)
    return result, probes.trace


@pytest.mark.parametrize("scheme", ["clirs-r95", "netrs-ilp"])
def test_experiment_identical_with_and_without_caches(scheme):
    """Same seed, caches on vs. bypassed: identical metrics and traces.

    ``clirs-r95`` exercises timer cancellation (redundant-request timers)
    and therefore heap compaction; ``netrs-ilp`` exercises in-network
    steering where packets change route targets mid-flight.
    """
    config = ExperimentConfig.tiny(scheme=scheme, seed=7)
    bypass = config.replace(**BYPASS)

    cached_result, cached_trace = _run_with_trace(config)
    plain_result, plain_trace = _run_with_trace(bypass)

    assert cached_result.summary() == plain_result.summary()
    assert cached_result.completed_requests == plain_result.completed_requests
    assert cached_result.transmissions == plain_result.transmissions
    assert cached_result.bytes_transferred == plain_result.bytes_transferred
    assert cached_result.sim_duration == plain_result.sim_duration
    # Packet-level: every request record (timestamps, hops, chosen server)
    # must match byte for byte.
    assert cached_trace.to_csv() == plain_trace.to_csv()


def test_sweep_json_identical_with_and_without_caches():
    base = ExperimentConfig.tiny(seed=3, total_requests=500)
    kwargs = dict(
        parameter="utilization",
        values=[0.3, 0.9],
        schemes=["clirs", "netrs-tor"],
        repetitions=1,
    )
    cached = run_sweep(base, **kwargs)
    plain = run_sweep(base.replace(**BYPASS), **kwargs)
    assert cached.to_json() == plain.to_json()
    assert cached.raw == plain.raw
    assert cached.extras == plain.extras
    assert cached.cells == plain.cells


def test_events_executed_identical_with_and_without_compaction():
    """events_executed counts only callbacks that ran, so compaction (which
    merely discards cancelled entries earlier) must not change it."""
    config = ExperimentConfig.tiny(scheme="clirs-r95", seed=11)
    cached = run_experiment(config)
    plain = run_experiment(config.replace(**BYPASS))
    assert cached.events_executed == plain.events_executed


@pytest.mark.parametrize("scheme", ["clirs", "clirs-r95", "netrs-ilp"])
def test_tracked_links_run_twice_in_one_process(scheme):
    """ECMP hashes a packet's id, so on a per-hop fabric the ids a run hands
    out decide its routes and per-link counts: they are numbered per run,
    not by what the process ran before."""
    config = ExperimentConfig.tiny(scheme=scheme, seed=3)
    runs = []
    for _ in range(2):
        scenario = build_scenario(config)
        scenario.network.track_links()
        result = run_experiment(config, scenario=scenario)
        runs.append(
            (
                result.latency.samples,
                result.transmissions,
                scenario.network.link_packets,
                scenario.network.link_bytes,
            )
        )
    assert runs[0] == runs[1]
    assert any(a.startswith("agg") and b.startswith("core") for a, b in runs[0][2])

"""Measure one workload in this process: timed reps, traced cells, checks.

``measure`` produces the end-to-end metrics with tracing off; ``trace``
produces the per-layer metrics from profiled cells and writes the span and
layer tables to ``out/trace-<workload>.json``.  Both verify the outputs.

A *cell* is one ``run_experiment(config)`` call.  Before every cell the
previous result is dropped and ``gc.collect()`` runs, so no cell inherits
another's garbage.
"""

import cProfile
import gc
import hashlib
import json
import math
import os
import statistics
import time
import tracemalloc
from array import array
from contextlib import contextmanager

import numpy as np

from repro.experiments import run_experiment
from repro.faults.schedule import parse_fault_schedule
from repro.mesoscale import shard_configs

import layers
import refkernel
from workloads import POOL, build, run

#: Benchmark seed whose cell 0 is the *fixed input*: set-up time and the exact
#: counts are taken on it whatever ``--seed`` says.  Both depend on where the
#: seed puts clients and servers far more than on anything a code change does
#: (ILP solve 0.03-2.3 s; allocation peak 8.2 or 9.2 MiB on ``pkt-netrs-ilp``),
#: and a count is only worth comparing where it repeats exactly.
FIXED_SEED = 0

HERE = os.path.dirname(os.path.abspath(__file__))
SRC_ROOT = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src", "repro") + os.sep

#: Result fields folded into the digest beside the latency samples.  Tier-
#: specific event counts (events_executed, micro_events) are left out so that
#: the flow and packet tiers can be compared.
_DIGEST_FIELDS = (
    "completed_requests", "redundant_requests", "timeouts", "retries",
    "requests_lost", "duplicates_suppressed", "packets_dropped",
    "server_dropped_requests", "faults_injected", "unavailability",
    "writes_completed", "write_failures", "stale_reads", "read_repairs",
    "repair_writes_sent", "quorum_degraded_reads", "digest_probes_sent",
    "migrated_keys", "migration_bytes", "churn_events",
)
#: Fabric accounting, compared beside the digest.  Every repetition must
#: reproduce it exactly; a reference model may differ by the packets in flight
#: when the last request completes, which the tiers count differently under
#: faults (2-4 transmissions of 138 000 on two seeds of twenty).
_TRAFFIC_FIELDS = ("transmissions", "bytes_transferred", "netrs_overhead_bytes")
TRAFFIC_TOLERANCE = 1e-3


def fingerprint(result):
    """(sha256 of latency samples and endpoint counters, fabric accounting)."""
    sha = hashlib.sha256()
    sha.update(array("d", result.latency.samples).tobytes())
    if result.write_latency is not None:
        sha.update(array("d", result.write_latency.samples).tobytes())
    sha.update(repr([getattr(result, name) for name in _DIGEST_FIELDS]).encode())
    return sha.hexdigest(), tuple(getattr(result, name) for name in _TRAFFIC_FIELDS)


def failed_operations(result):
    """Simulated requests that reached no successful completion."""
    return result.requests_lost + result.write_failures


def check(result):
    """Problems with one result, as a list of strings (empty = correct)."""
    config = result.config
    problems = []
    if result.completed_requests != config.total_requests:
        problems.append(
            f"conservation: {result.completed_requests} terminal states for "
            f"{config.total_requests} issued requests"
        )
    # Samples are taken from requests issued after each shard's warm-up;
    # a lost read or failed write leaves none.
    measured = sum(
        sub.total_requests - sub.warmup_requests() for sub in shard_configs(config)
    )
    writes = len(result.write_latency) if result.write_latency is not None else 0
    samples = len(result.latency) + writes
    if not measured - failed_operations(result) <= samples <= measured:
        problems.append(
            f"samples: {samples} recorded, {measured} requests after warm-up, "
            f"{failed_operations(result)} failed"
        )
    for metric, value in result.summary().items():
        if math.isnan(value) or value <= 0:
            problems.append(f"latency {metric} is {value}")
    for field, spec in (
        ("churn_events", config.churn_schedule),
        ("faults_injected", config.fault_schedule),
    ):
        scheduled = len(parse_fault_schedule(spec).events) if spec else 0
        if getattr(result, field) != scheduled:
            problems.append(f"{field}: {getattr(result, field)} applied of {scheduled} scheduled")
    return problems


def check_reference(workload, seed, expected):
    """Accuracy against the more detailed model: (problems, fidelity_err).

    ``expected`` is the fingerprint of the seed's cell 0.  The tiers and fast
    paths are bit-identical by design, so the reference must reproduce every
    latency sample and endpoint counter; ``fidelity_err`` is the largest
    relative difference left in the fabric accounting.
    """
    digest, traffic = fingerprint(run_experiment(workload.reference_config(seed)))
    error = max(
        (abs(ours - theirs) / theirs for ours, theirs in zip(expected[1], traffic) if theirs),
        default=0.0,
    )
    problems = []
    if digest != expected[0]:
        problems.append(
            f"fidelity: latency samples or endpoint counters differ from the "
            f"reference model {workload.reference}"
        )
    if error > TRAFFIC_TOLERANCE:
        problems.append(
            f"fidelity: fabric accounting {expected[1]} is {error:.2%} off the "
            f"reference model's {traffic}"
        )
    return problems, error


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def profiled_cell(config):
    """One whole cell, set-up included, under cProfile: (result, stats)."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = run_experiment(config)
    finally:
        profiler.disable()
    return result, profiler.getstats()


# ----------------------------------------------------------------------
# End-to-end metrics (tracing off)
# ----------------------------------------------------------------------
def measure(workload, seed, seconds):
    """The exact-count cells, then set-up, timed reps for ``seconds``, accuracy.

    The process starts with a fixed history -- one plain cell, one under
    cProfile, one under tracemalloc, all on the fixed input -- because the
    packet tier numbers requests from a process-wide counter, so ECMP choices
    and with them the call and allocation counts depend on how many requests
    the process simulated before.  With input and history fixed they repeat
    exactly.  The three digests must agree: profiling must not change what is
    simulated.

    Timed rep ``i`` simulates pooled cell ``i % POOL`` of ``seed``.  Its run,
    on a set-up built just before, is bracketed by two passes of the frozen
    reference kernel; the host-time cost is CPU(run) over the mean of the two.
    At least ``POOL`` reps run, so that the simulated-latency figures cover
    the same cells whatever the host's speed.
    """
    problems = []
    fixed = workload.config(FIXED_SEED)
    requests = fixed.total_requests
    result = run_experiment(fixed)
    fixed_print = fingerprint(result)
    result = None
    gc.collect()
    result, stats = profiled_cell(fixed)
    calls = sum(entry.callcount for entry in stats)
    del stats
    if fingerprint(result) != fixed_print:
        problems.append("determinism: the profiled cell changed its digest")
    result = None
    gc.collect()
    tracemalloc.start()
    try:
        result = run_experiment(fixed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if fingerprint(result) != fixed_print:
        problems.append("determinism: the allocation-traced cell changed its digest")
    result = None

    setups, builds, ratios, cell_cpus, reference_cpus = [], [], [], [], []
    prints, samples, failed = {}, {}, {}
    deadline = time.perf_counter() + seconds
    rep = 0
    while rep < POOL or time.perf_counter() < deadline:
        index = rep % POOL
        result = None
        gc.collect()
        # One set-up of the fixed input per rep, so that the samples are spread
        # over the run and a slow phase of the host taints only some of them.
        wall = time.perf_counter()
        prepared = build(workload.config(FIXED_SEED))
        setups.append(time.perf_counter() - wall)
        del prepared
        gc.collect()
        wall = time.perf_counter()
        config = workload.config(seed, index)
        prepared = build(config)
        builds.append(time.perf_counter() - wall)
        gc.collect()
        before = refkernel.timed_pass()
        cpu = time.process_time()
        result = run(config, prepared)
        cpu = time.process_time() - cpu
        after = refkernel.timed_pass()
        del prepared
        cell_cpus.append(cpu)
        reference_cpus += [before, after]
        ratios.append(cpu / ((before + after) / 2) / requests * 1000)
        current = fingerprint(result)
        if prints.setdefault(index, current) != current:
            problems.append(f"determinism: rep {rep} of cell {index} changed its digest")
        if index not in samples:
            problems += check(result)
            samples[index] = array("d", result.latency.samples)
            failed[index] = failed_operations(result)
        rep += 1
    result = None

    pooled = np.concatenate([np.frombuffer(samples[i], dtype=np.float64) for i in range(POOL)])
    reference_problems, fidelity_err = check_reference(workload, seed, prints[0])
    problems += reference_problems

    setup_q = quartiles(setups)
    ratio_q = quartiles(ratios)
    cpu_q = quartiles(cell_cpus)
    attempted = requests * POOL
    return {
        "metrics": {
            "setup_s": (setup_q[1], "s"),
            "run_cost_ref": (ratio_q[1], "ref/kreq"),
            "calls_per_req": (calls / requests, "count"),
            "peak_alloc_mib": (peak / 2**20, "MiB"),
            "sim_mean_ms": (float(pooled.mean()) * 1e3, "ms"),
            "sim_p99_ms": (float(np.percentile(pooled, 99)) * 1e3, "ms"),
        },
        "attempted": attempted,
        "failed": attempted if problems else sum(failed.values()),
        "problems": problems,
        "detail": {
            "reps_timed": len(ratios),
            "samples": {"setup_s": setups, "run_cost_ref": ratios},
            "quartiles": {"setup_s": setup_q, "run_cost_ref": ratio_q},
            "pooled_build_s": quartiles(builds),
            "latency_samples": len(pooled),
            "cpu_us_per_req": cpu_q[1] / requests * 1e6,
            "req_per_cpu_s": requests / cpu_q[1],
            "reference_kernel_s": quartiles(reference_cpus),
            "fidelity_err": fidelity_err,
            "digest": prints[0][0],
        },
    }


# ----------------------------------------------------------------------
# Per-layer metrics (traced)
# ----------------------------------------------------------------------
class Spans:
    """Phase spans, kept in memory until the run ends."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name, parent=None, traced=False):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": parent,
            "workload": self.workload,
            "traced": traced,
            "start": time.perf_counter() - self._origin,
            "cpu": time.process_time(),
        }
        self.spans.append(record)
        try:
            yield record["id"]
        finally:
            record["end"] = time.perf_counter() - self._origin
            record["cpu"] = time.process_time() - record["cpu"]

    def durations(self, name, traced, field="wall"):
        return [
            span["cpu"] if field == "cpu" else span["end"] - span["start"]
            for span in self.spans
            if span["name"] == name and span["traced"] == traced
        ]


def _selections(kept):
    """select() calls over every selector of the kept scenarios/engines."""
    total = 0
    for result in kept:
        owner = getattr(result, "scenario", None) or result.engine
        total += sum(client.selector.selections for client in owner.clients)
        controller = getattr(owner, "controller", None)
        operators = controller.operators if controller is not None else getattr(owner, "operators", {})
        for operator in operators.values():
            selector = operator.selector
            if selector is not None:
                # Packet tier wraps the algorithm in a NetRSSelector.
                total += getattr(selector, "algorithm", selector).selections
    return total


def counters(result, selections):
    """Work counts read from the public result, per simulated request."""
    config = result.config
    requests = config.total_requests
    return {
        "sim.events_per_req": (result.events_executed / requests, "count"),
        "mesoscale.micro_events_per_req": (result.micro_events / requests, "count"),
        "network.tx_per_req": (result.transmissions / requests, "count"),
        "network.bytes_per_req": (result.bytes_transferred / requests, "B"),
        "network.netrs_overhead_share": (result.protocol_overhead_fraction(), "share"),
        "network.packets_dropped": (result.packets_dropped, "count"),
        "network.acc_util_max": (result.accelerator_max_utilization, "share"),
        "selection.selects_per_req": (selections / requests, "count"),
        "core.rsnode_count": (result.rsnode_count, "count"),
        "core.drs_groups": (result.drs_group_count, "count"),
        "core.rsnode_selects_per_req": (result.selector_requests_handled / requests, "count"),
        "kvstore.redundant_per_req": (result.redundant_requests / requests, "count"),
        "kvstore.timeouts_per_req": (result.timeouts / requests, "count"),
        "kvstore.retries_per_req": (result.retries / requests, "count"),
        "kvstore.digest_probes_per_req": (result.digest_probes_sent / requests, "count"),
        "kvstore.read_repairs": (result.read_repairs, "count"),
        "kvstore.stale_reads": (result.stale_reads, "count"),
        "kvstore.write_failures": (result.write_failures, "count"),
        "kvstore.migrated_keys": (result.migrated_keys, "count"),
        "kvstore.migration_bytes": (result.migration_bytes, "B"),
        "faults.injected": (result.faults_injected, "count"),
        "faults.unavailability_s": (result.unavailability, "s"),
        "exec.jobs": (config.shards if config.shards > 1 else 0, "count"),
    }


def trace(workload, seed, seconds):
    """Alternate profiled and plain cells for ``seconds``; attribute to layers.

    Every cell is pooled cell 0 and the first profiled cell follows one plain
    cell, as in ``measure``, so its call counts are the ones ``measure``
    reports as ``calls_per_req``.  Shares are medians over the profiled cells;
    phase times and the overhead base come from the plain ones.
    """
    config = workload.config(seed, 0)
    requests = config.total_requests
    spans = Spans(workload.name)
    result = run_experiment(config)
    expected = fingerprint(result)
    problems = check(result)
    shares, layer_calls, total_calls = [], None, None
    deadline = time.perf_counter() + seconds
    rep = 0
    while rep < 2 or time.perf_counter() < deadline:
        traced = rep % 2 == 0
        result = None
        gc.collect()
        with spans.span("cell", traced=traced) as cell:
            if traced:
                # The whole public call, set-up included, under the profiler.
                with spans.span("run", cell, traced):
                    result, stats = profiled_cell(config)
            else:
                with spans.span("build", cell):
                    prepared = build(config)
                with spans.span("run", cell):
                    result = run(config, prepared)
                del prepared
            with spans.span("collect", cell, traced):
                result.summary()
                result.describe()
        if fingerprint(result) != expected:
            problems.append(f"determinism: cell {rep} changed its digest")
        if traced:
            seconds_by_layer, calls_by_layer = layers.attribute(stats, SRC_ROOT)
            total = sum(seconds_by_layer.values())
            shares.append({name: value / total for name, value in seconds_by_layer.items()})
            if total_calls is None:
                layer_calls = calls_by_layer
                total_calls = sum(entry.callcount for entry in stats)
            del stats
        rep += 1

    reference_problems, fidelity_err = check_reference(workload, seed, expected)
    problems += reference_problems
    # Selector counters live on the scenario/engine, which a sharded run does
    # not hand back: run the shards one by one and keep each.
    kept = [run_experiment(sub, keep_scenario=True) for sub in shard_configs(config)]
    selections = _selections(kept)
    del kept

    metrics = {}
    table = {}
    for name in layers.LAYERS:
        share = statistics.median(cell[name] for cell in shares)
        metrics[f"{name}.self_share"] = (share, "share")
        metrics[f"{name}.calls_per_req"] = (layer_calls[name] / requests, "count")
        table[name] = {
            "self_share": share,
            "calls": layer_calls[name],
            "calls_per_req": layer_calls[name] / requests,
        }
    metrics.update(counters(result, selections))
    for phase in ("build", "run", "collect"):
        metrics[f"experiments.{phase}_s"] = (
            statistics.median(spans.durations(phase, traced=False)), "s",
        )
    overhead = statistics.median(spans.durations("cell", True, "cpu")) / statistics.median(
        spans.durations("cell", False, "cpu")
    )
    metrics["trace_overhead"] = (overhead, "ratio")

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"trace-{workload.name}.json")
    with open(path, "w") as handle:
        json.dump(
            {
                "workload": workload.name,
                "seed": seed,
                "requests": requests,
                "calls": total_calls,
                "layers": table,
                "metrics": {name: value for name, (value, _) in metrics.items()},
                "spans": spans.spans,
            },
            handle,
            indent=1,
        )
    return {
        "metrics": metrics,
        "attempted": requests,
        "failed": requests if problems else failed_operations(result),
        "problems": problems,
        "detail": {
            "cells_profiled": len(shares),
            "calls_per_req": total_calls / requests,
            "trace_file": os.path.relpath(path, HERE),
            "fidelity_err": fidelity_err,
            "digest": expected[0],
        },
    }

"""The repo's benchmark: five workloads, noise-normalised cost, exact counts.

Three ways in, one file:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One workload in this process.  ``--trace 0`` prints the end-to-end
    metrics, ``--trace 1`` the per-layer metrics; the last line of standard
    output is one JSON object.  This is the command ``BENCHMARK.json`` names.

``run.py [--seed N] [--seconds S] [--out FILE]``
    Every workload, both ways, one child process at a time, folded into one
    stamped report.

``run.py --compare A.json B.json``
    Apply each end-to-end metric's bound, one row per (workload, metric).

See README.md beside this file for the metrics and the measurement protocol.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")

#: Report fields that must agree before two reports may be compared.
_MUST_MATCH = ("python", "numpy", "engine_backend", "seed", "seconds", "pool", "reference_kernel")


def _load_declaration():
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _use_checkout_source():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"run.py: no simulator source at {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    # Either would silently change what the flow workloads execute.
    os.environ.pop("REPRO_SHARD_WORKERS", None)
    os.environ.pop("REPRO_VECTOR_FORCE", None)


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def run_cell(args):
    _use_checkout_source()
    import cell
    import workloads

    workload = workloads.BY_NAME.get(args.workload)
    if workload is None:
        sys.exit(f"run.py: unknown workload {args.workload!r}; choose from {sorted(workloads.BY_NAME)}")
    run = cell.trace if args.trace else cell.measure
    outcome = run(workload, args.seed, args.seconds)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in outcome["metrics"].items():
        spread = outcome["detail"].get("quartiles", {}).get(name)
        note = f"   (q1 {spread[0]:.6g}, q3 {spread[2]:.6g})" if spread else ""
        print(f"  {name:34s} {value:14.6g} {unit}{note}")
    detail = outcome["detail"]
    if not args.trace:
        print(
            f"  not metrics, they do not repeat: cpu_us_per_req {detail['cpu_us_per_req']:.1f}, "
            f"req_per_cpu_s {detail['req_per_cpu_s']:.0f}; reference kernel pass "
            f"{detail['reference_kernel_s'][1] * 1e3:.1f} ms; {detail['reps_timed']} timed reps; "
            f"pooled cells' set-up {detail['pooled_build_s'][1]:.3f} s "
            f"(q1 {detail['pooled_build_s'][0]:.3f}, q3 {detail['pooled_build_s'][2]:.3f}); "
            f"{detail['latency_samples']} latency samples"
        )
    print(
        f"  ops_attempted {outcome['attempted']}  ops_failed {outcome['failed']}  "
        f"fidelity_err={detail['fidelity_err']:g}  digest {detail['digest'][:16]}"
    )
    for problem in outcome["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print("detail " + json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": not outcome["problems"],
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()
                },
            }
        )
    )
    return 1 if outcome["problems"] else 0


# ----------------------------------------------------------------------
# Every workload, one child at a time
# ----------------------------------------------------------------------
def _stamp(args, declaration):
    _use_checkout_source()
    import numpy
    import scipy
    from repro.sim import backend

    import refkernel
    import workloads

    try:
        commit = subprocess.run(
            ["git", "-C", REPO, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # the driver's checkout is not a git repository
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "engine_backend": backend.resolve("auto").describe(),
        "numba": backend.numba_version(),
        "cython": backend.cython_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "pool": workloads.POOL,
        "reference_kernel": refkernel.VERSION,
        "workloads": [entry["name"] for entry in declaration["workloads"]],
    }


def run_all(args):
    declaration = _load_declaration()
    report = {"stamp": _stamp(args, declaration), "workloads": {}}
    started = time.perf_counter()
    status = 0
    for name in report["stamp"]["workloads"]:
        entry = {}
        for trace in (0, 1):
            command = [
                sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            child = subprocess.run(command, capture_output=True, text=True)
            sys.stdout.write(child.stdout)
            sys.stderr.write(child.stderr)
            lines = child.stdout.splitlines()
            if child.returncode != 0:
                status = 1
            if not lines or not lines[-1].startswith("{"):
                status = 1  # the child died before printing its result
                continue
            result = json.loads(lines[-1])
            detail = next(
                (json.loads(line[len("detail "):]) for line in lines if line.startswith("detail ")), {}
            )
            entry["per_layer" if trace else "end_to_end"] = {"result": result, "detail": detail}
        report["workloads"][name] = entry
    # Reference-kernel quartiles per workload: host drift shows here first.
    report["stamp"]["reference_kernel_s"] = {
        name: entry["end_to_end"]["detail"]["reference_kernel_s"]
        for name, entry in report["workloads"].items()
        if "end_to_end" in entry
    }
    report["stamp"]["trace_overhead"] = {
        name: entry["per_layer"]["result"]["metrics"]["trace_overhead"]["value"]
        for name, entry in report["workloads"].items()
        if "per_layer" in entry
    }
    report["stamp"]["total_s"] = time.perf_counter() - started
    print(f"total {report['stamp']['total_s']:.0f} s; status {'FAILED' if status else 'ok'}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
    return status


# ----------------------------------------------------------------------
# Compare two reports
# ----------------------------------------------------------------------
def _runs(entry, metric):
    """Every value one report holds for a metric: per-rep where it has them."""
    samples = entry["detail"].get("samples", {}).get(metric)
    return samples or [entry["result"]["metrics"][metric]["value"]]


def _spread(values):
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def verdict(runs_a, runs_b, bound, better):
    """How B stands to A on one (workload, metric): (verdict, change).

    ``change`` is B's median against A's as a share of A's, positive when
    worse.  A spread wider than the bound leaves the pair *unresolved*, not
    *unchanged* -- unless every run of one side beats every run of the other.
    """
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(runs_a), statistics.median(runs_b)
    change = sign * (median_b - median_a) / median_a
    if runs_a == runs_b:
        return "identical", change
    cost_a, cost_b = [sign * v for v in runs_a], [sign * v for v in runs_b]
    separated = min(cost_b) > max(cost_a) or max(cost_b) < min(cost_a)
    if not separated and max(_spread(runs_a), _spread(runs_b)) > bound:
        return "unresolved", change
    if change > bound:
        return "REGRESSED", change
    if change < -bound:
        return "improved", change
    return "unchanged", change


def compare(path_a, path_b):
    with open(path_a) as handle:
        report_a = json.load(handle)
    with open(path_b) as handle:
        report_b = json.load(handle)
    differing = [
        f"{key}: {report_a['stamp'].get(key)!r} vs {report_b['stamp'].get(key)!r}"
        for key in _MUST_MATCH
        if report_a["stamp"].get(key) != report_b["stamp"].get(key)
    ]
    if differing:
        sys.exit("run.py: refusing to compare, the reports differ in " + "; ".join(differing))
    declared = _load_declaration()["end_to_end"]
    regressed = False
    print(f"{'workload':18s} {'metric':15s} {'A median':>12s} {'B median':>12s} {'change':>8s} {'bound':>6s}  verdict")
    for name in report_a["stamp"]["workloads"]:
        a, b = report_a["workloads"][name]["end_to_end"], report_b["workloads"][name]["end_to_end"]
        for metric in declared:
            runs_a, runs_b = _runs(a, metric["name"]), _runs(b, metric["name"])
            outcome, change = verdict(runs_a, runs_b, metric["bound"], metric["better"])
            regressed |= outcome == "REGRESSED"
            print(
                f"{name:18s} {metric['name']:15s} {statistics.median(runs_a):12.6g} "
                f"{statistics.median(runs_b):12.6g} {change:+8.2%} {metric['bound']:6.0%}  {outcome}"
            )
        failed_a, failed_b = a["result"]["failed"], b["result"]["failed"]
        print(f"{name:18s} {'ops_failed':15s} {failed_a:12d} {failed_b:12d} of {a['result']['attempted']} attempted")
        regressed |= failed_b > failed_a
    return 1 if regressed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run this one workload in-process (default: all, in children)")
    parser.add_argument("--seed", type=int, default=1, help="the only workload input")
    parser.add_argument("--seconds", type=float, default=None, help="how long one run measures (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--out", help="write the full report here (all-workloads mode)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"), help="compare two full reports")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = _load_declaration()["run_seconds"]
    if args.workload:
        return run_cell(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the layered benchmark: ``python -m pytest benchmarks/layered -q``.

Outside ``testpaths``, so the tier-1 suite does not run it.  One smoke report
(every workload, ``--seconds 1``) feeds most tests; it takes about two
minutes because every run simulates its sixteen pooled cells whatever
``--seconds`` says.
"""

import ast
import json
import os
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
RUN = os.path.join(HERE, "run.py")

sys.path.insert(0, HERE)
import run  # noqa: E402 - stdlib-only at import time

with open(os.path.join(REPO, "BENCHMARK.json")) as _handle:
    DECLARED = json.load(_handle)
WORKLOADS = [entry["name"] for entry in DECLARED["workloads"]]
END_TO_END = [entry["name"] for entry in DECLARED["end_to_end"]]
PER_LAYER = [entry["name"] for entry in DECLARED["per_layer"]]
def _run(*args, env=None):
    return subprocess.run(
        [sys.executable, RUN, *args], capture_output=True, text=True, timeout=900,
        env={**os.environ, **(env or {})},
    )


@pytest.fixture(scope="module")
def report():
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "smoke-report.json")
    done = _run("--seed", "0", "--seconds", "1", "--out", path)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(path) as handle:
        return json.load(handle)


def _metrics(report, workload, section):
    return report["workloads"][workload][section]["result"]["metrics"]


def test_every_declared_name_is_emitted_once(report):
    assert list(report["workloads"]) == WORKLOADS
    for workload in WORKLOADS:
        assert sorted(_metrics(report, workload, "end_to_end")) == sorted(END_TO_END)
        assert sorted(_metrics(report, workload, "per_layer")) == sorted(PER_LAYER)
    assert len(set(END_TO_END + PER_LAYER)) == len(END_TO_END) + len(PER_LAYER)


def test_names_and_units_are_well_formed(report):
    units = {entry["name"]: entry["unit"] for entry in DECLARED["end_to_end"] + DECLARED["per_layer"]}
    for workload in WORKLOADS:
        for section in ("end_to_end", "per_layer"):
            for name, metric in _metrics(report, workload, section).items():
                assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
                assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
                assert metric["unit"] == units[name], name


def test_every_workload_is_correct_and_exact(report):
    for workload in WORKLOADS:
        for section in ("end_to_end", "per_layer"):
            entry = report["workloads"][workload][section]
            assert entry["result"]["correct"] is True, (workload, section)
            assert entry["result"]["failed"] == 0
            assert entry["result"]["attempted"] >= 1
            assert entry["detail"]["fidelity_err"] == 0
        for value in _metrics(report, workload, "end_to_end").values():
            assert value["value"] > 0


def test_layer_calls_sum_to_the_total(report):
    for workload in WORKLOADS:
        layers = _metrics(report, workload, "per_layer")
        total = sum(m["value"] for name, m in layers.items() if name.endswith(".calls_per_req"))
        declared = _metrics(report, workload, "end_to_end")["calls_per_req"]["value"]
        assert total == pytest.approx(declared, rel=1e-9), workload
        shares = sum(m["value"] for name, m in layers.items() if name.endswith(".self_share"))
        assert shares == pytest.approx(1.0, abs=0.05), workload


def test_attribution_covers_the_tree_and_predicted_zeros_hold(report):
    for workload in WORKLOADS:
        share = {
            name[: -len(".self_share")]: metric["value"]
            for name, metric in _metrics(report, workload, "per_layer").items()
            if name.endswith(".self_share")
        }
        assert share["other"] < 0.05, workload
        if workload.startswith("flow-"):
            for layer, value in share.items():
                if layer.startswith("network.") or layer == "sim.core":
                    assert value < 0.02, (workload, layer)
        else:
            for layer, value in share.items():
                if layer.startswith("mesoscale."):
                    assert value < 0.01, (workload, layer)
        if workload != "pkt-netrs-ilp":
            assert share["core"] < 0.01, workload


@pytest.mark.parametrize("workload", ["pkt-quorum-churn", "flow-tor-faults"])
def test_a_second_invocation_agrees_exactly(report, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = _run(
            "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace),
            env={"PYTHONHASHSEED": "12345"},
        )
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        again = json.loads(done.stdout.splitlines()[-1])["metrics"]
        first = _metrics(report, workload, section)
        for name in first:
            if name.endswith((".self_share", "_s")) or name in ("run_cost_ref", "trace_overhead"):
                continue  # host time
            # String hashing is randomised per process, which moves the
            # allocation peak by a few dozen bytes; everything else is exact.
            tolerance = 1e-4 if name == "peak_alloc_mib" else 0
            assert again[name]["value"] == pytest.approx(first[name]["value"], rel=tolerance, abs=0), name


def test_trace_file_holds_spans_and_layers(report):
    for workload in WORKLOADS:
        with open(os.path.join(OUT, f"trace-{workload}.json")) as handle:
            trace = json.load(handle)
        names = {span["name"] for span in trace["spans"]}
        assert names == {"cell", "build", "run", "collect"}
        by_id = {span["id"]: span for span in trace["spans"]}
        for span in trace["spans"]:
            assert span["workload"] == workload and span["end"] >= span["start"]
            if span["name"] != "cell":
                assert by_id[span["parent"]]["name"] == "cell"
        assert "other" in trace["layers"]


def test_reference_kernel_imports_nothing_from_repro():
    with open(os.path.join(HERE, "refkernel.py")) as handle:
        tree = ast.parse(handle.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert imported == {"heapq", "time"}


def test_bare_directory_exits_nonzero_without_a_result():
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "benchmarks", "layered"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), bare)
    done = subprocess.run(
        [sys.executable, "benchmarks/layered/run.py", "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""


def test_failed_check_is_reported():
    sys.path.insert(0, os.path.join(REPO, "src"))
    import cell
    from repro.experiments import ExperimentConfig

    config = ExperimentConfig.tiny(churn_schedule="node-leave@0.01:server#1")
    result = SimpleNamespace(
        config=config, completed_requests=config.total_requests - 1,
        latency=[0.0] * 10, write_latency=None, requests_lost=0, write_failures=0,
        churn_events=0, faults_injected=0,
        summary=lambda: {"mean": float("nan"), "p99": 1.0},
    )
    problems = cell.check(result)
    assert [problem.split(":")[0] for problem in problems] == [
        "conservation", "samples", "latency mean is nan", "churn_events",
    ]


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def test_verdicts():
    tight_a, tight_b = [1.00, 1.01, 0.99, 1.00], [1.02, 1.01, 1.00, 1.03]
    assert run.verdict(tight_a, tight_a, 0.1, "lower")[0] == "identical"
    assert run.verdict(tight_a, tight_b, 0.1, "lower")[0] == "unchanged"
    assert run.verdict(tight_a, [v * 1.3 for v in tight_a], 0.1, "lower")[0] == "REGRESSED"
    assert run.verdict(tight_a, [v * 0.7 for v in tight_a], 0.1, "lower")[0] == "improved"
    assert run.verdict(tight_a, [v * 0.7 for v in tight_a], 0.1, "higher")[0] == "REGRESSED"
    # Spread wider than the bound: unresolved, not unchanged ...
    wide_a, wide_b = [1.0, 1.4, 0.7, 1.2], [1.1, 1.3, 0.8, 1.0]
    assert run.verdict(wide_a, wide_b, 0.1, "lower")[0] == "unresolved"
    # ... unless every run of one side beats every run of the other.
    assert run.verdict(wide_a, [v * 3 for v in wide_a], 0.1, "lower")[0] == "REGRESSED"
    assert run.verdict(wide_a, [v / 3 for v in wide_a], 0.1, "lower")[0] == "improved"


def test_compare_a_report_with_itself_and_refuse_a_different_seed(report, capsys):
    path = os.path.join(OUT, "smoke-report.json")
    assert run.compare(path, path) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if line.split()[0] in WORKLOADS]
    assert len(rows) == len(WORKLOADS) * (len(END_TO_END) + 1)
    assert all(row.endswith(("identical", "attempted")) for row in rows)
    other = os.path.join(OUT, "smoke-report-other-seed.json")
    with open(other, "w") as handle:
        json.dump({**report, "stamp": {**report["stamp"], "seed": 1}}, handle)
    with pytest.raises(SystemExit, match="seed"):
        run.compare(path, other)

"""``benchmarks/ab.py`` states the verdict on the timed metrics, ``setup_s`` and
``run_cost_ref``, itself, and holds every metric that moved against the bound
``BENCHMARK.json`` declares for it."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmarks", "ab.py")
_spec = importlib.util.spec_from_file_location("bench_ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

BASE = [0.50, 0.51, 0.49, 0.50, 0.52, 0.50, 0.49, 0.51, 0.50, 0.50]


def test_nine_pairs_and_a_gap_wider_than_the_base_s_quartiles_resolve():
    change = [b - 0.05 for b in BASE]
    change[3] = BASE[3] + 0.01  # one pair lost: nine of ten still
    assert "won 9, lost 1 of 10   resolved" in ab._verdict(BASE, change)


def test_eight_pairs_do_not():
    change = [b - 0.05 for b in BASE]
    change[3], change[4] = BASE[3] + 0.01, BASE[4]  # one lost, one tied
    assert "won 8, lost 1 of 10   unresolved" in ab._verdict(BASE, change)


def test_a_gap_inside_the_base_s_own_spread_does_not():
    change = [b - 0.001 for b in BASE]
    assert "won 10, lost 0 of 10   unresolved" in ab._verdict(BASE, change)
    assert "unresolved (fewer than 5 pairs)" in ab._verdict(BASE[:1], change[:1])


@pytest.mark.parametrize("pairs", [2, 3, 4])
def test_fewer_than_five_pairs_never_resolve(pairs):
    """Three pairs won by a mile: the base's quartiles are two of its three
    runs, so the gap says nothing about the spread."""
    base = [0.50, 0.60, 0.70, 0.55][:pairs]
    change = [b - 0.3 for b in base]
    assert f"won {pairs}, lost 0 of {pairs}   unresolved (fewer than 5 pairs)" in (
        ab._verdict(base, change)
    )
    assert "   resolved" in ab._verdict(base * 3, change * 3)  # six pairs or more can


@pytest.mark.parametrize("name", ["setup_s", "run_cost_ref"])
def test_both_timed_metrics_get_a_verdict(name):
    entry = _declared(name)
    line, is_over = ab._report(entry, BASE, [b * 1.3 for b in BASE])
    assert "won 0, lost 10 of 10   unresolved" in line and not is_over
    line, _ = ab._report(entry, BASE, [b - 0.05 for b in BASE])
    assert "won 10, lost 0 of 10   resolved" in line



def _declared(name):
    with open(os.path.join(os.path.dirname(_PATH), os.pardir, "BENCHMARK.json")) as handle:
        return next(e for e in json.load(handle)["end_to_end"] if e["name"] == name)


@pytest.mark.parametrize(
    "base, change, says, over",
    [
        (2.635, 2.987, "DIFFERS   OVER bound 5%: +13.4%", True),  # the per-pair memo
        (2.635, 2.656, "DIFFERS   within bound (+0.8%)", False),  # the per-destination table
        (2.635, 2.1, "DIFFERS   within bound (-20.3%)", False),  # better is never over
        (2.635, 2.635, "identical", False),
    ],
)
def test_an_exact_metric_is_held_against_its_declared_bound(base, change, says, over):
    line, is_over = ab._report(_declared("peak_alloc_mib"), [base] * 3, [change] * 3)
    assert line.endswith(says) and is_over is over


def test_a_noisy_median_is_reported_against_its_bound_but_never_fails_the_run():
    entry = _declared("run_cost_ref")
    line, is_over = ab._report(entry, BASE, [b * 1.2 for b in BASE])
    assert "OVER bound 15%: +20.0%" in line and "unresolved" in line and not is_over
    line, is_over = ab._report(entry, BASE, [b - 0.05 for b in BASE])
    assert "within bound (-10.0%)" in line and "   resolved" in line and not is_over


def test_the_tool_exits_non_zero_on_an_exact_metric_over_its_bound(monkeypatch, capsys):
    metrics = dict(setup_s=0.1, run_cost_ref=0.5, calls_per_req=189.38,
                   peak_alloc_mib=2.635, sim_mean_ms=3.0, sim_p99_ms=9.0)
    monkeypatch.setattr(ab, "_git", lambda *args, **kwargs: "0" * 40)
    monkeypatch.setattr(ab, "_base_checkout", lambda sha, directory: False)
    monkeypatch.setattr(
        ab, "_run",
        lambda command, checkout: metrics if checkout != ab.REPO
        else dict(metrics, calls_per_req=151.45, peak_alloc_mib=2.987),
    )
    monkeypatch.setattr(
        "sys.argv", ["ab.py", "--base", "HEAD", "--workload", "pkt-quorum-churn", "--pairs", "2"]
    )
    with pytest.raises(SystemExit, match="over its bound: peak_alloc_mib$"):
        ab.main()
    printed = capsys.readouterr().out
    assert "calls_per_req    exact   189.38 -> 151.45   DIFFERS   within bound (-20.0%)" in printed

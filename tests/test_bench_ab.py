"""``benchmarks/ab.py`` states the verdict on ``run_cost_ref`` itself."""

import importlib.util
import os

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
    assert "unresolved (one pair)" in ab._verdict(BASE[:1], change[:1])

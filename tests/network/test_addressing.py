"""Tests for source markers and the traffic-tier table."""

import pytest

from repro.network.addressing import (
    TIER_AGG,
    TIER_BY_MATCH,
    TIER_CORE,
    TIER_TOR,
    SourceMarker,
)


@pytest.mark.parametrize(
    "same_pod, same_rack, tier",
    [(True, True, TIER_TOR), (True, False, TIER_AGG), (False, False, TIER_CORE)],
)
def test_tier_by_match_is_the_highest_tier_a_default_path_climbs(
    same_pod, same_rack, tier
):
    assert TIER_BY_MATCH[same_pod][same_rack] == tier
    assert (TIER_TOR, TIER_AGG, TIER_CORE) == (2, 1, 0)


class TestSourceMarker:
    def test_markers_hashable_and_equal(self):
        assert SourceMarker(pod=1, rack=1) == SourceMarker(pod=1, rack=1)
        assert len({SourceMarker(pod=1, rack=1), SourceMarker(pod=1, rack=1)}) == 1

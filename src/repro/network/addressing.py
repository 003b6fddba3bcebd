"""Source markers and the paper's tier numbering.

The paper's tier numbering (section III-B): the tier ID of a device is the
minimum number of links between it and any core switch.  Core = 0,
aggregation = 1, ToR = 2.  Traffic categories use the *highest* tier a
default path climbs to: Tier-2 = intra-rack, Tier-1 = intra-pod inter-rack,
Tier-0 = inter-pod.
"""

from __future__ import annotations

from dataclasses import dataclass

TIER_CORE = 0
TIER_AGG = 1
TIER_TOR = 2

#: The traffic tier by ``[same pod][same rack]``: the one definition of the
#: relation, which the ToR monitors read in place for every response.
TIER_BY_MATCH = ((TIER_CORE, TIER_CORE), (TIER_AGG, TIER_TOR))


@dataclass(frozen=True, slots=True)
class SourceMarker:
    """Paper Fig. 2 ``SM`` segment: pod ID + rack ID of a response's origin.

    A ToR switch compares an incoming marker against its own to classify a
    response as intra-rack / intra-pod / inter-pod (section IV-D).
    """

    pod: int
    rack: int


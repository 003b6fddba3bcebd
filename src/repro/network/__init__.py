"""Data-center network substrate.

Implements the environment NetRS runs in (paper section II):

* :mod:`~repro.network.topology` / :mod:`~repro.network.fattree` -- n-tier
  tree topologies and the k-ary fat-tree used in the evaluation,
* :mod:`~repro.network.geometry` -- the locality relation both tiers read:
  a host's ToR, rack and pod, and the links between two points,
* :mod:`~repro.network.routing` -- deterministic ECMP up/down routing,
  including routing *via* a waypoint switch (the RSNode),
* :mod:`~repro.network.packet` -- the NetRS packet format (paper Fig. 2),
* :mod:`~repro.network.fabric` -- the device registry + link-latency model,
* :mod:`~repro.network.switch` -- programmable switches with the NetRS rules
  pipeline (paper Fig. 3),
* :mod:`~repro.network.accelerator` -- network accelerators running the
  NetRS selector,
* :mod:`~repro.network.host` -- end-host NIC glue.
"""

from repro.network.accelerator import Accelerator
from repro.network.addressing import SourceMarker
from repro.network.fabric import Network
from repro.network.fattree import build_fat_tree, shared_fat_tree
from repro.network.geometry import FatTreeGeometry, shared_geometry
from repro.network.host import Host
from repro.network.packet import (
    MAGIC_MONITOR,
    MAGIC_REQUEST,
    MAGIC_RESPONSE,
    Packet,
    ServerStatus,
    magic_transform,
    magic_untransform,
)
from repro.network.routing import Router
from repro.network.switch import ProgrammableSwitch
from repro.network.topology import Node, NodeKind, Topology, build_tree

__all__ = [
    "Accelerator",
    "FatTreeGeometry",
    "Host",
    "MAGIC_MONITOR",
    "MAGIC_REQUEST",
    "MAGIC_RESPONSE",
    "Network",
    "Node",
    "NodeKind",
    "Packet",
    "ProgrammableSwitch",
    "Router",
    "ServerStatus",
    "SourceMarker",
    "Topology",
    "build_fat_tree",
    "build_tree",
    "magic_transform",
    "magic_untransform",
    "shared_fat_tree",
    "shared_geometry",
]

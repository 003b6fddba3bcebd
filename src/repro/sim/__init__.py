"""Discrete-event simulation engine.

This subpackage is the substrate every other component runs on.  It provides:

* :class:`~repro.sim.core.Environment` -- the event loop with a virtual clock;
  everything scheduled on it is a callback, cancellable
  (:meth:`~repro.sim.core.Environment.call_at` /
  :meth:`~repro.sim.core.Environment.call_in`, which return a handle) or not
  (:meth:`~repro.sim.core.Environment.post_at` /
  :meth:`~repro.sim.core.Environment.post_in`, the per-packet hot path),
* :mod:`~repro.sim.rng` -- named, reproducible random streams,
* :class:`~repro.sim.probes.LatencyRecorder` -- exact latency percentiles.
"""

from repro.sim.core import Environment, SimulationError, StopSimulation
from repro.sim.probes import LatencyRecorder
from repro.sim.rng import BatchedStream, RngRegistry

__all__ = [
    "BatchedStream",
    "Environment",
    "LatencyRecorder",
    "RngRegistry",
    "SimulationError",
    "StopSimulation",
]

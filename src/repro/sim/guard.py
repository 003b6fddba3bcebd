"""Determinism guard: global randomness and host-clock reads raise inside a run.

The reproduction's one product is that the same config gives the same bytes.
Two things break that without any test noticing a single run: a draw from a
globally seeded (or freshly seeded) RNG, and a read of the host clock.
:func:`deterministic_guard` turns both into :class:`NondeterminismError`:
it swaps the module-level entry points of the stdlib ``random`` module,
numpy's convenience API and the ``time`` module's clocks for stand-ins that
raise, naming the offender.  :func:`~repro.experiments.runner.run_experiment`
runs every build, drive and collect under it, so every engine, every
in-process shard and every spawned ``--jobs`` worker is checked by whatever
runs it, tests included.

Methods on explicit ``np.random.Generator`` instances -- the only sanctioned
source of randomness, via :mod:`repro.sim.rng` -- are untouched.  Wall time
reported beside a result (``wall_time``, a plan's ``solve_time``) and never
fed back into simulated state reads :data:`host_clock`, which is bound here
at import, before any guard can swap it.

The stand-ins are built once at import, so entering the guard only swaps
module attributes.  The guard is process-global while active, so it is not
meant for concurrent use from several threads.  Nesting works: each ``with``
saves whatever it found and restores it on exit.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

import numpy as np

__all__ = ["NondeterminismError", "deterministic_guard", "host_clock"]


class NondeterminismError(RuntimeError):
    """A global RNG entry point or a host clock was called inside a run."""


#: The host clock instrumentation reads inside a run: wall time reported
#: beside a result, never fed back into simulated state.
host_clock = time.perf_counter

#: stdlib ``random`` functions that consume or reseed the hidden global state.
_STDLIB_NAMES: Tuple[str, ...] = (
    "random", "uniform", "randint", "randrange", "choice", "choices",
    "sample", "shuffle", "betavariate", "expovariate", "gauss",
    "normalvariate", "lognormvariate", "paretovariate", "weibullvariate",
    "triangular", "vonmisesvariate", "gammavariate", "getrandbits", "seed",
)

#: ``numpy.random`` module-level functions (legacy global state or fresh
#: entropy); Generator construction via explicit seed material stays legal.
_NUMPY_NAMES: Tuple[str, ...] = (
    "default_rng", "seed", "random", "rand", "randn", "randint", "choice",
    "shuffle", "permutation", "uniform", "normal", "standard_normal",
    "exponential", "poisson", "binomial", "beta", "gamma", "bytes",
    "random_sample", "sample", "zipf",
)

#: ``time`` module clocks.
_CLOCK_NAMES: Tuple[str, ...] = (
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
)

_RNG_REMEDY = (
    "all randomness in simulated code must come from a named stream of "
    "repro.sim.rng.RngRegistry (derived from the experiment seed)"
)
_CLOCK_REMEDY = (
    "simulated time is the engine's clock; wall time reported beside a "
    "result reads repro.sim.guard.host_clock"
)


def _stand_in(qualified: str, remedy: str):
    def blocked(*_args: object, **_kwargs: object) -> None:
        raise NondeterminismError(
            f"`{qualified}` was called inside a run; {remedy}"
        )

    blocked.__name__ = qualified.rsplit(".", 1)[-1]
    blocked.__qualname__ = f"deterministic_guard.blocked[{qualified}]"
    return blocked


#: (module namespace, name -> raising stand-in), built once at import.
_PATCHES: Tuple[Tuple[Dict[str, object], Dict[str, object]], ...] = tuple(
    (
        vars(module),
        {
            name: _stand_in(f"{prefix}.{name}", remedy)
            for name in names
            if hasattr(module, name)
        },
    )
    for module, prefix, names, remedy in (
        (random, "random", _STDLIB_NAMES, _RNG_REMEDY),
        (np.random, "np.random", _NUMPY_NAMES, _RNG_REMEDY),
        (time, "time", _CLOCK_NAMES, _CLOCK_REMEDY),
    )
)


@contextmanager
def deterministic_guard() -> Iterator[None]:
    """Turn global-RNG calls and host-clock reads into hard errors."""
    saved: List[Tuple[Dict[str, object], Dict[str, object]]] = []
    try:
        for namespace, stand_ins in _PATCHES:
            found: Dict[str, object] = {}
            for name in stand_ins:
                found[name] = namespace[name]
            saved.append((namespace, found))
            namespace.update(stand_ins)
        yield
    finally:
        for namespace, found in reversed(saved):
            namespace.update(found)

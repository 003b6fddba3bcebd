"""Pluggable compiled backends for the event core.

The simulator's hot loops are pure Python by design (byte-identical,
debuggable, dependency-free), but three of them dominate packet-tier wall
time and have compiled counterparts behind this registry:

* **C3 scoring** -- the single-pass minimum over candidate scores in
  :meth:`repro.selection.c3.C3Selector.select`;
* **fabric trunk timing** -- the chained per-hop delay accumulation in
  :meth:`repro.network.fabric.Network._deliver_trunk` (the ULP-exact float
  chain that byte-identity requires);
* **trunk settlement** -- the per-pending-trunk undone-hop count in
  :meth:`repro.network.fabric.Network.settle_trunks`.

A backend is a named bundle of kernels sharing one interface
(:data:`KERNEL_NAMES`); ``repro.sim._kernels_numba`` provides the numba
``@njit`` implementations and ``repro.sim._kernels_cython`` the (optional)
Cython ones.  Neither dependency is required: resolution degrades to the
pure-Python reference loops, which remain the oracle -- every kernel mirrors
its reference loop operation for operation, and the byte-identity suites run
against every installed backend.

The **engine dispatch loop itself is deliberately not compiled**.  The
schedule containers are C already (``collections.deque``, ``heapq``), each
entry dispatches into arbitrary Python callbacks, and crossing the
compiled/interpreted boundary once per event costs more than the loop body
saves.  Measured on the Figure-4 slice, dispatch is ~4 % of wall time after
the structural work (trunk collapse, batched same-timestamp drains) --
see docs/SIMULATOR.md ("Backends") for the numbers behind this rejection.

Selection rules (``ExperimentConfig.engine_backend``):

* ``"auto"`` (default) -- numba if importable, else cython, else python;
  never raises.
* ``"python"`` -- the reference loops, always available.
* ``"numba"`` / ``"cython"`` -- that compiled backend, or
  :class:`~repro.errors.ConfigurationError` if the dependency is missing
  (explicit requests must not silently degrade: benchmark comparisons
  across backends are meaningless -- see ``repro.sim.bench --compare``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Tuple

from repro.errors import ConfigurationError

#: Every backend name accepted by :func:`resolve` (and the config knob).
BACKEND_CHOICES = ("auto", "python", "numba", "cython")

#: The kernel entry points a compiled backend module must export.  One
#: interface, two implementations: the modules are drop-in replacements.
KERNEL_NAMES = (
    "c3_select",
    "chained_arrival",
    "count_undone_hops",
    "path_chain",
    "hop_class_batch",
)

#: Where each kernel's implementations live (``path:qualname``).  This is
#: the registry behind the "edit the reference loop in the same commit"
#: rule in the kernel modules' docstrings: ``repro.sim.contracts`` turns it
#: into CON001 mirror contracts, so ``netrs contracts`` fails CI when the
#: implementations drift apart.  ``reference`` names the pure-Python oracle
#: loop (checked at runtime by the byte-identity suites; its surrounding
#: control flow differs too much for a static body pair, so the scoring
#: formula is pinned by an expression anchor instead -- see
#: ``repro.sim.contracts.EXPR_ANCHORS``).
KERNEL_MIRRORS = {
    "c3_select": {
        "reference": "src/repro/selection/c3.py:C3Selector.select",
        "numba": "src/repro/sim/_kernels_numba.py:c3_select",
        "cython": "src/repro/sim/_kernels_cython.py:c3_select",
        "cython_score": "src/repro/sim/_kernels_cython.py:_score",
    },
    "chained_arrival": {
        "reference": "src/repro/network/fabric.py:Network._deliver_trunk",
        "numba": "src/repro/sim/_kernels_numba.py:chained_arrival",
        "cython": "src/repro/sim/_kernels_cython.py:chained_arrival",
    },
    "count_undone_hops": {
        "reference": "src/repro/network/fabric.py:Network.settle_trunks",
        "numba": "src/repro/sim/_kernels_numba.py:count_undone_hops",
        "cython": "src/repro/sim/_kernels_cython.py:count_undone_hops",
    },
    # Whole-request SoA kernels of the vectorized flow tier; here the
    # pure-Python "reference" is itself a numpy function (the oracle the
    # byte-identity suites compare against is the *scalar* flow engine).
    "path_chain": {
        "reference": "src/repro/mesoscale/vector.py:path_chain",
        "numba": "src/repro/sim/_kernels_numba.py:path_chain",
        "cython": "src/repro/sim/_kernels_cython.py:path_chain",
    },
    "hop_class_batch": {
        "reference": "src/repro/mesoscale/vector.py:hop_class_batch",
        "numba": "src/repro/sim/_kernels_numba.py:hop_class_batch",
        "cython": "src/repro/sim/_kernels_cython.py:hop_class_batch",
    },
}


@dataclass(frozen=True)
class Backend:
    """A resolved event-core backend.

    ``kernels`` is the module exporting :data:`KERNEL_NAMES` for compiled
    backends and ``None`` for pure Python (callers keep their reference
    loops; there is nothing to dispatch to).
    """

    name: str  # "python" | "numba" | "cython"
    compiled: bool
    version: Optional[str] = None  # the compiler package's version
    kernels: Optional[object] = field(default=None, compare=False)

    def describe(self) -> str:
        """``"python"`` or e.g. ``"numba-0.59.1"`` (for bench metadata)."""
        if self.version is None:
            return self.name
        return f"{self.name}-{self.version}"


@lru_cache(maxsize=None)
def numba_version() -> Optional[str]:
    """Installed numba version, or None (probed once per process).

    A failing import scans all of ``sys.path``, and :func:`resolve` runs for
    every scenario built; see :func:`reset_probes`.
    """
    try:
        import numba  # noqa: F401 -- availability probe
    except ImportError:
        return None
    return getattr(numba, "__version__", "unknown")


@lru_cache(maxsize=None)
def cython_version() -> Optional[str]:
    """Installed Cython version, or None (probed once per process)."""
    try:
        import Cython  # noqa: F401 -- availability probe
    except ImportError:
        return None
    return getattr(Cython, "__version__", "unknown")


def reset_probes() -> None:
    """Forget the memoized compiler probes.

    For code that changes what is importable mid-process (the blocked-import
    tests); nothing in the simulator does.
    """
    numba_version.cache_clear()
    cython_version.cache_clear()


def available_backends() -> Tuple[str, ...]:
    """Concrete backends importable right now (``python`` always is)."""
    names = ["python"]
    if numba_version() is not None:
        names.append("numba")
    if cython_version() is not None:
        names.append("cython")
    return tuple(names)


def _load_kernels(name: str) -> object:
    if name == "numba":
        from repro.sim import _kernels_numba as kernels
    else:
        from repro.sim import _kernels_cython as kernels  # type: ignore[no-redef]
    missing = [k for k in KERNEL_NAMES if not callable(getattr(kernels, k, None))]
    if missing:  # pragma: no cover - guards future kernel additions
        raise ConfigurationError(
            f"backend {name!r} is missing kernels: {', '.join(missing)}"
        )
    return kernels


def resolve(name: str = "auto") -> Backend:
    """Resolve a backend name to a :class:`Backend`.

    ``"auto"`` prefers numba over cython over python and never raises;
    explicitly requesting an unavailable compiled backend raises
    :class:`ConfigurationError` (silent degradation would invalidate any
    benchmark comparison made against the run).
    """
    if name not in BACKEND_CHOICES:
        raise ConfigurationError(
            f"unknown engine backend {name!r}; choose from {BACKEND_CHOICES}"
        )
    if name == "auto":
        if numba_version() is not None:
            name = "numba"
        elif cython_version() is not None:
            name = "cython"
        else:
            return Backend("python", compiled=False)
    if name == "python":
        return Backend("python", compiled=False)
    version = numba_version() if name == "numba" else cython_version()
    if version is None:
        raise ConfigurationError(
            f"engine_backend={name!r} was requested explicitly but {name} is "
            "not installed; use 'auto' to fall back to pure Python"
        )
    return Backend(name, compiled=True, version=version, kernels=_load_kernels(name))

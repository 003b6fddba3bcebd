"""What ``benchmarks/layered/run.py::_stamp`` records about the event core.

The simulator is pure Python and loads no compiled code; the stamp's
backend, ``numba`` and ``cython`` fields say so.  This module exists only
for that stamp and goes when the benchmark drops those three fields.
"""

from __future__ import annotations


class _Python:
    def describe(self) -> str:
        return "python"


def resolve(name: str = "auto") -> _Python:
    """The event core: always the pure-Python one."""
    return _Python()


def numba_version() -> None:
    """No numba kernel is loaded, whatever is installed."""
    return None


def cython_version() -> None:
    """No Cython kernel is loaded, whatever is installed."""
    return None

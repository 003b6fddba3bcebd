"""Attribute a profiled cell's time and calls to the simulator's layers.

Layers are module paths under ``src/repro/``.  The measurement is taken from
outside: ``cProfile`` wraps the public call, and every profiled function is
charged to a layer by its source path.  Built-in and third-party frames
(numpy, scipy/HiGHS, heapq) have no layer of their own: their self time and
call counts are pushed up the profiler's caller table -- time split among
callers by each edge's cumulative time, calls by each edge's call count --
until they land on a ``repro`` frame.  A built-in that calls back into
``repro`` (``sorted`` with a key function, a heap comparing events) is
therefore not counted twice.  Whatever reaches no ``repro`` frame -- the
harness's own frame, ``repro`` modules with no layer below -- is ``other``.
Time and calls are both conserved: the layers sum to the profile's total.
"""

import os
from typing import Dict, Optional, Tuple

#: Modules that are a layer of their own, as (package, module).
_MODULE_LAYERS = {
    ("sim", "core"), ("sim", "rng"), ("sim", "probes"),
    ("network", "fabric"), ("network", "routing"), ("network", "switch"),
    ("network", "accelerator"), ("network", "packet"), ("network", "host"),
    ("kvstore", "client"), ("kvstore", "server"), ("kvstore", "workload"),
    ("kvstore", "hashing"), ("kvstore", "membership"),
    ("mesoscale", "flow"), ("mesoscale", "vector"), ("mesoscale", "geometry"),
    ("mesoscale", "shard"),
}
#: Packages that are one layer as a whole.
_PACKAGE_LAYERS = ("selection", "core", "faults", "exec", "experiments")
OTHER = "other"

LAYERS = tuple(
    sorted(f"{package}.{module}" for package, module in _MODULE_LAYERS)
) + _PACKAGE_LAYERS + (OTHER,)

#: How often foreign time is pushed one caller up before the rest is ``other``;
#: the deepest foreign chain seen (scipy's milp wrapper) is well under this.
_MAX_PUSHES = 64


def layer_of(filename: str, root: str) -> Optional[str]:
    """The layer owning source file ``filename``; None for foreign code."""
    if not filename.startswith(root):
        return None
    parts = filename[len(root):].split(os.sep)
    package = parts[0]
    if package in _PACKAGE_LAYERS:
        return package
    if len(parts) == 2 and (package, parts[1][:-3]) in _MODULE_LAYERS:
        return f"{package}.{parts[1][:-3]}"
    return OTHER


def _entry_key(entry) -> Tuple[str, int, str]:
    code = entry.code
    if isinstance(code, str):
        return ("", 0, code)
    return (code.co_filename, code.co_firstlineno, code.co_name)


def attribute(stats, root: str) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Fold ``cProfile.Profile.getstats()`` into per-layer (seconds, calls).

    ``root`` is the absolute ``src/repro/`` prefix, with a trailing separator.
    """
    # The profiler lists entries in table order, which moves from process to
    # process; the float sums below must not.
    stats = sorted(stats, key=_entry_key)
    seconds = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0.0)
    layer: Dict[object, Optional[str]] = {}
    for entry in stats:
        code = entry.code
        layer[code] = None if isinstance(code, str) else layer_of(code.co_filename, root)

    # callers[callee] -> [(caller, edge cumulative time, edge call count)]
    callers: Dict[object, list] = {}
    for entry in stats:
        for edge in entry.calls or ():
            callers.setdefault(edge.code, []).append(
                (entry.code, edge.totaltime, edge.callcount)
            )

    # Foreign frames' own time and calls wait in `pending` until pushed up.
    pending: Dict[object, Tuple[float, float]] = {}
    for entry in stats:
        owner = layer[entry.code]
        if owner is None:
            # Two built-ins can share a printed name; their entries are merged.
            held = pending.get(entry.code, (0.0, 0.0))
            pending[entry.code] = (held[0] + entry.inlinetime, held[1] + entry.callcount)
        else:
            seconds[owner] += entry.inlinetime
            calls[owner] += entry.callcount

    for _ in range(_MAX_PUSHES):
        if not pending:
            break
        pushed: Dict[object, Tuple[float, float]] = {}
        for code, (time_share, call_share) in pending.items():
            edges = callers.get(code, ())
            time_weight = sum(total for _, total, _ in edges)
            call_weight = sum(count for _, _, count in edges)
            if time_weight <= 0.0 or call_weight <= 0:
                seconds[OTHER] += time_share
                calls[OTHER] += call_share
                continue
            for caller, total, count in edges:
                time_part = time_share * total / time_weight
                call_part = call_share * count / call_weight
                owner = layer[caller]
                if owner is None:
                    held = pushed.get(caller, (0.0, 0.0))
                    pushed[caller] = (held[0] + time_part, held[1] + call_part)
                else:
                    seconds[owner] += time_part
                    calls[owner] += call_part
        pending = pushed
    for time_share, call_share in pending.values():
        seconds[OTHER] += time_share
        calls[OTHER] += call_share
    return seconds, calls

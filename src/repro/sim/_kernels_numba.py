"""Numba ``@njit`` kernels for the event core (see :mod:`repro.sim.backend`).

Importing this module requires numba; :func:`repro.sim.backend.resolve`
only does so after probing availability.  Each kernel mirrors its pure-
Python reference loop **operation for operation, in the same order** --
float arithmetic is evaluation-order sensitive, and the byte-identity
suites (cache determinism, fault counters, mesoscale flow-vs-packet) run
against every installed backend with the pure loops as oracle.  When
editing a kernel, edit its reference loop in the same commit:

* :func:`c3_select`        <-> ``repro.selection.c3.C3Selector.select``
* :func:`chained_arrival`  <-> ``repro.network.fabric.Network._deliver_trunk``
* :func:`count_undone_hops` <-> ``repro.network.fabric.Network.settle_trunks``
* :func:`path_chain`       <-> ``repro.mesoscale.vector.path_chain``
* :func:`hop_class_batch`  <-> ``repro.mesoscale.vector.hop_class_batch``

The pairing is registered in :data:`repro.sim.backend.KERNEL_MIRRORS` and
enforced statically: ``netrs contracts`` (rule CON001) compares this module
against the cython implementations and pins the C3 scoring formula across
all four sites, so an un-replayed edit fails CI before any golden runs.

``cache=True`` persists the compiled artifacts next to the module so the
~1 s first-call compilation is paid once per machine, not once per process
(benchmarks would otherwise measure the compiler).
"""

from __future__ import annotations

import numpy as np
from numba import njit  # ImportError here means: use engine_backend="python"


@njit(cache=True)
def c3_select(
    service_rate: np.ndarray,  # float64[n], pool order
    outstanding: np.ndarray,  # float64[n]
    queue_size: np.ndarray,  # float64[n]
    response_time: np.ndarray,  # float64[n]
    prior: float,
    weight: float,
    exponent: float,
):  # -> (best_index, tie_count)
    """Single-pass C3 minimum over a candidate pool.

    Returns the index of the first minimum and how many candidates share
    that exact score.  The caller falls back to the scalar tie-break path
    when ``tie_count > 1`` (the RNG draw must consume the same stream
    position as the reference loop).
    """
    best = -1
    best_score = np.inf
    ties = 0
    for i in range(service_rate.shape[0]):
        rate = service_rate[i]
        if not rate > 0.0:
            rate = prior
        expected_service = 1.0 / rate
        q_hat = 1.0 + outstanding[i] * weight + queue_size[i]
        score = (
            response_time[i]
            - expected_service
            + q_hat**exponent * expected_service
        )
        if score < best_score:
            best = i
            best_score = score
            ties = 1
        elif score == best_score:
            ties += 1
    return best, ties


@njit(cache=True)
def chained_arrival(base: float, delay: float, hops: int) -> float:
    """Delivery time of a ``hops``-long trunk: ``hops`` chained additions.

    Not ``base + delay * hops``: hop-by-hop forwarding accumulates the
    delay one event at a time and the two float sums differ in the last
    ulp.  Byte-identity with the reference path requires the chain.
    """
    when = base
    for _ in range(hops):
        when += delay
    return when


@njit(cache=True)
def count_undone_hops(
    bases: np.ndarray,  # float64[m], trunk send times
    delays: np.ndarray,  # float64[m], per-hop link delays
    hops: np.ndarray,  # int64[m], trunk lengths
    stop_time: float,
    undone: np.ndarray,  # int64[m], output
) -> int:
    """Per pending trunk: chained hop events that land at/after the stop.

    Mirrors the settlement loop in ``Network.settle_trunks``; returns the
    total so the caller can skip the unwind entirely when nothing was cut
    short.
    """
    total = 0
    for j in range(bases.shape[0]):
        t = bases[j]
        delay = delays[j]
        count = 0
        for _ in range(1, hops[j]):
            t += delay
            if t >= stop_time:
                count += 1
        undone[j] = count
        total += count
    return total


@njit(cache=True)
def path_chain(
    times: np.ndarray,  # float64[n], block start times
    hops: np.ndarray,  # float64[h], per-hop delays of one locality class
    out: np.ndarray,  # float64[n], output
) -> np.ndarray:
    """Chained per-hop accumulation over a block of start times.

    Per element this is the scalar hop chain ``t += delay`` in hop order --
    the numpy reference applies each hop element-wise over the whole block,
    which performs the identical additions, so delivery timestamps are
    bit-equal across backends.
    """
    for i in range(times.shape[0]):
        t = times[i]
        for j in range(hops.shape[0]):
            t += hops[j]
        out[i] = t
    return out


@njit(cache=True)
def hop_class_batch(
    client_rack: np.ndarray,  # int64[n], per-request client rack
    client_pod: np.ndarray,  # int64[n], per-request client pod
    replica_rack: np.ndarray,  # int64[n, r], per-(request, replica) rack
    replica_pod: np.ndarray,  # int64[n, r], per-(request, replica) pod
    out: np.ndarray,  # int64[n, r], output locality class
) -> np.ndarray:
    """Locality class (0=same rack, 1=same pod, 2=cross-pod) per cell.

    Integer compares only; trivially exact on every backend.
    """
    for i in range(client_rack.shape[0]):
        rack = client_rack[i]
        pod = client_pod[i]
        for j in range(replica_rack.shape[1]):
            if replica_rack[i, j] == rack:
                out[i, j] = 0
            elif replica_pod[i, j] == pod:
                out[i, j] = 1
            else:
                out[i, j] = 2
    return out

"""The event-core backend registry and its kernel dispatch plumbing.

Compiled backends (numba/Cython) may be absent -- in-container CI legs run
without them -- so besides the registry contract these tests exercise the
dispatch plumbing (C3 mirror arrays, pool gather, tie fallback, trunk
timing, vectorized settlement) through *fake* pure-Python kernels that
honour the compiled-kernel interface.  Byte-identity against the reference
loops must hold regardless of who implements the interface.
"""

import sys

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.network.fabric import Network
from repro.network.fattree import build_fat_tree
from repro.network.packet import ServerStatus
from repro.selection.c3 import C3Selector
from repro.sim.backend import (
    BACKEND_CHOICES,
    KERNEL_NAMES,
    Backend,
    available_backends,
    reset_probes,
    resolve,
)
from repro.sim.core import Environment
from repro.sim.rng import stream_from_seed


class TestResolve:
    def test_python_always_available(self):
        backend = resolve("python")
        assert backend.name == "python"
        assert backend.compiled is False
        assert backend.kernels is None
        assert backend.describe() == "python"

    def test_auto_resolves_to_an_installed_backend(self):
        backend = resolve("auto")
        assert backend.name in available_backends()

    def test_auto_is_the_default(self):
        assert resolve().name == resolve("auto").name

    def test_unknown_name_is_refused(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            resolve("bogus")

    def test_python_is_always_listed_first(self):
        names = available_backends()
        assert names[0] == "python"
        assert set(names) < set(BACKEND_CHOICES)  # "auto" is never concrete

    def test_compiled_backends_export_every_kernel(self):
        for name in available_backends():
            backend = resolve(name)
            if backend.compiled:
                for kernel in KERNEL_NAMES:
                    assert callable(getattr(backend.kernels, kernel))
                assert backend.describe() == f"{backend.name}-{backend.version}"

    def test_config_knob_default_and_validation(self):
        assert ExperimentConfig.tiny().engine_backend == "auto"
        with pytest.raises(ConfigurationError, match="engine_backend"):
            ExperimentConfig.tiny().replace(engine_backend="fortran")


class TestMissingCompilers:
    """The no-numba environment, simulated via blocked imports."""

    @pytest.fixture
    def no_compilers(self, monkeypatch):
        # A None entry makes ``import numba`` raise ImportError without
        # uninstalling anything that may actually be present.
        monkeypatch.setitem(sys.modules, "numba", None)
        monkeypatch.setitem(sys.modules, "Cython", None)
        monkeypatch.delitem(
            sys.modules, "repro.sim._kernels_numba", raising=False
        )
        monkeypatch.delitem(
            sys.modules, "repro.sim._kernels_cython", raising=False
        )
        # The probes are memoized per process: forget what they saw before
        # the imports were blocked, and what they see while they are.
        reset_probes()
        yield
        reset_probes()

    def test_auto_falls_back_to_python(self, no_compilers):
        assert available_backends() == ("python",)
        backend = resolve("auto")
        assert backend.name == "python"
        assert backend.compiled is False

    def test_explicit_requests_fail_loudly(self, no_compilers):
        with pytest.raises(ConfigurationError, match="numba"):
            resolve("numba")
        with pytest.raises(ConfigurationError, match="cython"):
            resolve("cython")

    def test_experiment_still_runs(self, no_compilers):
        config = ExperimentConfig.tiny(scheme="clirs", seed=2)
        result = run_experiment(config)
        assert result.completed_requests == config.total_requests


# ---------------------------------------------------------------------------
# Fake kernels: the compiled-kernel interface, implemented in plain Python.
# ---------------------------------------------------------------------------
class _FakeKernels:
    """Interface-faithful stand-ins for a compiled backend's kernels.

    Each mirrors the reference loop exactly (see
    ``repro.sim._kernels_numba`` for the pairing), so installing them must
    be byte-invisible -- which lets the dispatch plumbing be identity-tested
    even on interpreters with no compiled backend installed.
    """

    @staticmethod
    def c3_select(
        service_rate, outstanding, queue_size, response_time,
        prior, weight, exponent,
    ):
        best = -1
        best_score = float("inf")
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

    @staticmethod
    def chained_arrival(base, delay, hops):
        when = base
        for _ in range(hops):
            when += delay
        return when

    @staticmethod
    def count_undone_hops(bases, delays, hops, stop_time, undone):
        total = 0
        for j in range(bases.shape[0]):
            t = bases[j]
            delay = delays[j]
            count = 0
            for _ in range(1, int(hops[j])):
                t += delay
                if t >= stop_time:
                    count += 1
            undone[j] = count
            total += count
        return total


FAKE_BACKEND = Backend(
    "python", compiled=True, version="fake", kernels=_FakeKernels
)


class TestC3KernelDispatch:
    def _pair(self, seed):
        kwargs = dict(prior_service_rate=1000.0)
        kernelled = C3Selector(rng=stream_from_seed(seed, "t.c3"), **kwargs)
        reference = C3Selector(rng=stream_from_seed(seed, "t.c3"), **kwargs)
        kernelled.use_kernel(_FakeKernels)
        return kernelled, reference

    def test_selection_matches_reference_under_feedback(self):
        kernelled, reference = self._pair(2)
        pool = [f"s{i}" for i in range(8)]
        feed = stream_from_seed(3, "t.feed")
        for i in range(300):
            now = i * 1e-3
            a = kernelled.select(pool, now)
            b = reference.select(pool, now)
            assert a == b
            kernelled.note_sent(a, now)
            reference.note_sent(b, now)
            if i % 3 == 0:
                status = ServerStatus(
                    queue_size=int(feed.integers(0, 6)),
                    service_rate=float(feed.uniform(500.0, 1500.0)),
                    timestamp=now,
                )
                latency = float(feed.uniform(1e-4, 5e-3))
                kernelled.note_response(a, latency, status, now)
                reference.note_response(b, latency, status, now)

    def test_all_equal_scores_fall_back_to_scalar_tie_break(self):
        # Fresh tracks all share the prior -> every candidate ties, the
        # kernel reports ties > 1, and the scalar path's RNG draw decides.
        # 40 servers also forces the mirror past its initial 16 rows
        # (two doublings), covering the growth path.
        kernelled, reference = self._pair(5)
        pool = [f"s{i}" for i in range(40)]
        assert kernelled.select(pool, 0.0) == reference.select(pool, 0.0)

    def test_servers_discovered_after_install_get_mirror_rows(self):
        kernelled, reference = self._pair(7)
        first = [f"s{i}" for i in range(3)]
        status = ServerStatus(queue_size=2, service_rate=800.0, timestamp=0.0)
        for selector in (kernelled, reference):
            choice = selector.select(first, 0.0)
            selector.note_sent(choice, 0.0)
            selector.note_response(choice, 2e-3, status, 1e-3)
        # A pool of brand-new servers plus the fed-back one: the new tracks
        # are created inside select() and must land in the mirror.
        pool = first + [f"late{i}" for i in range(4)]
        assert kernelled.select(pool, 2e-3) == reference.select(pool, 2e-3)


class _Device:
    def __init__(self):
        self.packets_forwarded = 5


class TestTrunkKernels:
    def test_chained_arrival_is_ulp_exact(self):
        # The kernel must reproduce the hop-by-hop chain, not delay * hops.
        base, delay, hops = 0.1, 1.7e-5, 7
        chained = base
        for _ in range(hops):
            chained += delay
        assert _FakeKernels.chained_arrival(base, delay, hops) == chained

    def _network_with_pending(self, kernels):
        network = Network(Environment(), build_fat_tree(4))
        if kernels:
            network.use_backend(FAKE_BACKEND)
        network.transmissions = 100
        network.bytes_transferred = 10_000
        network.netrs_overhead_bytes = 800
        devices = []
        # Three trunks: fully delivered, one undone hop, three undone hops.
        for base, hops, when in ((0.0, 4, 0.2), (0.0, 4, 0.4), (0.2, 4, 0.6)):
            absorbed = tuple(_Device() for _ in range(hops - 1))
            devices.append(absorbed)
            network._pending_trunks.append(
                (base, 0.1, hops, 100, 8, absorbed, when)
            )
        return network, devices

    def test_settle_trunks_kernel_path_matches_reference(self):
        plain, plain_devices = self._network_with_pending(kernels=False)
        fast, fast_devices = self._network_with_pending(kernels=True)
        for network in (plain, fast):
            network.settle_trunks(0.3)
        assert fast.transmissions == plain.transmissions
        assert fast.bytes_transferred == plain.bytes_transferred
        assert fast.netrs_overhead_bytes == plain.netrs_overhead_bytes
        for fast_absorbed, plain_absorbed in zip(fast_devices, plain_devices):
            assert [d.packets_forwarded for d in fast_absorbed] == [
                d.packets_forwarded for d in plain_absorbed
            ]
        assert not fast._pending_trunks and not plain._pending_trunks


class TestFakeBackendByteIdentity:
    """End-to-end: a compiled-looking backend must be byte-invisible."""

    @pytest.mark.parametrize("scheme", ["clirs", "clirs-r95", "netrs-ilp"])
    def test_experiment_identical_with_fake_kernels(self, scheme, monkeypatch):
        from repro.experiments import scenarios

        config = ExperimentConfig.tiny(scheme=scheme, seed=7)
        plain = run_experiment(config)
        monkeypatch.setattr(
            scenarios, "resolve_backend", lambda name: FAKE_BACKEND
        )
        fake = run_experiment(config)
        assert fake.summary() == plain.summary()
        assert fake.latency.samples == plain.latency.samples
        assert fake.transmissions == plain.transmissions
        assert fake.bytes_transferred == plain.bytes_transferred
        assert fake.netrs_overhead_bytes == plain.netrs_overhead_bytes
        assert fake.events_executed == plain.events_executed

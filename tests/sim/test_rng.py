"""Tests for named RNG streams."""

import pickle
import zlib

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim import RngRegistry
from repro.sim.rng import stream_from_seed


class TestRngRegistry:
    def test_same_name_returns_same_stream(self):
        registry = RngRegistry(1)
        assert registry.stream("a") is registry.stream("a")

    def test_different_names_differ(self):
        registry = RngRegistry(1)
        a = registry.stream("a").random(100)
        b = registry.stream("b").random(100)
        assert not np.allclose(a, b)

    def test_reproducible_across_registries(self):
        draws1 = RngRegistry(42).stream("workload").random(50)
        draws2 = RngRegistry(42).stream("workload").random(50)
        assert np.array_equal(draws1, draws2)

    def test_different_seeds_differ(self):
        a = RngRegistry(1).stream("x").random(50)
        b = RngRegistry(2).stream("x").random(50)
        assert not np.allclose(a, b)

    def test_adding_streams_does_not_perturb_existing(self):
        registry1 = RngRegistry(7)
        registry1.stream("noise")  # extra stream created first
        late = registry1.stream("target").random(20)

        registry2 = RngRegistry(7)
        early = registry2.stream("target").random(20)
        assert np.array_equal(late, early)

    def test_contains(self):
        registry = RngRegistry(0)
        assert "x" not in registry
        registry.stream("x")
        assert "x" in registry

    def test_seed_type_checked(self):
        with pytest.raises(TypeError):
            RngRegistry("not-an-int")

    def test_streams_are_generators(self):
        assert isinstance(RngRegistry(0).stream("g"), np.random.Generator)


#: Seeds of one to three 32-bit words, at the word boundaries.
ORACLE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3]


def _oracle_names():
    """1 000+ names: the empty one, non-ASCII ones, and every per-host and
    shared pattern a build draws on, over a 16-ary tree's host names."""
    hosts = [f"host{p}.{r}.{i}" for p in range(16) for r in range(8) for i in range(8)]
    names = ["", "é", "服务.主机", "\U0001f600", "a" * 300, "placement", "workload.keys",
             "workload.arrivals", "workload.skew", "faults"]
    names += [f"selector.operator.{index}" for index in range(1, 40)]
    for prefix in ("service", "fluctuation", "selector.client", "redundancy"):
        names += [f"{prefix}.{host}" for host in hosts[::4]]
    return names


def _draws(generator):
    """The first 64 draws of each family, in turn, off one generator."""
    return (
        generator.random(64),
        generator.standard_exponential(64),
        generator.integers(0, 1_000_003, size=64),
    )


def _reference(seed, name):
    """The generator numpy seeds from the same entropy: the oracle."""
    entropy = (seed, zlib.crc32(name.encode("utf-8")))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=entropy)))


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
@pytest.mark.parametrize("declared", ["in-bulk", "one-at-a-time", "never"])
def test_streams_draw_as_numpys_seed_sequence_seeds_them(seed, declared):
    names = _oracle_names()
    assert len(names) >= 1000
    registry = RngRegistry(seed)
    if declared == "in-bulk":
        registry.declare(names)
    elif declared == "one-at-a-time":
        for name in names:
            registry.declare([name])
    for name in names:
        for got, expected in zip(_draws(registry.stream(name)), _draws(_reference(seed, name))):
            assert np.array_equal(got, expected), (seed, name)


def test_declaring_again_keeps_the_stream_and_its_position():
    registry = RngRegistry(3)
    registry.declare(["a", "b"])
    stream = registry.stream("a")
    first = stream.random()
    registry.declare(["b", "a", "a", "c"])
    assert registry.stream("a") is stream
    assert stream.random() != first
    assert "c" in registry


def test_a_seed_of_four_words_or_more_matches_too():
    """Entropy past SeedSequence's four-word pool is mixed in its own phase."""
    for seed in (2**96, 2**200 + 17):
        registry = RngRegistry(seed)
        registry.declare(["x", "y"])
        for name in ("x", "y", "z"):
            assert np.array_equal(
                registry.stream(name).random(16), _reference(seed, name).random(16)
            )


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        RngRegistry(-1)


def test_a_named_stream_does_not_spawn():
    """Each stream a model needs is a name of its own."""
    with pytest.raises(ConfigurationError, match="name of its own"):
        RngRegistry(1).stream("a").spawn(1)


def test_a_stream_pickles_with_its_position():
    stream = stream_from_seed(5, "service.host0.0.0")
    stream.random(10)
    copy = pickle.loads(pickle.dumps(stream))
    assert np.array_equal(copy.random(32), stream.random(32))

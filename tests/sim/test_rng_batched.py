"""BatchedStream equivalence: pre-drawn blocks must replay the scalar
bitstream exactly (ISSUE 4 acceptance criterion).

numpy Generators produce the identical value sequence for ``dist(size=n)``
as for ``n`` scalar calls, which is the whole contract that lets the
simulator turn batching on and off without changing a single result.  These
tests pin that contract for every supported distribution, across block
boundaries and through the bypass mode.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.rng import (
    BatchedStream,
    RngRegistry,
    batched_from_seed,
    stream_from_seed,
)


def _pair(seed=123, name="test.stream", block_size=1024):
    """A batched stream and an independent scalar twin of the same stream."""
    return (
        batched_from_seed(seed, name, block_size=block_size),
        stream_from_seed(seed, name),
    )


N_LONG = 5000  # crosses every growth step, several 1024-blocks, many small ones

#: Block ceilings: tiny ones refill mid-sequence all the time, 1024 (the
#: default) grows 16 -> 64 -> 256 -> 1024 before it gets there.
CEILINGS = [1, 2, 3, 7, 64, 1023, 1024]
N_GROWN = 3000  # past 16 + 64 + 256 + 1024: every growth boundary and two full blocks


def _serve(stream, draw, n):
    """``n`` draws; returns (values, length of every block refilled on the way)."""
    values, blocks = [], []
    for _ in range(n):
        values.append(draw())
        if stream._pos == 1:  # this draw opened a fresh block
            blocks.append(len(stream._block))
    return values, blocks


class TestScalarEquivalence:
    def test_random(self):
        batched, scalar = _pair()
        assert [batched.random() for _ in range(N_LONG)] == [
            float(scalar.random()) for _ in range(N_LONG)
        ]

    def test_uniform(self):
        batched, scalar = _pair()
        got = [batched.uniform(2.0, 5.0) for _ in range(N_LONG)]
        want = [2.0 + 3.0 * float(scalar.random()) for _ in range(N_LONG)]
        assert got == want

    def test_standard_exponential(self):
        batched, scalar = _pair()
        assert [batched.standard_exponential() for _ in range(N_LONG)] == [
            float(scalar.standard_exponential()) for _ in range(N_LONG)
        ]

    def test_exponential_fixed_scale(self):
        batched, scalar = _pair()
        got = [batched.exponential(1e-4) for _ in range(N_LONG)]
        want = [1e-4 * float(scalar.standard_exponential()) for _ in range(N_LONG)]
        assert got == want

    def test_exponential_varying_scale(self):
        # Fluctuating service times vary the scale per draw; the scale is
        # applied outside the block so values stay exact.
        batched, scalar = _pair()
        scales = [1e-4 * (1 + i % 7) for i in range(N_LONG)]
        got = [batched.exponential(s) for s in scales]
        want = [s * float(scalar.standard_exponential()) for s in scales]
        assert got == want

    def test_integers(self):
        batched, scalar = _pair()
        assert [batched.integers(0, 17) for _ in range(N_LONG)] == [
            int(scalar.integers(0, 17)) for _ in range(N_LONG)
        ]

    @pytest.mark.parametrize("block_size", CEILINGS)
    def test_block_boundary_crossing(self, block_size):
        """Tiny blocks force refills mid-sequence; values must not notice."""
        batched, scalar = _pair(block_size=block_size)
        n = 5 * block_size + 3
        assert [batched.standard_exponential() for _ in range(n)] == [
            float(scalar.standard_exponential()) for _ in range(n)
        ]

    def test_block_size_zero_bypasses(self):
        batched, scalar = _pair(block_size=0)
        got = [batched.random() for _ in range(100)]
        want = [float(scalar.random()) for _ in range(100)]
        assert got == want
        # Bypass mode never pre-draws: the wrapped generator stays in
        # lockstep with a scalar twin draw for draw.
        assert batched._block == []
        assert float(batched._rng.random()) == float(scalar.random())


@pytest.mark.parametrize("block_size", CEILINGS)
class TestBlockGrowth:
    """Blocks start at 16 values and grow fourfold up to ``block_size``;
    where the refills fall must be invisible in the served values."""

    def test_random(self, block_size):
        batched, scalar = _pair(block_size=block_size)
        got, _ = _serve(batched, batched.random, N_GROWN)
        assert got == [float(scalar.random()) for _ in range(N_GROWN)]

    def test_exponential_varying_scale(self, block_size):
        batched, scalar = _pair(block_size=block_size)
        scales = iter([1e-4 * (1 + i % 7) for i in range(N_GROWN)] * 2)
        got, _ = _serve(batched, lambda: batched.exponential(next(scales)), N_GROWN)
        want = [
            next(scales) * float(scalar.standard_exponential()) for _ in range(N_GROWN)
        ]
        assert got == want

    @pytest.mark.parametrize("bounds", [(0, 2), (0, 3), (0, 1000), (0, 2**33)])
    def test_integers(self, block_size, bounds):
        # One bound per Lemire regime: a power of two, a tiny and a mid-size
        # rejection range, and one past 32 bits.
        batched, scalar = _pair(block_size=block_size)
        got, _ = _serve(batched, lambda: batched.integers(*bounds), N_GROWN)
        assert got == [int(scalar.integers(*bounds)) for _ in range(N_GROWN)]

    def test_blocks_grow_fourfold_to_the_ceiling(self, block_size):
        batched, _ = _pair(block_size=block_size)
        _, blocks = _serve(batched, batched.standard_exponential, N_GROWN)
        assert blocks[0] == min(16, block_size)
        assert max(blocks) == block_size
        for previous, block in zip(blocks, blocks[1:]):
            assert block == min(4 * previous, block_size)

    def test_pre_drawn_stays_proportional_to_served(self, block_size):
        batched, _ = _pair(block_size=block_size)
        pre_drawn = 0
        for served in range(1, N_GROWN + 1):
            batched.random()
            if batched._pos == 1:
                pre_drawn += len(batched._block)
            assert served <= pre_drawn < 4 * served + 16


class TestFamilyLock:
    def test_mixed_families_raise(self):
        batched, _ = _pair()
        batched.random()
        with pytest.raises(ConfigurationError):
            batched.standard_exponential()

    def test_integers_bound_change_raises(self):
        batched, _ = _pair()
        batched.integers(0, 8)
        with pytest.raises(ConfigurationError):
            batched.integers(0, 9)

    def test_lock_applies_in_bypass_mode_too(self):
        # Same API surface whichever mode the config picked, so a batch-size
        # sweep cannot silently change which call patterns are legal.
        batched, _ = _pair(block_size=0)
        batched.exponential(1.0)
        with pytest.raises(ConfigurationError):
            batched.random()


class TestRegistryParity:
    def test_batched_from_seed_matches_registry(self):
        a = batched_from_seed(7, "parity.stream", block_size=256)
        b = RngRegistry(7).batched("parity.stream", block_size=256)
        assert [a.exponential(2.0) for _ in range(300)] == [
            b.exponential(2.0) for _ in range(300)
        ]

    def test_registry_batched_is_cached(self):
        registry = RngRegistry(5)
        assert registry.batched("x") is registry.batched("x")

    def test_registry_batched_block_size_conflict(self):
        registry = RngRegistry(5)
        registry.batched("x", block_size=64)
        with pytest.raises(ConfigurationError):
            registry.batched("x", block_size=128)

    def test_values_are_python_floats(self):
        # .tolist() conversion: downstream arithmetic and JSON dumps see
        # the exact same Python floats as scalar numpy draws produce.
        batched, _ = _pair()
        value = batched.random()
        assert type(value) is float

    def test_integers_are_python_ints(self):
        batched, _ = _pair()
        value = batched.integers(0, 1000)
        assert type(value) is int


def test_same_stream_name_same_values_across_modes():
    """End-to-end restatement of the contract: any block size (including
    bypass) yields one identical value sequence."""
    sequences = []
    for block_size in (0, 1, 1024):
        stream = batched_from_seed(99, "modes.stream", block_size=block_size)
        sequences.append([stream.exponential(3.0) for _ in range(2500)])
    assert sequences[0] == sequences[1] == sequences[2]

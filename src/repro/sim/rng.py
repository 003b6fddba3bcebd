"""Named, reproducible random-number streams.

Every stochastic component in the simulation (arrival process, key sampler,
each server's fluctuation, ...) draws from its own ``numpy.random.Generator``.
Streams are derived from one experiment seed by *name*, so

* the whole experiment is reproducible from a single integer, and
* adding a new consumer does not perturb the draws of existing ones (unlike
  sharing one generator).

Names are hashed through ``SeedSequence(root, name_bytes)`` which gives
statistically independent child streams.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError

#: Default pre-draw block ceiling for :class:`BatchedStream`.
DEFAULT_BATCH_SIZE = 1024

#: A stream's first block, and the factor each later block grows by until it
#: reaches the stream's ``block_size``: a stream that serves ``n`` draws has
#: pre-drawn fewer than ``4 n + 16``, however few it is asked for.
_FIRST_BLOCK = 16
_BLOCK_GROWTH = 4


class BatchedStream:
    """Serve scalar draws from pre-drawn numpy blocks, bit-identically.

    numpy Generators consume the underlying bitstream identically for
    ``dist(size=n)`` and for ``n`` successive scalar ``dist()`` calls, so a
    consumer that only ever draws from *one* distribution family sees the
    exact same value sequence whether it draws scalars or is served from a
    pre-drawn block.  That equivalence breaks the moment two families
    interleave on one generator (the block would consume bits the other
    family was due to get), so a stream locks itself to the family of its
    first draw and raises loudly on any other use.  Streams that genuinely
    interleave families (e.g. the open-loop arrival stream: exponential
    gaps + uniform weight picks) must stay on a raw generator.

    ``block_size`` is the *ceiling* on a block: the first refill draws 16
    values and each later one four times as many, up to ``block_size``, so
    a stream that is barely used (most of a large run's per-host streams)
    pre-draws a handful of values instead of a full block.  Where the
    refills fall cannot change a value, by the equivalence above: a block
    of ``n`` is ``n`` scalar draws wherever it starts.

    ``block_size=0`` bypasses batching entirely: every call is a scalar
    draw on the wrapped generator, which makes the knob a pure performance
    switch — results are identical either way.

    Supported draws (matching ``numpy.random.Generator`` semantics):
    ``random()``, ``uniform(low, high)`` (shares the uniform family),
    ``exponential(scale)`` / ``standard_exponential()`` (one family; the
    scale is applied per-draw so it may vary call to call), and
    ``integers(low[, high])`` (locked to the first call's bounds).
    """

    __slots__ = (
        "_rng", "block_size", "_family", "_block", "_pos", "_bounds", "_refill_size",
    )

    def __init__(
        self,
        rng: np.random.Generator,
        block_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        if block_size < 0:
            raise ConfigurationError(
                f"block_size must be >= 0, got {block_size}"
            )
        self._rng = rng
        self.block_size = block_size
        self._family: Optional[str] = None
        self._block: List = []
        self._pos = 0
        self._bounds: Optional[Tuple[int, Optional[int]]] = None
        self._refill_size = min(_FIRST_BLOCK, block_size)

    # -- internal ------------------------------------------------------
    def _lock(self, family: str) -> None:
        if self._family is None:
            self._family = family
        elif self._family != family:
            raise ConfigurationError(
                f"BatchedStream is locked to {self._family!r} draws but got a "
                f"{family!r} draw; mixed-family streams would consume the "
                "bitstream in a different order than scalar draws — use a raw "
                "generator (see docs/SIMULATOR.md, 'Batched RNG streams')"
            )

    def _refill(self) -> None:
        size = self._refill_size
        if size < self.block_size:
            self._refill_size = min(size * _BLOCK_GROWTH, self.block_size)
        if self._family == "uniform":
            self._block = self._rng.random(size=size).tolist()
        elif self._family == "exponential":
            self._block = self._rng.standard_exponential(size=size).tolist()
        else:  # integers
            low, high = self._bounds  # type: ignore[misc]
            self._block = self._rng.integers(low, high, size=size).tolist()
        self._pos = 0

    # -- draws ---------------------------------------------------------
    def random(self) -> float:
        """Uniform in [0, 1); equivalent to ``Generator.random()``."""
        if self._family != "uniform":
            self._lock("uniform")
        if self.block_size == 0:
            return float(self._rng.random())
        pos = self._pos
        if pos >= len(self._block):
            self._refill()
            pos = 0
        self._pos = pos + 1
        return self._block[pos]

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform in [low, high); equivalent to ``Generator.uniform()``."""
        return low + (high - low) * self.random()

    def standard_exponential(self) -> float:
        """Equivalent to ``Generator.standard_exponential()`` (a scale of 1
        multiplies exactly)."""
        return self.exponential()

    def exponential(self, scale: float = 1.0) -> float:
        """Equivalent to ``Generator.exponential(scale)``.

        numpy computes ``scale * standard_exponential()`` internally, so
        applying the scale per-draw keeps values exact while letting it
        vary between draws (fluctuating service times).  Serves from the
        block itself: a service draw per request is the hot caller.
        """
        if self._family != "exponential":
            self._lock("exponential")
        if self.block_size == 0:
            return scale * float(self._rng.standard_exponential())
        pos = self._pos
        if pos >= len(self._block):
            self._refill()
            pos = 0
        self._pos = pos + 1
        return scale * self._block[pos]

    def integers(self, low: int, high: Optional[int] = None) -> int:
        """Equivalent to ``int(Generator.integers(low, high))``.

        The bounds are part of the family lock: Lemire-style bounded
        generation consumes a bound-dependent number of bits, so a block
        is only bitstream-equivalent to scalar draws with the same bounds.
        """
        if self._family != "integers":
            self._lock("integers")
        bounds = (low, high)
        if self._bounds is None:
            self._bounds = bounds
        elif self._bounds != bounds:
            raise ConfigurationError(
                f"BatchedStream is locked to integers{self._bounds!r} but got "
                f"integers{bounds!r}; varying bounds consume the bitstream "
                "differently per draw — use a raw generator"
            )
        if self.block_size == 0:
            return int(self._rng.integers(low, high))
        pos = self._pos
        if pos >= len(self._block):
            self._refill()
            pos = 0
        self._pos = pos + 1
        return self._block[pos]

    def spawn(self) -> "BatchedStream":
        """Derive an independent child stream (same block ceiling).

        Children come from the underlying generator's ``SeedSequence`` spawn
        counter, which is independent of how many values were drawn — so a
        batched parent (which pre-draws ahead) spawns exactly the same
        children as a scalar parent.
        """
        return BatchedStream(self._rng.spawn(1)[0], self.block_size)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<BatchedStream family={self._family} block={self.block_size} "
            f"served={self._pos}/{len(self._block)}>"
        )


class RngRegistry:
    """Factory of named child generators derived from one root seed."""

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = seed
        self._streams: Dict[str, np.random.Generator] = {}
        self._batched: Dict[str, BatchedStream] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same name always maps to the same stream within a registry.
        """
        generator = self._streams.get(name)
        if generator is None:
            # Stable 32-bit digest of the name keeps spawn keys deterministic
            # across processes and Python builds (hash() is salted).
            digest = zlib.crc32(name.encode("utf-8"))
            sequence = np.random.SeedSequence(entropy=(self.seed, digest))
            generator = np.random.Generator(np.random.PCG64(sequence))
            self._streams[name] = generator
        return generator

    def batched(
        self, name: str, block_size: int = DEFAULT_BATCH_SIZE
    ) -> BatchedStream:
        """Return a :class:`BatchedStream` over the stream for ``name``.

        Cached per name: the wrapper owns the generator's cursor once blocks
        are pre-drawn, so handing out two wrappers (or a wrapper plus the
        raw generator) for the same name would interleave consumers and
        break scalar-equivalence.  Asking again with a different block size
        is therefore an error.
        """
        wrapper = self._batched.get(name)
        if wrapper is None:
            wrapper = BatchedStream(self.stream(name), block_size)
            self._batched[name] = wrapper
        elif wrapper.block_size != block_size:
            raise ConfigurationError(
                f"stream {name!r} already batched with block_size="
                f"{wrapper.block_size}, requested {block_size}"
            )
        return wrapper

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RngRegistry seed={self.seed} streams={len(self._streams)}>"


def stream_from_seed(seed: int, name: str) -> np.random.Generator:
    """One named stream derived from ``seed``, without keeping a registry.

    Convenience for entry points that accept ``rng=None`` plus a ``seed``:
    the fallback generator is identical to ``RngRegistry(seed).stream(name)``,
    so ad-hoc callers and the full experiment harness draw from the same
    deterministic universe.
    """
    return RngRegistry(seed).stream(name)


def batched_from_seed(
    seed: int, name: str, block_size: int = DEFAULT_BATCH_SIZE
) -> BatchedStream:
    """Batched counterpart of :func:`stream_from_seed`.

    Wraps the identical named generator, so batched ad-hoc callers draw the
    same values as ``RngRegistry(seed).batched(name, block_size)``.
    """
    return BatchedStream(stream_from_seed(seed, name), block_size)


#: Anything hot-path components accept as a draw source: a raw generator
#: (tests, ad-hoc callers) or a batched wrapper (the experiment harness).
DrawSource = Union[np.random.Generator, BatchedStream]

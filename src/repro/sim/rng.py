"""Named, reproducible random-number streams.

Every stochastic component in the simulation (arrival process, key sampler,
each server's fluctuation, ...) draws from its own ``numpy.random.Generator``.
Streams are derived from one experiment seed by *name*, so

* the whole experiment is reproducible from a single integer, and
* adding a new consumer does not perturb the draws of existing ones (unlike
  sharing one generator).

Stream ``name`` under ``seed`` is the PCG64 generator numpy seeds from
``SeedSequence(entropy=(seed, zlib.crc32(name)))``, which gives statistically
independent child streams.  The seed words are derived here, not by numpy's
``SeedSequence``: :class:`_SeedKernel` is a vectorisation of its hash mixing
over an array of names, so a build derives the words of all its per-host
streams (a service and a selector stream per host, and more) in one numpy
pass instead of one ``SeedSequence`` a name.  A build declares those names up
front (:meth:`RngRegistry.declare`); a name never declared takes the same
kernel with one name.  ``SeedSequence`` itself is the test oracle:
``tests/sim/test_rng.py`` checks that every stream draws bit-identically to
the generator numpy would seed, for any seed size and name.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<BatchedStream family={self._family} block={self.block_size} "
            f"served={self._pos}/{len(self._block)}>"
        )


# ----------------------------------------------------------------------
# Seeding: numpy's SeedSequence hash mixing, vectorised over names
# ----------------------------------------------------------------------
# The constants of numpy/random/bit_generator.pyx.  Entropy words are mixed
# into a pool of four by ``hashmix`` (the running constant starts at INIT_A
# and is multiplied by MULT_A at each call) and ``mix``; ``generate_state``
# hashes the pool out again, its constant chain starting at INIT_B.  The
# multipliers and the shift are numpy scalars, and every operand they meet is
# an array, so products wrap without a warning.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF

#: PCG64 takes four 64-bit seed words: eight 32-bit ones, the pool twice.
_STATE_WORDS = 2 * _POOL_SIZE


def _constant_chain(init: int, mult: int, calls: int) -> np.ndarray:
    """The running hash constant before each of ``calls`` hash calls and
    after the last: ``calls + 1`` values."""
    chain = [init]
    for _ in range(calls):
        chain.append(chain[-1] * mult & _MASK32)
    return np.array(chain, dtype=np.uint32)


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix``, with the running constant before the call
    (``xor``) and after it (``mult``) given."""
    values = (values ^ xor) * mult
    return values ^ (values >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix``."""
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _XSHIFT)


_STATE_CHAIN = _constant_chain(_INIT_B, _MULT_B, _STATE_WORDS)[None, :]
_STATE_XOR = _STATE_CHAIN[:, :-1]
_STATE_MULT = _STATE_CHAIN[:, 1:]


class _SeedKernel:
    """The PCG64 seed words of ``SeedSequence(entropy=(seed, digest))`` for
    an array of 32-bit name digests, in one numpy pass.

    The entropy is the seed's 32-bit words, least significant first, then
    the digest.  Everything the digest does not reach is worked out here,
    once per seed: the pool words and hash calls before the digest enters,
    and the whole chain of hash constants.  :meth:`states` runs the rest
    with the names down the first axis.
    """

    __slots__ = ("_head_xor", "_head_mult", "_folds", "_base", "_rounds")

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        words = [seed & _MASK32]
        seed >>= 32
        while seed:
            words.append(seed & _MASK32)
            seed >>= 32
        pool_size = _POOL_SIZE
        digest = len(words)  # the digest's index in the entropy
        extra = max(0, digest + 1 - pool_size)  # entropy words past the pool
        chain = _constant_chain(_INIT_A, _MULT_A, pool_size * (pool_size + extra))
        entropy = np.zeros(pool_size + extra, dtype=np.uint32)
        entropy[:digest] = words

        # The pool filled (the digest's own word, if it falls in the pool,
        # is filled per call), then mixed source word by source word.
        pool = _hashmix(entropy[:pool_size], chain[:pool_size], chain[1 : pool_size + 1])
        call = pool_size
        #: Constants the digest's pool word is mixed with before it is a source.
        self._folds: List[np.ndarray] = []
        #: (source word, hash constants before and after each call) of the
        #: rounds whose source word holds the digest.
        self._rounds: List[Tuple[int, np.ndarray, np.ndarray]] = []
        for src in range(pool_size):
            # The constants of the hash calls into every other pool word; the
            # source word's own slot is a placeholder, its result dropped.
            dsts = [dst for dst in range(pool_size) if dst != src]
            xor = np.zeros((1, pool_size), dtype=np.uint32)
            mult = np.zeros((1, pool_size), dtype=np.uint32)
            xor[0, dsts] = chain[call : call + pool_size - 1]
            mult[0, dsts] = chain[call + 1 : call + pool_size]
            call += pool_size - 1
            if src < digest:
                # A seed word: constant, and so is every word it mixes into
                # but the digest's, which takes it per call.
                mixed = _hashmix(pool[src : src + 1], xor[0], mult[0])
                if digest < pool_size:
                    self._folds.append(mixed[digest : digest + 1])
                mixed = _mix(pool, mixed)
                mixed[src] = pool[src]
                pool = mixed
            else:
                self._rounds.append((src, xor, mult))
        # Entropy past the pool (a seed of four words or more) is mixed into
        # every pool word; the digest is the last of it.
        for src in range(pool_size, digest):
            xor = chain[call : call + pool_size]
            mult = chain[call + 1 : call + pool_size + 1]
            call += pool_size
            pool = _mix(pool, _hashmix(entropy[src : src + 1], xor, mult))
        if digest < pool_size:
            self._head_xor = chain[None, digest : digest + 1]
            self._head_mult = chain[None, digest + 1 : digest + 2]
        else:
            self._head_xor = chain[None, call : call + pool_size]
            self._head_mult = chain[None, call + 1 : call + pool_size + 1]
        self._base = pool[None, :]

    def states(self, digests: np.ndarray) -> np.ndarray:
        """PCG64 seed words, shape ``(len(digests), 4)`` uint64, of the names
        whose digests (uint32) are given."""
        mixed = _hashmix(digests[:, None], self._head_xor, self._head_mult)
        if not self._rounds:
            # The digest came past the pool, mixed into every word of it.
            pool = _mix(self._base, mixed)
        else:
            for fold in self._folds:
                mixed = _mix(mixed, fold)
            # The digest's word is the first source; the other words are
            # still the constant base.
            pool, source = self._base, mixed
            for src, xor, mult in self._rounds:
                pool = _mix(pool, _hashmix(source, xor, mult))
                pool[:, src : src + 1] = source
                source = pool[:, src + 1 : src + 2]
        words = _hashmix(np.concatenate((pool, pool), axis=1), _STATE_XOR, _STATE_MULT)
        # Little-endian pairs, as SeedSequence assembles its uint64 words.
        return words.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _SeedWords(ISpawnableSeedSequence):
    """One stream's PCG64 seed words, handed to ``PCG64`` as its seed
    sequence.  A named stream has no children: each stream a model needs is
    a name of its own, so ``Generator.spawn`` on one raises."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        # PCG64 asks for exactly this, and is the only caller.
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("a named stream's seed words are PCG64's: 4 uint64")
        return self.words

    def spawn(self, n_children: int):
        raise ConfigurationError(
            "a named stream does not spawn children: give each child stream "
            "a name of its own (RngRegistry.stream)"
        )


class RngRegistry:
    """Factory of named child generators derived from one root seed."""

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = seed
        self._kernel = _SeedKernel(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        self._batched: Dict[str, BatchedStream] = {}

    def declare(self, names: Iterable[str]) -> None:
        """Derive the streams of ``names`` now, in one pass of the kernel.

        A build declares its per-host names right after it assigns roles;
        the values a stream draws do not depend on whether, or with what,
        its name was declared.
        """
        fresh = [name for name in dict.fromkeys(names) if name not in self._streams]
        if not fresh:
            return
        # Stable 32-bit digest of the name keeps seeds deterministic across
        # processes and Python builds (hash() is salted).
        digests = np.array(
            [zlib.crc32(name.encode("utf-8")) for name in fresh], dtype=np.uint32
        )
        for name, words in zip(fresh, self._kernel.states(digests)):
            self._streams[name] = np.random.Generator(np.random.PCG64(_SeedWords(words)))

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same name always maps to the same stream within a registry.
        """
        generator = self._streams.get(name)
        if generator is None:
            self.declare((name,))
            generator = self._streams[name]
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

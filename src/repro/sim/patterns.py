"""Pattern containers and sources.

A :class:`PatternSet` stores N input vectors *column-wise*: one big-int
word per primary input, bit ``p`` of word ``i`` being input ``i``'s value
under pattern ``p``.  That is exactly the layout the bit-parallel
simulator consumes, so simulation needs no transposition.

A :class:`PatternPairSet` stores N two-pattern tests as two aligned
:class:`PatternSet` halves — the *launch* vectors ``v1`` and the
*capture* vectors ``v2`` of transition-fault testing.  Pair ``p`` is
``(launch.vector(p), capture.vector(p))``; all slicing operations act
on whole pairs, so fault simulation, ``U`` selection and the ADI
computation consume pair blocks exactly like single-vector blocks.
The transition model's pool is :meth:`PatternPairSet.random`: both
halves drawn independently, as an enhanced-scan cell allows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

from repro.errors import SimulationError
from repro.utils.bitvec import full_mask
from repro.utils.rng import random_word, resolve_rng


@dataclass(frozen=True)
class PatternSet:
    """An immutable set of input patterns in column-major (word) form."""

    num_inputs: int
    num_patterns: int
    words: Tuple[int, ...]

    def __post_init__(self):
        if len(self.words) != self.num_inputs:
            raise SimulationError(
                f"expected {self.num_inputs} words, got {len(self.words)}"
            )
        mask = full_mask(self.num_patterns)
        for i, word in enumerate(self.words):
            if word < 0 or word & ~mask:
                raise SimulationError(
                    f"word for input {i} has bits outside {self.num_patterns} patterns"
                )

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_vectors(vectors: Sequence[Sequence[int]], num_inputs: int | None = None) -> "PatternSet":
        """Build from row-major 0/1 vectors (``vectors[p][i]``)."""
        if not vectors:
            if num_inputs is None:
                raise SimulationError("empty pattern set needs num_inputs")
            return PatternSet(num_inputs, 0, tuple([0] * num_inputs))
        width = len(vectors[0])
        if num_inputs is not None and num_inputs != width:
            raise SimulationError(
                f"vectors have {width} inputs, expected {num_inputs}"
            )
        words = [0] * width
        for p, vec in enumerate(vectors):
            if len(vec) != width:
                raise SimulationError(
                    f"pattern {p} has {len(vec)} values, expected {width}"
                )
            bit = 1 << p
            for i, value in enumerate(vec):
                if value not in (0, 1):
                    raise SimulationError(
                        f"pattern {p}, input {i}: value {value!r} not 0/1"
                    )
                if value:
                    words[i] |= bit
        return PatternSet(width, len(vectors), tuple(words))

    @staticmethod
    def from_integers(values: Sequence[int], num_inputs: int) -> "PatternSet":
        """Build from integer-encoded vectors, input 0 = most significant bit.

        This matches the paper's convention of naming an input vector by
        its decimal value (Table 1 of the paper: ``u`` = 0..15 for the
        4-input ``lion`` example).
        """
        vectors = []
        for value in values:
            if value < 0 or value >= (1 << num_inputs):
                raise SimulationError(
                    f"vector value {value} out of range for {num_inputs} inputs"
                )
            vectors.append(
                [(value >> (num_inputs - 1 - i)) & 1 for i in range(num_inputs)]
            )
        return PatternSet.from_vectors(vectors, num_inputs)

    @staticmethod
    def random(num_inputs: int, num_patterns: int, seed: int | None = None,
               rng: random.Random | None = None) -> "PatternSet":
        """Uniformly random patterns from an explicit seed *or* RNG.

        Passing both ``seed`` and ``rng`` raises
        :class:`repro.errors.ExperimentError` (see
        :func:`repro.utils.rng.resolve_rng`); with neither, seed 0 applies.
        """
        rng = resolve_rng(seed, rng, "patterns")
        words = tuple(random_word(rng, num_patterns) for _ in range(num_inputs))
        return PatternSet(num_inputs, num_patterns, words)

    @staticmethod
    def exhaustive(num_inputs: int) -> "PatternSet":
        """All ``2**num_inputs`` vectors, ordered by integer value.

        Pattern ``p`` is the vector whose integer encoding (input 0 most
        significant) equals ``p``, so ``lion``-style tables index
        straight into it.
        """
        if num_inputs > 20:
            raise SimulationError(
                f"refusing to enumerate 2**{num_inputs} patterns"
            )
        return PatternSet.from_integers(
            list(range(1 << num_inputs)), num_inputs
        )

    # -- access --------------------------------------------------------------

    def vector(self, p: int) -> Tuple[int, ...]:
        """Row ``p`` as a 0/1 tuple."""
        if not 0 <= p < self.num_patterns:
            raise IndexError(f"pattern {p} out of range")
        return tuple((w >> p) & 1 for w in self.words)

    def as_integer(self, p: int) -> int:
        """Row ``p`` as its integer encoding (input 0 most significant)."""
        vec = self.vector(p)
        value = 0
        for bit in vec:
            value = (value << 1) | bit
        return value

    def iter_vectors(self) -> Iterator[Tuple[int, ...]]:
        """Iterate rows in pattern order."""
        for p in range(self.num_patterns):
            yield self.vector(p)

    # -- slicing / combination ------------------------------------------------

    def take(self, count: int) -> "PatternSet":
        """First ``count`` patterns."""
        return self.slice(0, count)

    def slice(self, start: int, stop: int) -> "PatternSet":
        """Patterns ``start..stop-1`` as a new set."""
        if not 0 <= start <= stop <= self.num_patterns:
            raise IndexError(f"slice [{start}, {stop}) out of range")
        width = stop - start
        mask = full_mask(width)
        words = tuple((w >> start) & mask for w in self.words)
        return PatternSet(self.num_inputs, width, words)

    def concat(self, other: "PatternSet") -> "PatternSet":
        """This set followed by ``other``."""
        if other.num_inputs != self.num_inputs:
            raise SimulationError("pattern sets have different input counts")
        shift = self.num_patterns
        words = tuple(
            w | (ow << shift) for w, ow in zip(self.words, other.words)
        )
        return PatternSet(self.num_inputs, shift + other.num_patterns, words)

    def select(self, indices: Sequence[int]) -> "PatternSet":
        """Re-index patterns: new pattern k = old pattern ``indices[k]``."""
        return PatternSet.from_vectors(
            [self.vector(p) for p in indices], self.num_inputs
        )

    def __len__(self) -> int:
        return self.num_patterns


@dataclass(frozen=True)
class PatternPairSet:
    """An immutable set of two-pattern (launch, capture) tests.

    ``launch`` holds the initialization vectors ``v1``, ``capture`` the
    observation vectors ``v2``; both halves have the same input count and
    the same number of patterns, and pair ``p`` is row ``p`` of each.
    """

    launch: PatternSet
    capture: PatternSet

    def __post_init__(self):
        if self.launch.num_inputs != self.capture.num_inputs:
            raise SimulationError(
                f"launch half has {self.launch.num_inputs} inputs, "
                f"capture half has {self.capture.num_inputs}"
            )
        if self.launch.num_patterns != self.capture.num_patterns:
            raise SimulationError(
                f"launch half has {self.launch.num_patterns} patterns, "
                f"capture half has {self.capture.num_patterns}"
            )

    @property
    def num_inputs(self) -> int:
        """Input count shared by both halves."""
        return self.launch.num_inputs

    @property
    def num_patterns(self) -> int:
        """Number of pairs (the block width for detection words)."""
        return self.launch.num_patterns

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_vector_pairs(pairs: Sequence[Tuple[Sequence[int], Sequence[int]]],
                          num_inputs: int | None = None) -> "PatternPairSet":
        """Build from ``(v1, v2)`` row pairs of 0/1 vectors."""
        launches = [list(v1) for v1, _ in pairs]
        captures = [list(v2) for _, v2 in pairs]
        return PatternPairSet(
            PatternSet.from_vectors(launches, num_inputs),
            PatternSet.from_vectors(captures, num_inputs),
        )

    @staticmethod
    def random(num_inputs: int, num_pairs: int, seed: int | None = None,
               rng: random.Random | None = None) -> "PatternPairSet":
        """Independent uniformly random halves (enhanced-scan style pairs).

        With an enhanced scan cell both vectors of a pair are arbitrary,
        so the launch and capture halves are drawn independently from one
        RNG stream (deterministic given ``seed``).  As with
        :meth:`PatternSet.random`, ``seed`` and ``rng`` are mutually
        exclusive (:func:`repro.utils.rng.resolve_rng`).
        """
        rng = resolve_rng(seed, rng, "pattern-pairs")
        launch = PatternSet.random(num_inputs, num_pairs, rng=rng)
        capture = PatternSet.random(num_inputs, num_pairs, rng=rng)
        return PatternPairSet(launch, capture)

    # -- access --------------------------------------------------------------

    def pair(self, p: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Pair ``p`` as ``(v1, v2)`` 0/1 tuples."""
        return (self.launch.vector(p), self.capture.vector(p))

    def iter_pairs(self) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """Iterate ``(v1, v2)`` pairs in order."""
        for p in range(self.num_patterns):
            yield self.pair(p)

    # -- slicing / combination ------------------------------------------------

    def take(self, count: int) -> "PatternPairSet":
        """First ``count`` pairs."""
        return PatternPairSet(self.launch.take(count), self.capture.take(count))

    def slice(self, start: int, stop: int) -> "PatternPairSet":
        """Pairs ``start..stop-1`` as a new set."""
        return PatternPairSet(
            self.launch.slice(start, stop), self.capture.slice(start, stop)
        )

    def select(self, indices: Sequence[int]) -> "PatternPairSet":
        """Re-index pairs: new pair k = old pair ``indices[k]``."""
        return PatternPairSet(
            self.launch.select(indices), self.capture.select(indices)
        )

    def concat(self, other: "PatternPairSet") -> "PatternPairSet":
        """This set followed by ``other``."""
        return PatternPairSet(
            self.launch.concat(other.launch),
            self.capture.concat(other.capture),
        )

    def __len__(self) -> int:
        return self.num_patterns

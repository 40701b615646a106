"""Big-integer bit-vector helpers.

The simulators in this package represent the value of one signal across N
patterns as a single Python integer: bit ``i`` is the signal's value under
pattern ``i``.  Python's arbitrary-precision integers make the bitwise gate
operations run in C regardless of N, which is the core performance trick of
the whole library (see "Data representation: big-int words vs. packed
matrices" in ``docs/architecture.md``).

This module collects the small amount of bit fiddling that is shared by the
simulators, the fault machinery and the ADI computation.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np


def full_mask(num_bits: int) -> int:
    """Return an integer with the low ``num_bits`` bits set.

    This is the all-ones word used to implement NOT/NAND/NOR/XNOR for a
    pattern block of ``num_bits`` patterns.
    """
    if num_bits < 0:
        raise ValueError(f"num_bits must be non-negative, got {num_bits}")
    return (1 << num_bits) - 1


def popcount(word: int) -> int:
    """Count set bits of a non-negative integer."""
    if word < 0:
        raise ValueError("popcount is defined for non-negative integers")
    return word.bit_count() if hasattr(word, "bit_count") else bin(word).count("1")


def iter_bits(word: int) -> Iterator[int]:
    """Yield the indices of set bits of ``word`` in increasing order.

    Uses the ``word & -word`` lowest-set-bit trick so the cost is
    proportional to the number of set bits, not the word width.
    """
    while word:
        low = word & -word
        yield low.bit_length() - 1
        word ^= low


def bit_indices(word: int) -> List[int]:
    """Return the indices of set bits of ``word`` as a list."""
    return list(iter_bits(word))


def bits_to_array(word: int, num_bits: int) -> np.ndarray:
    """Expand ``word`` into a numpy ``uint8`` 0/1 array of length ``num_bits``.

    Bit ``i`` of ``word`` lands at index ``i`` of the result.  Used to turn
    detection masks into per-pattern columns for vectorized ``ndet``
    accumulation.
    """
    if num_bits < 0:
        raise ValueError(f"num_bits must be non-negative, got {num_bits}")
    num_bytes = (num_bits + 7) // 8
    raw = word.to_bytes(num_bytes, "little") if num_bytes else b""
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits[:num_bits]

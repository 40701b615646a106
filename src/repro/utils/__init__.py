"""Shared low-level utilities: bit vectors, packed detection matrices,
RNG plumbing, report formatting."""

from repro.utils.bitvec import (
    bit_indices,
    bits_to_array,
    full_mask,
    iter_bits,
    popcount,
)
from repro.utils.detmatrix import DetectionMatrix, num_words_for, tail_mask
from repro.utils.rng import derive_seed, make_rng

__all__ = [
    "DetectionMatrix",
    "bit_indices",
    "bits_to_array",
    "derive_seed",
    "full_mask",
    "iter_bits",
    "make_rng",
    "num_words_for",
    "popcount",
    "tail_mask",
]

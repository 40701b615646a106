"""Packed detection matrices: ``uint64`` words as the native currency.

A :class:`DetectionMatrix` holds the detection sets of ``F`` faults over
``P`` patterns as a ``(F, ceil(P/64))`` ``uint64`` array — bit ``p`` of
row ``f`` set iff pattern ``p`` detects fault ``f``.  This is exactly
the tensor the batched numpy fault-simulation engine produces
internally; keeping it packed end-to-end lets every detection-set
consumer (ADI computation, fault dropping, n-detection, diagnosis) run
as vectorized word operations instead of per-fault Python big-int
loops — the O(F x P) round-trip this type exists to eliminate.

Layout invariants (validated on construction):

* ``words.shape == (num_faults, max(1, ceil(num_patterns / 64)))``;
* word ``w`` of a row covers patterns ``64*w .. 64*w + 63`` with the
  pattern index increasing from the least significant bit — the same
  convention as the big-int detection words, so row ``f`` *is* the
  big-int word of fault ``f``, chunked;
* bits at positions ``>= num_patterns`` (the tail of the last word) are
  zero, so popcounts and reductions never need masking.

Big-int interop (:meth:`from_bigints` / :meth:`to_bigints` /
:meth:`row_int`, and :meth:`column_bigints` for the transpose) is the
compatibility boundary: legacy engines pack once on entry, legacy APIs
and the dynamic orders' bitset sweep unpack once on exit, and
everything between stays ``uint64``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

_ONES64 = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Byte-popcount lookup for the numpy < 2.0 fallback of :func:`popcount64`.
_BYTE_POPCOUNTS = np.array(
    [bin(v).count("1") for v in range(256)], dtype=np.int64
)

#: Cap, in elements, on dense (faults x patterns) scratch allocations.
#: Consumers derive int64 scratch of the same shape from the chunks, so
#: the worst-case transient per chunk is ~8x this in bytes (~8 MB) plus
#: the unpacked bits themselves (~10 MB in all).
DENSE_CHUNK_ELEMS = 1 << 20


def popcount64(words: np.ndarray) -> np.ndarray:
    """Per-element popcount of a ``uint64`` array (int64 result)."""
    if hasattr(np, "bitwise_count"):  # numpy >= 2.0
        return np.bitwise_count(words).astype(np.int64)
    # Fallback: popcount via the byte view (8 bits at a time).
    return _BYTE_POPCOUNTS[words.view(np.uint8)] \
        .reshape(words.shape + (8,)).sum(axis=-1)


def num_words_for(num_patterns: int) -> int:
    """Packed word count of a ``num_patterns``-wide block (min. 1)."""
    return max(1, (num_patterns + 63) // 64)


def tail_mask(num_patterns: int) -> np.uint64:
    """Mask selecting the valid bits of the *last* word of a row."""
    tail_bits = num_patterns - 64 * (num_words_for(num_patterns) - 1)
    if tail_bits >= 64:
        return _ONES64
    return np.uint64((1 << max(tail_bits, 0)) - 1)


@dataclass(frozen=True)
class DetectionMatrix:
    """Detection sets of ``num_faults`` faults packed into uint64 words.

    Immutable by convention: methods return new matrices and
    :attr:`words` should be treated as read-only (consumers that need a
    scratch copy — e.g. dynamic ordering — copy explicitly).
    """

    words: np.ndarray  # (num_faults, num_words) uint64
    num_patterns: int

    def __post_init__(self):
        words = self.words
        if words.ndim != 2 or words.dtype != np.uint64:
            raise ValueError(
                f"detection matrix needs a 2-D uint64 array, got "
                f"{words.dtype} with shape {words.shape}"
            )
        if self.num_patterns < 0:
            raise ValueError(
                f"num_patterns must be non-negative, got {self.num_patterns}"
            )
        if words.shape[1] != num_words_for(self.num_patterns):
            raise ValueError(
                f"{self.num_patterns} patterns need "
                f"{num_words_for(self.num_patterns)} words per row, got "
                f"{words.shape[1]}"
            )
        if words.shape[0]:
            mask = tail_mask(self.num_patterns)
            if mask != _ONES64 and np.any(words[:, -1] & ~mask):
                raise ValueError(
                    "tail bits beyond num_patterns must be zero"
                )

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zeros(num_faults: int, num_patterns: int) -> "DetectionMatrix":
        """An all-undetected matrix."""
        return DetectionMatrix(
            np.zeros((num_faults, num_words_for(num_patterns)),
                     dtype=np.uint64),
            num_patterns,
        )

    @staticmethod
    def from_rows(rows: np.ndarray, num_patterns: int) -> "DetectionMatrix":
        """Copy a raw ``(F, W)`` uint64 array, masking the tail word.

        Always copies, so the caller's buffer is never aliased or
        mutated by the tail masking.
        """
        rows = np.array(rows, dtype=np.uint64, copy=True, order="C")
        if rows.shape[0]:
            mask = tail_mask(num_patterns)
            if mask != _ONES64:
                rows[:, -1] &= mask
        return DetectionMatrix(rows, num_patterns)

    @staticmethod
    def from_bigints(values: Iterable[int],
                     num_patterns: int) -> "DetectionMatrix":
        """Pack big-int detection words (bit ``p`` = pattern ``p``) once."""
        values = list(values)
        width = num_words_for(num_patterns)
        raw = b"".join(v.to_bytes(width * 8, "little") for v in values)
        words = np.frombuffer(raw, dtype="<u8").reshape(len(values), width)
        return DetectionMatrix(words.astype(np.uint64, copy=True),
                               num_patterns)

    # -- shape ----------------------------------------------------------------

    @property
    def num_faults(self) -> int:
        """Number of rows (faults)."""
        return self.words.shape[0]

    @property
    def num_words(self) -> int:
        """Packed words per row."""
        return self.words.shape[1]

    def __len__(self) -> int:
        return self.num_faults

    # -- converters (the big-int compatibility boundary) ----------------------

    def row_int(self, row: int) -> int:
        """Row ``row`` as one big-int detection word."""
        return int.from_bytes(self.words[row].astype("<u8").tobytes(),
                              "little")

    def to_bigints(self) -> List[int]:
        """Every row as a big-int detection word, in row order.

        Rows are sliced out of one C-contiguous little-endian buffer (the
        words themselves on a little-endian host) through a
        :class:`memoryview`, so no whole-matrix copy is made.
        """
        raw = memoryview(
            np.ascontiguousarray(self.words, dtype="<u8").reshape(-1)
        ).cast("B")
        stride = self.num_words * 8
        return [
            int.from_bytes(raw[r * stride:(r + 1) * stride], "little")
            for r in range(self.num_faults)
        ]

    def column_bigints(self) -> List[int]:
        """Every pattern column as a big-int over rows, in pattern order.

        Bit ``f`` of entry ``p`` is set iff row ``f`` has bit ``p`` set:
        the transpose of :meth:`to_bigints`.  Byte ``b`` of every row
        (patterns ``8b .. 8b + 7``) is transposed into one line of a
        ``(bytes, num_faults)`` block of at most
        :data:`DENSE_CHUNK_ELEMS` elements, and bit ``k`` of a line,
        packed along the faults, is the column of pattern ``8b + k``.
        """
        raw = np.ascontiguousarray(self.words, dtype="<u8").view(np.uint8)
        step = max(1, DENSE_CHUNK_ELEMS // max(self.num_faults, 1))
        cols: List[int] = [0] * raw.shape[1] * 8
        for start in range(0, raw.shape[1], step):
            block = np.ascontiguousarray(raw[:, start:start + step].T)
            stop = 8 * (start + block.shape[0])
            for bit in range(8):
                packed = np.packbits(block & (1 << bit), axis=1,
                                     bitorder="little")
                cols[8 * start + bit:stop:8] = [
                    int.from_bytes(line.tobytes(), "little")
                    for line in packed
                ]
        return cols[:self.num_patterns]

    # -- vectorized queries ---------------------------------------------------

    def any_rows(self) -> np.ndarray:
        """Boolean per fault: detected by at least one pattern."""
        return self.words.any(axis=1)

    def row_popcounts(self) -> np.ndarray:
        """Detection count per fault (``|D(f)|``), int64."""
        return popcount64(self.words).sum(axis=1)

    def iter_dense_chunks(self, max_elems: Optional[int] = None):
        """Yield ``(row_start, bits)`` dense 0/1 row chunks.

        ``bits`` is the unpacked ``(rows, num_patterns)`` uint8 view of
        rows ``row_start .. row_start + rows - 1``, with at most
        ``max_elems`` (default :data:`DENSE_CHUNK_ELEMS`) elements per
        chunk, or one row if a row is wider — the one chunking idiom
        every dense-scratch consumer (column counts, ADI reductions,
        capped n-detection) shares, so the transient allocation stays
        bounded regardless of matrix size.
        """
        if max_elems is None:
            max_elems = DENSE_CHUNK_ELEMS
        chunk = max(1, max_elems // max(self.num_patterns, 1))
        for start in range(0, self.num_faults, chunk):
            sub = DetectionMatrix(
                self.words[start:start + chunk], self.num_patterns
            )
            yield start, sub.unpack_bits()

    def column_counts(self) -> np.ndarray:
        """Detections per *pattern* — the ADI pipeline's ``ndet`` vector.

        Entry ``p`` is the number of rows whose bit ``p`` is set; shape
        ``(num_patterns,)``, int64.  Accumulated over dense row chunks.
        """
        counts = np.zeros(self.num_patterns, dtype=np.int64)
        if self.num_faults == 0 or self.num_patterns == 0:
            return counts
        for __, bits in self.iter_dense_chunks():
            counts += bits.sum(axis=0, dtype=np.int64)
        return counts

    def unpack_bits(self) -> np.ndarray:
        """The matrix as a dense ``(num_faults, num_patterns)`` 0/1 array."""
        if self.num_faults == 0:
            return np.zeros((0, self.num_patterns), dtype=np.uint8)
        bits = np.unpackbits(
            self.words.astype("<u8").view(np.uint8), axis=1,
            bitorder="little",
        )
        return bits[:, : self.num_patterns]

    def first_set_bits(self) -> np.ndarray:
        """Per fault, the lowest set bit index (first detecting pattern).

        Rows with no detection get ``-1``.  Fully vectorized: locate the
        first non-zero word per row, isolate its lowest set bit with
        ``w & -w``, and read the bit position as ``popcount(low - 1)``.
        """
        words = self.words
        if self.num_faults == 0:
            return np.empty(0, dtype=np.int64)
        nonzero = words != 0
        has = nonzero.any(axis=1)
        first_word = np.argmax(nonzero, axis=1)
        w = words[np.arange(words.shape[0]), first_word]
        w = np.where(has, w, np.uint64(1))  # dummy for empty rows
        low = w & (~w + np.uint64(1))
        bit = popcount64(low - np.uint64(1))
        out = first_word.astype(np.int64) * 64 + bit
        out[~has] = -1
        return out

    def unique_rows(self) -> "tuple[np.ndarray, np.ndarray]":
        """Deduplicate rows into equivalence classes: ``(reps, inverse)``.

        ``reps`` holds the row index of each distinct row's *first*
        occurrence, in increasing row order, so class ``c``'s
        representative row is ``words[reps[c]]``; ``inverse`` maps every
        row to its class index (``words[reps[inverse[r]]] == words[r]``
        for all ``r``).  This is the compression primitive of the
        diagnosis pipeline: faults with identical detection (or fail)
        signatures collapse to one representative row, and scoring runs
        once per class instead of once per fault.
        """
        if self.num_faults == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        __, first, inverse = np.unique(
            self.words, axis=0, return_index=True, return_inverse=True
        )
        # np.unique orders classes by row *content*; re-rank them by
        # first occurrence so class order is stable under row order.
        order = np.argsort(first, kind="stable")
        rank = np.empty(order.size, dtype=np.int64)
        rank[order] = np.arange(order.size, dtype=np.int64)
        return (first[order].astype(np.int64),
                rank[inverse.reshape(-1).astype(np.int64)])

    def row_indices(self, row: int) -> np.ndarray:
        """Sorted pattern indices of row ``row``'s set bits (int64)."""
        bits = np.unpackbits(
            self.words[row].astype("<u8").view(np.uint8), bitorder="little"
        )
        return np.flatnonzero(bits[: self.num_patterns]).astype(np.int64)

    def row_index_lists(self) -> List[np.ndarray]:
        """Per-row set-bit index arrays — ``D(f)`` for every fault at once.

        One ``nonzero`` per dense row chunk replaces ``num_faults``
        Python bit-scan loops; the returned arrays are sorted views into
        per-chunk flat column arrays.
        """
        out: List[np.ndarray] = []
        for __, bits in self.iter_dense_chunks():
            rows, cols = np.nonzero(bits)
            cols = cols.astype(np.int64)
            splits = np.searchsorted(rows, np.arange(1, bits.shape[0]))
            out.extend(np.split(cols, splits))
        return out

    # -- combination ----------------------------------------------------------

    def select_rows(self, indices: Sequence[int]) -> "DetectionMatrix":
        """Row subset/reorder: new row ``k`` = old row ``indices[k]``."""
        idx = np.asarray(indices, dtype=np.int64)
        return DetectionMatrix(self.words[idx].copy(), self.num_patterns)

    def row_slice(self, start: int, stop: int) -> "DetectionMatrix":
        """Rows ``start .. stop - 1`` as a new matrix (the shard view).

        Python slice semantics: out-of-range bounds clamp, an empty
        range yields a valid 0-row matrix.  Together with
        :meth:`concat_rows` this is the sharding algebra of
        :mod:`repro.fsim.sharded` — ``concat_rows`` of any partition's
        ``row_slice`` views round-trips to the original matrix
        (property-tested).
        """
        return DetectionMatrix(self.words[start:stop].copy(),
                               self.num_patterns)

    @staticmethod
    def concat_rows(parts: Sequence["DetectionMatrix"],
                    num_patterns: int) -> "DetectionMatrix":
        """Stack row blocks in order — the shard reassembly primitive.

        Every part must carry exactly ``num_patterns`` patterns (shards
        of one block always do); empty parts are legal and contribute
        nothing.  An empty ``parts`` list yields a 0-row matrix.
        """
        for index, part in enumerate(parts):
            if part.num_patterns != num_patterns:
                raise ValueError(
                    f"part {index} covers {part.num_patterns} patterns, "
                    f"expected {num_patterns}"
                )
        if not parts:
            return DetectionMatrix.zeros(0, num_patterns)
        words = np.vstack([part.words for part in parts])
        return DetectionMatrix(np.ascontiguousarray(words), num_patterns)

    def take_patterns(self, count: int) -> "DetectionMatrix":
        """The first ``count`` pattern columns (``PatternSet.take``)."""
        if not 0 <= count <= self.num_patterns:
            raise ValueError(
                f"cannot take {count} of {self.num_patterns} patterns"
            )
        if count == self.num_patterns:
            return self
        return DetectionMatrix.from_rows(
            self.words[:, :num_words_for(count)], count
        )

    @staticmethod
    def concat_patterns(parts: Sequence["DetectionMatrix"],
                        num_faults: int) -> "DetectionMatrix":
        """Columns of ``parts`` side by side, in order (``PatternSet.concat``).

        Every part must have exactly ``num_faults`` rows.  A part that
        starts on a word boundary is copied word for word; otherwise its
        words are shifted into place, the high bits of each word carrying
        into the next.
        """
        for index, part in enumerate(parts):
            if part.num_faults != num_faults:
                raise ValueError(
                    f"part {index} has {part.num_faults} rows, "
                    f"expected {num_faults}"
                )
        total = sum(part.num_patterns for part in parts)
        words = np.zeros((num_faults, num_words_for(total)), dtype=np.uint64)
        offset = 0
        for part in parts:
            if not part.num_patterns:
                continue
            first, shift = divmod(offset, 64)
            stop = first + part.num_words
            if shift:
                words[:, first:stop] |= part.words << np.uint64(shift)
                carry = part.words >> np.uint64(64 - shift)
                end = min(stop + 1, words.shape[1])
                words[:, first + 1:end] |= carry[:, :end - first - 1]
            else:
                words[:, first:stop] = part.words
            offset += part.num_patterns
        return DetectionMatrix(words, total)

    def select_patterns(self, indices: Sequence[int]) -> "DetectionMatrix":
        """Column subset/reorder: new pattern ``k`` = old ``indices[k]``
        (``PatternSet.select``)."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_patterns):
            raise ValueError(
                f"pattern index outside 0..{self.num_patterns - 1}"
            )
        width = num_words_for(idx.size)
        words = np.zeros((self.num_faults, width), dtype=np.uint64)
        if idx.size:
            for start, bits in self.iter_dense_chunks():
                packed = np.packbits(bits[:, idx], axis=1, bitorder="little")
                raw = np.zeros((packed.shape[0], width * 8), dtype=np.uint8)
                raw[:, :packed.shape[1]] = packed
                words[start:start + packed.shape[0]] = raw.view("<u8")
        return DetectionMatrix(words, int(idx.size))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DetectionMatrix):
            return NotImplemented
        return (self.num_patterns == other.num_patterns
                and self.words.shape == other.words.shape
                and bool(np.array_equal(self.words, other.words)))

    def __hash__(self):  # pragma: no cover - dataclass requires explicit opt-out
        raise TypeError("DetectionMatrix is not hashable")

"""Dynamic fault orders ``Fdynm`` / ``F0dynm`` (paper Section 3).

The dynamic procedure imitates fault dropping during the ordering itself:
when a fault ``f`` is placed into the order, it "does not need to be
considered further", so ``ndet(u)`` is decremented for every ``u`` in
``D(f)``, and the ADI of the remaining faults is recomputed against the
updated counts.  The next fault placed is always one with the currently
highest ADI (ties broken by original position, mirroring the static
orders).

Complexity.  One placement decrements every ``ndet(u)`` it touches by
exactly 1, so a fault's current ADI only ever *decreases*, and only by
small steps: the top of the order is a dense plateau of tied values.
The minimum-mode order therefore runs as a **per-level sweep over
bitsets**: Python ints whose bit ``i`` is fault position ``i`` (fault
sets) or whose bit ``u`` is pattern ``u`` (pattern sets).  Faults sit
in buckets keyed by their static ADI.  At plateau ``V`` the *front* is
bucket ``V`` plus the faults that came down from ``V + 1``, and the
*stale* set starts empty.  The next fault placed is the lowest set bit
of ``front & ~stale``: position order is bit order.  Placing ``p``
subtracts 1 from ``ndet`` over ``D(p)`` by borrow propagation through
``ndet``'s bit planes (``max(ndet).bit_length()`` pattern sets), and
reads off the planes the patterns that fell to ``V - 1``.  For each
such pattern ``u`` the faults whose ``D(f)`` holds it -- the column
``cols[u]`` -- are OR'd into the stale set.  The level ends when no
live front fault is left; what remains of the front is stale and comes
down to ``V - 1``.

Why the sweep is exact.  While the plateau sits at ``V`` only faults
whose every ``ndet(u)`` over ``D(f)`` is at least ``V`` are placed, so
no count below ``V`` changes and none falls below ``V - 1``.  By
induction every front fault's ADI is exactly ``V`` when its level
starts: a fault found stale at ``V`` has ADI exactly ``V - 1`` and
keeps it until the plateau gets there, so it cannot skip a value (and
computing its ADI on descent would gain nothing).  During level ``V``
a pattern falls below ``V`` only as one a placement took from ``V`` to
``V - 1``, so the stale set is exactly the front faults whose ADI has
fallen below ``V``, and it only grows.  The remaining faults with ADI
``V`` are therefore exactly the live front; taking the lowest position
each time makes each placement the paper's argmax with the lowest
position on ties.

Each placement costs a few big-int operations over the fault and
pattern sets and each fallen pattern one OR, so a stale fault costs
nothing until it is placed.  The full placement sequence is computed
once per :class:`~repro.adi.index.AdiResult` and cached on it, so
:func:`fdynm`, :func:`f0dynm` and :func:`dynamic_prefix` share one
sweep.  The sweep's working views -- each row ``D(f)`` and each column
as a big-int -- are derived from
:attr:`~repro.adi.index.AdiResult.matrix` at the start of that one
build.  Average mode (no min structure to exploit) keeps the lazy
max-heap over per-fault index arrays.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

import numpy as np

from repro.adi.index import AdiMode, AdiResult


def _bitset(mask: np.ndarray) -> int:
    """A boolean array as one int: bit ``i`` set iff ``mask[i]``."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(),
                          "little")


def _minimum_placements(result: AdiResult) -> List[Tuple[int, int]]:
    """Per-level bitset sweep for ``AdiMode.MINIMUM`` (see module doc)."""
    rows = result.matrix.to_bigints()
    cols = result.matrix.column_bigints()
    ndet = result.ndet
    planes = [_bitset(((ndet >> k) & 1).astype(bool))
              for k in range(int(ndet.max(initial=0)).bit_length())]
    adi = result.adi
    buckets = {value: _bitset(adi == value)
               for value in set(adi[adi > 0].tolist())}

    placements: List[Tuple[int, int]] = []
    down = 0
    for value in range(max(buckets, default=0), 0, -1):
        front = buckets.pop(value, 0) | down
        live = front
        stale = 0
        below = [(value - 1) >> k & 1 for k in range(len(planes))]
        while live:
            low = live & -live
            i = low.bit_length() - 1
            placements.append((i, value))
            front ^= low
            row = rows[i]
            # ndet -= 1 over D(i): the borrow runs up the planes.  Here
            # and below, x & (p ^ x) is x & ~p without the negative int
            # that ~p makes, which costs several times more to AND.
            borrow = row
            for k, plane in enumerate(planes):
                planes[k] = plane ^ borrow
                borrow &= plane ^ borrow
                if not borrow:
                    break
            # The patterns of D(i) whose count is now value - 1: never
            # none, since D(i)'s lowest count was value.
            fallen = row
            for plane, bit in zip(planes, below):
                fallen &= plane if bit else plane ^ fallen
            while fallen:
                low = fallen & -fallen
                stale |= cols[low.bit_length() - 1]
                fallen ^= low
            live = front ^ (front & stale)
        # No live fault is left: the rest of the front has ADI value - 1.
        down = front
    return placements


def _average_placements(result: AdiResult) -> List[Tuple[int, int]]:
    """Lazy max-heap dynamic order for ``AdiMode.AVERAGE``.

    A popped entry is an upper bound (``ndet`` only decreases), so a
    stale entry is re-pushed with its true current value; an entry that
    pops at its true value is the argmax and is placed.
    """
    d_sets = result.matrix.row_index_lists()
    ndet = result.ndet.astype(np.int64).copy()

    def current_adi(i: int) -> int:
        vecs = d_sets[i]
        if not vecs.size:
            return 0
        return int(ndet[vecs].mean())

    heap = [(-current_adi(i), i) for i in result.detected_indices]
    heapq.heapify(heap)
    placements: List[Tuple[int, int]] = []
    while heap:
        neg_value, i = heapq.heappop(heap)
        fresh = current_adi(i)
        if -neg_value != fresh:
            heapq.heappush(heap, (-fresh, i))
            continue
        placements.append((i, fresh))
        vecs = d_sets[i]
        if vecs.size:
            ndet[vecs] -= 1
    return placements


def _placements(result: AdiResult) -> Tuple[Tuple[int, int], ...]:
    """``(position, adi_at_placement)`` for every fault ``U`` detects
    (exactly the nonzero-ADI faults).

    The placement sequence is the unique one the paper defines — at
    every step the remaining fault with the highest current ADI, ties to
    the lowest position — so both implementations yield identical output
    (cross-checked in the test suite); they differ only in how the
    argmax is found.  Computed once per result and cached on it as a
    tuple, so no caller can change what the next one reads.
    """
    if result._placements is None:
        build = (_minimum_placements if result.mode == AdiMode.MINIMUM
                 else _average_placements)
        result._placements = tuple(build(result))
    return result._placements


def fdynm(result: AdiResult) -> List[int]:
    """Dynamic decreasing-ADI order; zero-ADI faults at the end.

    This is the order the paper recommends for steep fault-coverage
    curves (and walks through step by step on ``lion`` in Section 3).
    """
    return [i for i, __ in _placements(result)] + result.undetected_indices


def f0dynm(result: AdiResult) -> List[int]:
    """Zero-ADI faults first, then the dynamic decreasing-ADI order.

    This is the order the paper recommends for dynamic test compaction
    (smallest test sets, Table 5's best column).
    """
    return result.undetected_indices + [i for i, __ in _placements(result)]


def dynamic_prefix(result: AdiResult, count: int) -> List[tuple]:
    """First ``count`` placements of ``Fdynm`` with their ADI at placement.

    Mirrors the paper's Section 3 walk-through ("the highest accidental
    detection index is obtained for f22 with ADI = 15, ...").  Returns
    ``(position, adi_at_placement)`` pairs.

    A slice of the placement sequence :func:`fdynm` reads, so the
    placements are identical to ``fdynm(result)[:count]`` by
    construction (regression-tested on the paper's ``lion``
    walk-through).  This includes honouring ``result.mode``: an
    ``AdiMode.AVERAGE`` result yields mean-based placements, matching
    ``fdynm``.
    """
    return list(_placements(result)[:max(count, 0)])

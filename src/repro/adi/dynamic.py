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
The minimum-mode order therefore runs as a **per-level sweep over the
packed detection sets**.  Faults sit in buckets keyed by an upper bound
on their ADI (initially the static ADI), each bucket a position-sorted
list.  At plateau ``V`` the sweep builds the *threshold mask*
``{u : ndet(u) < V}`` as a Python integer once, then walks bucket ``V``
in position order.  ``D(f)`` meets the mask iff the fault's true ADI
has fallen below ``V``: it goes on a down list.  Otherwise its ADI is
exactly ``V`` and it is placed; the patterns its placement takes from
``V`` to ``V - 1`` are OR'd into the mask, so every later fault in the
walk is tested against the counts as they are at that moment.  The
down list is sorted because it fills in walk order; merged with bucket
``V - 1`` (two sorted runs) it becomes the next level's walk.

Why the sweep is exact.  While the plateau sits at ``V`` only faults
whose every ``ndet(u)`` over ``D(f)`` is at least ``V`` are placed, so
no count below ``V`` changes and none falls below ``V - 1``.  By
induction every bucket key is the fault's exact ADI when its level
starts: a fault found stale at ``V`` has ADI exactly ``V - 1`` and
keeps it until the plateau gets there, so it cannot skip a value (and
computing its ADI on descent would gain nothing).  At plateau ``V``
the remaining faults with ADI ``V`` are therefore exactly the live
ones of bucket ``V``; the walk meets them in position order, and a
fault once found stale stays stale because the mask only grows.  So
each placement is the paper's argmax with the lowest position on
ties.

Each test is one ``O(P/64)`` big-int AND and each level costs one mask
build.  The full placement sequence is computed once per
:class:`~repro.adi.index.AdiResult` and cached on it, so :func:`fdynm`,
:func:`f0dynm` and :func:`dynamic_prefix` share one sweep.  Average
mode (no min structure to exploit) keeps the lazy max-heap.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Tuple

import numpy as np

from repro.adi.index import AdiMode, AdiResult, compute_adi


def _threshold_mask(ndet: np.ndarray, bound: int) -> int:
    """``{u : ndet(u) <= bound}`` as a big-int pattern mask."""
    return int.from_bytes(
        np.packbits(ndet <= bound, bitorder="little").tobytes(), "little"
    )


def _minimum_placements(result: AdiResult,
                        active: List[int]) -> List[Tuple[int, int]]:
    """Per-level sweep for ``AdiMode.MINIMUM`` (see module doc).

    ``active`` must be ascending: buckets inherit its order.
    """
    ndet = result.ndet.astype(np.int64).copy()
    det_vectors = result.det_vectors
    masks = result.detection_masks
    adi = result.adi

    buckets = {}
    for i in active:
        buckets.setdefault(int(adi[i]), []).append(i)
    placements: List[Tuple[int, int]] = []
    down: List[int] = []
    for value in range(max(buckets, default=0), 0, -1):
        level = buckets.pop(value, [])
        if down:
            # Two sorted runs: timsort merges them in one linear pass.
            level = sorted(level + down) if level else down
            down = []
        if not level:
            continue
        below = _threshold_mask(ndet, value - 1)
        for i in level:
            if masks[i] & below:
                # Some detecting pattern fell under the plateau: the
                # ADI is now ``value - 1`` (module doc).
                down.append(i)
                continue
            placements.append((i, value))
            seg = det_vectors[i]
            ndet[seg] -= 1
            for u in seg[ndet[seg] == value - 1].tolist():
                below |= 1 << u
    return placements


def _average_placements(result: AdiResult, active: List[int],
                        limit: int) -> List[Tuple[int, int]]:
    """Lazy max-heap dynamic order for ``AdiMode.AVERAGE``.

    A popped entry is an upper bound (``ndet`` only decreases), so a
    stale entry is re-pushed with its true current value; an entry that
    pops at its true value is the argmax and is placed.
    """
    ndet = result.ndet.astype(np.int64).copy()
    det_vectors = result.det_vectors

    def current_adi(i: int) -> int:
        vecs = det_vectors[i]
        if not vecs.size:
            return 0
        return int(ndet[vecs].mean())

    heap = [(-current_adi(i), i) for i in active]
    heapq.heapify(heap)
    placements: List[Tuple[int, int]] = []
    while heap and len(placements) < limit:
        neg_value, i = heapq.heappop(heap)
        fresh = current_adi(i)
        if -neg_value != fresh:
            heapq.heappush(heap, (-fresh, i))
            continue
        placements.append((i, fresh))
        vecs = det_vectors[i]
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
        active = result.detected_indices
        if result.mode == AdiMode.MINIMUM:
            placements = _minimum_placements(result, active)
        else:
            placements = _average_placements(result, active, len(active))
        result._placements = tuple(placements)
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


def dynamic_order(circ, faults: Sequence, patterns,
                  variant: str = "dynm",
                  mode: AdiMode = AdiMode.MINIMUM,
                  backend=None) -> List[int]:
    """One-shot ``Fdynm``/``F0dynm`` from raw inputs.

    Runs the no-dropping ADI simulation through the selected
    fault-simulation backend (:mod:`repro.fsim.backend`) and returns the
    dynamic permutation, so callers that only want the order never touch
    :class:`AdiResult`.  ``variant`` is ``"dynm"`` or ``"0dynm"``.
    Fault-model-polymorphic like :func:`repro.adi.index.compute_adi`:
    pass stuck-at faults with a :class:`~repro.sim.patterns.PatternSet`,
    or transition faults with a
    :class:`~repro.sim.patterns.PatternPairSet`.
    """
    if variant not in ("dynm", "0dynm"):
        raise ValueError(f"variant must be 'dynm' or '0dynm', got {variant!r}")
    result = compute_adi(circ, faults, patterns, mode=mode, backend=backend)
    return fdynm(result) if variant == "dynm" else f0dynm(result)


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

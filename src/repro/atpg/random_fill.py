"""Filling the unspecified (X) positions of PODEM test cubes.

A PODEM cube guarantees detection of its target fault for *every*
completion of the X positions (the D at the output was implied by the
assigned inputs alone), so the fill policy only affects *accidental*
detections — which is exactly the quantity the paper's heuristic is
about.  Random fill is the standard choice and the experiments' default;
constant fills exist for the ablation benchmark.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.errors import AtpgError
from repro.sim.threeval import X


def fill_random(cube: Sequence[int], rng: random.Random) -> List[int]:
    """Replace each X with an independent fair coin flip."""
    return [rng.getrandbits(1) if v == X else v for v in cube]


def fill_constant(cube: Sequence[int], value: int) -> List[int]:
    """Replace each X with ``value`` (0 or 1)."""
    if value not in (0, 1):
        raise AtpgError(f"fill value must be 0 or 1, got {value!r}")
    return [value if v == X else v for v in cube]


def fill_cube(cube: Sequence[int], policy: str,
              rng: random.Random) -> List[int]:
    """Apply a fill policy: ``random``, ``zero`` or ``one``."""
    if policy == "random":
        return fill_random(cube, rng)
    if policy == "zero":
        return fill_constant(cube, 0)
    if policy == "one":
        return fill_constant(cube, 1)
    raise AtpgError(f"unknown fill policy {policy!r}")

"""Two-pattern transition-fault simulation: the reduction's launch half.

Every fault-simulation backend detects a transition fault with the
classic full-scan reduction (see :mod:`repro.faults.transition`):

    pair ``(v1, v2)`` detects slow-to-rise at ``s``  iff
    ``s = 0`` under ``v1``  and  ``s`` stuck-at-0 is detected by ``v2``

so a transition detection word is the AND of two words that existing
machinery already produces:

* the **initialization word** — bit ``p`` set iff the fault line holds
  the required initial value under launch vector ``p``.  That is one
  fault-free simulation of the launch half, shared by *all* faults of a
  query — no per-fault propagation at all;
* the **stuck-at detection word** of :meth:`TransitionFault.as_stuck_at`
  over the capture half — exactly the query each engine optimizes.

:class:`repro.fsim.backend.FaultSimBackend` runs the reduction for every
engine on packed rows (``load_pairs`` simulates the launch half and
packs its node words; a transition query gathers each fault's line from
them and ANDs the result with the stuck-at rows).  This module holds
the same launch-half reads on big-int words, for the two-pattern test
generator and as the reduction's reference.
"""

from __future__ import annotations

from typing import Sequence

from repro.circuit.flatten import CompiledCircuit
from repro.faults.transition import TransitionFault


def launch_line_word(circ: CompiledCircuit, launch_good: Sequence[int],
                     fault: TransitionFault) -> int:
    """Fault-free value word of the fault's line under the launch block.

    A branch carries the same fault-free value as its driver stem, so
    both cases read one node word of the launch simulation.
    """
    if fault.is_stem:
        return launch_good[fault.node]
    return launch_good[circ.fanin[fault.node][fault.pin]]


def initialization_word(circ: CompiledCircuit, launch_good: Sequence[int],
                        fault: TransitionFault, mask: int) -> int:
    """Bit ``p`` set iff launch vector ``p`` initializes ``fault``'s line.

    Slow-to-rise needs the line at 0 under ``v1``; slow-to-fall at 1.
    """
    line = launch_line_word(circ, launch_good, fault) & mask
    return (line ^ mask) if fault.rise else line

"""Scan-chain serialization and test-application-time accounting.

The paper's motivation for steep coverage curves is tester economics:
"an appropriate reordering of the test set reduces the time a defective
chip is expected to spend on a tester until the defect is detected."
For a full-scan circuit that time is dominated by scan shifting — each
test costs ``chain_length`` shift cycles plus one capture cycle — so the
cycle count to the first failing test is the physically meaningful
version of the paper's AVE metric.

This module describes a chain order over the pseudo-PIs of a
combinational test vector and converts test indices into tester cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.circuit.scan import ScanInfo
from repro.errors import CircuitStructureError


@dataclass(frozen=True)
class ScanPlan:
    """How a combinational vector maps onto tester activity.

    ``pi_names`` are true primary inputs (applied broadside);
    ``chain_order`` lists pseudo inputs in scan-in order, first-shifted
    element deepest in the chain.
    """

    pi_names: Tuple[str, ...]
    chain_order: Tuple[str, ...]

    @property
    def chain_length(self) -> int:
        """Flip-flop count on the chain."""
        return len(self.chain_order)

    def cycles_per_test(self) -> int:
        """Shift cycles + 1 capture cycle per applied test."""
        return self.chain_length + 1

    def cycles_to_test(self, test_index: int) -> int:
        """Total tester cycles until test ``test_index`` (0-based) has
        been applied and captured."""
        if test_index < 0:
            raise CircuitStructureError("test index must be non-negative")
        return (test_index + 1) * self.cycles_per_test()


def make_scan_plan(input_names: Sequence[str], scan_info: ScanInfo,
                   chain_order: Optional[Sequence[str]] = None) -> ScanPlan:
    """Build a :class:`ScanPlan` for an extracted full-scan circuit.

    ``input_names`` is the extracted circuit's full PI list (true PIs
    followed by pseudo PIs, as :func:`full_scan_extract` produces);
    ``chain_order`` defaults to the pseudo-input declaration order.
    """
    pseudo = set(scan_info.pseudo_inputs)
    pis = tuple(n for n in input_names if n not in pseudo)
    order = tuple(chain_order) if chain_order else tuple(scan_info.pseudo_inputs)
    if sorted(order) != sorted(scan_info.pseudo_inputs):
        raise CircuitStructureError(
            "chain_order must be a permutation of the pseudo inputs"
        )
    return ScanPlan(pi_names=pis, chain_order=order)


def expected_cycles_to_detection(plan: ScanPlan,
                                 first_fail_indices: Sequence[int]) -> float:
    """Mean tester cycles until a defective chip first fails.

    ``first_fail_indices`` are 0-based first-failing-test indices per
    defective chip (e.g. from a pass/fail dictionary).  This converts
    the paper's AVE-style test counts into physical cycles.
    """
    if not first_fail_indices:
        raise CircuitStructureError("need at least one failing chip")
    total = sum(plan.cycles_to_test(i) for i in first_fail_indices)
    return total / len(first_fail_indices)

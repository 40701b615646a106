"""The accidental detection index: sampling, computation, fault orders.

End-to-end flow (what the experiment harness does per circuit)::

    from repro.adi import select_u, compute_adi, ORDERS

    selection = select_u(circ, faults, seed=0)            # pick U
    result = compute_adi(circ, faults, selection.patterns)  # ndet, D(f), ADI
    order = ORDERS["0dynm"](result)                        # a permutation
    ordered_faults = [faults[i] for i in order]            # feed the ATPG
"""

from repro.adi.dynamic import dynamic_prefix, f0dynm, fdynm
from repro.adi.index import AdiMode, AdiResult, compute_adi, ndet_table
from repro.adi.metrics import (
    CurveReport,
    ave_from_curve,
    ave_ratios,
    curve_report,
)
from repro.adi.ordering import STATIC_ORDERS, f0decr, fdecr, fincr0, forig
from repro.adi.sampling import USelection, select_u

#: All fault orders by the names the paper's tables use.
ORDERS = {
    **STATIC_ORDERS,
    "dynm": fdynm,
    "0dynm": f0dynm,
}

__all__ = [
    "AdiMode",
    "AdiResult",
    "CurveReport",
    "ORDERS",
    "STATIC_ORDERS",
    "USelection",
    "ave_from_curve",
    "ave_ratios",
    "compute_adi",
    "curve_report",
    "dynamic_prefix",
    "f0decr",
    "f0dynm",
    "fdecr",
    "fdynm",
    "fincr0",
    "forig",
    "ndet_table",
    "select_u",
]

"""Static fault orders (paper Section 3).

Every function returns a permutation of ``range(len(result.faults))`` —
positions into the original target list; ``[faults[i] for i in order]``
is the reordered target list the test-generation engine consumes.

Orders:

* ``forig``   — the original order (identity);
* ``fdecr``   — decreasing ADI, zero-ADI faults at the end;
* ``f0decr``  — zero-ADI faults first, then decreasing ADI;
* ``fincr0``  — increasing ADI over detected faults, zero-ADI at the end
  (the paper's deliberately-bad order, used as a control);
* ``fdynm`` / ``f0dynm`` — dynamic variants, in :mod:`repro.adi.dynamic`.

Ties are broken by original position, making every order deterministic
and stable (the paper's strict inequality ``ADI(fi) > ADI(fj)`` cannot
hold in practice — equal indices are common): each static order is one
stable ``np.argsort`` of the ADI array, with zero-ADI faults keyed to
the front or the back.

Every order consumes only the per-position arrays of
:class:`repro.adi.index.AdiResult`, never the faults themselves, so the
same functions order stuck-at and transition fault lists — the
experiment harness reuses them verbatim for the two-pattern workload.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.adi.index import AdiResult


def forig(result: AdiResult) -> List[int]:
    """The original fault order (identity permutation)."""
    return list(range(len(result.faults)))


def fdecr(result: AdiResult) -> List[int]:
    """Decreasing ADI; zero-ADI (undetected-by-``U``) faults at the end.

    Preferred for steep fault-coverage curves: it follows the accidental
    detection indices as closely as possible.
    """
    return np.argsort(-result.adi, kind="stable").tolist()


def f0decr(result: AdiResult) -> List[int]:
    """Zero-ADI faults first (original order), then decreasing ADI.

    Preferred for small test sets: hard-to-detect faults — the ones
    unlikely to be detected accidentally — are targeted before their
    tests could be wasted.
    """
    adi = result.adi
    keys = np.where(adi == 0, np.iinfo(np.int64).min, -adi)
    return np.argsort(keys, kind="stable").tolist()


def fincr0(result: AdiResult) -> List[int]:
    """Increasing ADI over detected faults; zero-ADI at the end.

    The paper's adversarial control: expected to give the *largest* test
    sets, confirming that the index carries signal.
    """
    adi = result.adi
    keys = np.where(adi == 0, np.iinfo(np.int64).max, adi)
    return np.argsort(keys, kind="stable").tolist()


#: Registry used by the experiment harness; dynamic orders are added by
#: :mod:`repro.adi.dynamic` at import time (see ``repro.adi.__init__``).
STATIC_ORDERS = {
    "orig": forig,
    "decr": fdecr,
    "0decr": f0decr,
    "incr0": fincr0,
}

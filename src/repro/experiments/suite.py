"""The benchmark circuit suite used by all experiment tables.

The paper evaluates on the combinational logic of 14 ISCAS-89 circuits
("irs*": irredundant versions).  Those netlists are not redistributable
here, so each suite entry is a *calibrated synthetic stand-in* with the
same primary-input count as the paper's circuit (Table 4, column "inp"),
generated deterministically, then made irredundant with the same
redundancy-removal flow a user would apply to real netlists (the
README's "Paper artefact map" records the substitution).

The two largest circuits are scaled down in gate count so the whole
harness runs in pure Python within a benchmark session; the paper itself
drops ``Fincr0`` for those two, which Table 5's harness mirrors.

``QUICK_CIRCUITS`` is the subset used by default in the pytest
benchmarks; set ``REPRO_FULL=1`` to run everything.
"""

from __future__ import annotations

import hashlib
import os
import uuid
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import List, Optional, Tuple

from repro.circuit.bench import parse_bench, write_bench
from repro.circuit.flatten import CompiledCircuit, compile_circuit, to_netlist
from repro.circuit.generator import GeneratorSpec, generate_circuit
from repro.circuit.redundancy import make_irredundant
from repro.errors import ExperimentError

#: Bump when generator/removal algorithms change, to invalidate caches.
_ALGO_VERSION = 3


@dataclass(frozen=True)
class SuiteEntry:
    """One suite circuit: the paper's name plus our generator recipe.

    ``paper_inputs`` matches the published Table 4 "inp" column exactly;
    ``irredundant`` controls whether the redundancy-removal pass runs
    (skipped for the two scaled-down giants to bound harness runtime —
    their few undetectable faults simply stay in the target list, where
    the paper notes their placement does not affect results).
    """

    name: str
    paper_inputs: int
    num_gates: int
    num_outputs: int
    seed: int
    hardness: float
    locality: float = 0.72
    irredundant: bool = True
    in_quick_set: bool = True
    run_incr0: bool = True


#: The 14 paper circuits.  Gate counts sit in the range of the original
#: benchmarks (scaled for the last two); hardness tunes the share of
#: random-pattern-resistant logic so that, like the paper's Table 4, the
#: number of vectors needed for ~90% coverage varies over two orders of
#: magnitude across the suite.
SUITE: Tuple[SuiteEntry, ...] = (
    SuiteEntry("irs208", 19, 110, 10, seed=208, hardness=0.02),
    SuiteEntry("irs298", 17, 130, 14, seed=298, hardness=0.02),
    SuiteEntry("irs344", 24, 160, 17, seed=344, hardness=0.01),
    SuiteEntry("irs382", 24, 160, 21, seed=382, hardness=0.03),
    SuiteEntry("irs400", 24, 170, 21, seed=400, hardness=0.03),
    SuiteEntry("irs420", 35, 230, 18, seed=420, hardness=0.06),
    SuiteEntry("irs510", 25, 215, 13, seed=510, hardness=0.02),
    SuiteEntry("irs526", 24, 200, 21, seed=526, hardness=0.04),
    SuiteEntry("irs641", 54, 400, 42, seed=641, hardness=0.02),
    SuiteEntry("irs820", 23, 290, 24, seed=820, hardness=0.05),
    SuiteEntry("irs953", 45, 420, 52, seed=953, hardness=0.05),
    SuiteEntry("irs1196", 32, 540, 32, seed=1196, hardness=0.04,
               in_quick_set=False),
    SuiteEntry("irs5378", 214, 1400, 228, seed=5378, hardness=0.02,
               irredundant=False, in_quick_set=False, run_incr0=False),
    SuiteEntry("irs13207", 699, 2600, 760, seed=13207, hardness=0.02,
               irredundant=False, in_quick_set=False, run_incr0=False),
)

#: Circuits exercised by default in tests/benchmarks (small + fast).
QUICK_CIRCUITS: Tuple[str, ...] = tuple(
    e.name for e in SUITE if e.in_quick_set
)

#: All suite circuit names, in paper order.
ALL_CIRCUITS: Tuple[str, ...] = tuple(e.name for e in SUITE)


def suite_entry(name: str) -> SuiteEntry:
    """Look up one suite entry by its paper name."""
    for entry in SUITE:
        if entry.name == name:
            return entry
    raise ExperimentError(
        f"unknown suite circuit {name!r}; available: {list(ALL_CIRCUITS)}"
    )


def selected_circuits(full: Optional[bool] = None) -> List[str]:
    """Quick subset by default; the full suite when ``REPRO_FULL=1``."""
    if full is None:
        full = os.environ.get("REPRO_FULL", "") not in ("", "0")
    return list(ALL_CIRCUITS if full else QUICK_CIRCUITS)


def _generator_spec(entry: SuiteEntry) -> GeneratorSpec:
    return GeneratorSpec(
        name=entry.name,
        num_inputs=entry.paper_inputs,
        num_gates=entry.num_gates,
        num_outputs=entry.num_outputs,
        seed=entry.seed,
        hardness=entry.hardness,
        locality=entry.locality,
    )


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / ".repro_cache" / "suite"


def _cache_key(entry: SuiteEntry) -> str:
    payload = f"v{_ALGO_VERSION}:{entry!r}"
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@lru_cache(maxsize=None)
def build_circuit(name: str) -> CompiledCircuit:
    """Build one suite circuit, irredundant where configured.

    Generation plus redundancy removal can take tens of seconds for the
    larger entries, so the finished netlist is cached on disk in
    ``.bench`` form (keyed by the spec and an algorithm version) and
    reloaded on subsequent runs.  Delete ``.repro_cache/`` or set
    ``REPRO_CACHE_DIR`` to rebuild from scratch.
    """
    entry = suite_entry(name)
    cache_file = _cache_dir() / f"{entry.name}-{_cache_key(entry)}.bench"
    if cache_file.exists():
        return compile_circuit(parse_bench(cache_file, name=entry.name))

    raw = generate_circuit(_generator_spec(entry))
    if entry.irredundant:
        # Batch mode: the goal is an irredundant *artefact*; function
        # preservation across passes is irrelevant for synthesis.
        result = make_irredundant(
            raw,
            name=entry.name,
            batch=True,
            backtrack_limit=600,
            prefilter_patterns=4096,
            max_passes=10,
        )
        circ = result.circuit
    else:
        circ = raw

    _write_atomically(cache_file, write_bench(to_netlist(circ)))
    return circ


def _write_atomically(path: Path, text: str) -> None:
    """Write ``text`` to a uniquely named file beside ``path``, then
    rename it over ``path``.

    A write cut short (ENOSPC, a kill, a second builder of the same
    entry) leaves at most a stray temp file, never a partial netlist at
    ``path`` that every later build would fail to parse.  The file gets
    the umask's mode, as a direct write does (``mkstemp`` would make it
    owner-only).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}-{uuid.uuid4().hex}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise

"""Shared fixtures for the benchmark harness.

Every benchmark regenerating a paper artefact writes its formatted output
to ``results/`` so a benchmark session leaves the full set of reproduced
tables/figures on disk.

The expensive pipeline stages are shared through a session-scoped
:class:`repro.experiments.ExperimentRunner`, mirroring how the paper's
tables are different views of one experiment.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments import ExperimentRunner

#: Circuits benched by default — small enough for a quick session.
#: Set REPRO_FULL=1 to bench the paper's full selection instead.
QUICK_BENCH_CIRCUITS = ("irs208", "irs298", "irs344", "irs400", "irs510")

#: Figure 1 / Table 6 reference circuit (the paper plots irs420).
FIGURE_CIRCUIT = "irs420"


def bench_circuits() -> list:
    from repro.experiments import selected_circuits

    if os.environ.get("REPRO_FULL", "") not in ("", "0"):
        return selected_circuits(full=True)
    return list(QUICK_BENCH_CIRCUITS)


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    return ExperimentRunner(seed=2005)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    path = Path(__file__).resolve().parents[1] / "results"
    path.mkdir(exist_ok=True)
    return path


@pytest.fixture(scope="session")
def record(results_dir):
    """Write one artefact file per reproduced table/figure."""

    def _record(name: str, text: str) -> None:
        (results_dir / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _record

"""Ablation: big-int vs numpy uint64 simulation backends.

The two representations are described under "Data representation:
big-int words vs. packed matrices" in ``docs/architecture.md``.

Two layers are ablated here:

* **true-value simulation** — the raw word packing (one Python big-int op
  per gate vs vectorized ``uint64`` rows through the level schedule,
  with and without the big-int conversions at either end) at several
  pattern widths;
* **fault simulation** — the registered engines of
  :mod:`repro.fsim.backend` (``bigint`` event-driven PPSFP vs ``numpy``
  levelized batches) on a full no-dropping detection-word sweep, the ADI
  pipeline's hot shape.  ``benchmarks/bench_fsim_backends.py`` is the
  dedicated A/B harness with JSON output; this module keeps the ablation
  alongside the other ``bench_ablation_*.py`` studies.
"""

import pytest

from repro.experiments import build_circuit
from repro.faults import collapsed_fault_list
from repro.fsim.backend import available_backends, create_backend
from repro.sim import PatternSet, simulate
from repro.sim import npsim
from repro.utils.detmatrix import DetectionMatrix

CIRCUIT = "irs641"
WIDTHS = (64, 1024, 8192)
FSIM_WIDTH = 256


@pytest.fixture(scope="module")
def circ():
    return build_circuit(CIRCUIT)


@pytest.mark.parametrize("width", WIDTHS)
def test_bench_backend_bigint(benchmark, circ, width):
    patterns = PatternSet.random(circ.num_inputs, width, seed=width)
    benchmark(simulate, circ, patterns)


@pytest.mark.parametrize("width", WIDTHS)
def test_bench_backend_numpy(benchmark, circ, width):
    patterns = PatternSet.random(circ.num_inputs, width, seed=width)
    benchmark(npsim.simulate, circ, patterns)


@pytest.mark.parametrize("width", WIDTHS)
def test_bench_backend_numpy_levelized(benchmark, circ, width):
    patterns = PatternSet.random(circ.num_inputs, width, seed=width)
    matrix = DetectionMatrix.from_bigints(patterns.words, width).words
    schedule = npsim.LevelSchedule(circ)
    benchmark(npsim.simulate_matrix_levelized, circ, matrix,
              schedule=schedule)


def test_backends_agree(benchmark, circ):
    patterns = PatternSet.random(circ.num_inputs, 512, seed=9)

    def both():
        a = simulate(circ, patterns)
        b = npsim.simulate(circ, patterns)
        assert a == b
        return a

    benchmark.pedantic(both, rounds=1, iterations=1)


@pytest.mark.parametrize("backend_name",
                         sorted(set(available_backends()) - {"auto"}))
def test_bench_fsim_backend_sweep(benchmark, circ, backend_name):
    """Registered fault-sim engines on a full detection-word sweep."""
    faults = collapsed_fault_list(circ)
    patterns = PatternSet.random(circ.num_inputs, FSIM_WIDTH, seed=FSIM_WIDTH)
    engine = create_backend(circ, backend_name)
    engine.load(patterns)
    benchmark(engine.detection_words, faults)

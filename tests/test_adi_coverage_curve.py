"""``coverage_curve`` against one-vector-at-a-time fault dropping.

A fault's first detecting test is the lowest set bit of its no-dropping
row, so one packed query over the whole test set gives the paper's
``n(i)``.  Every registered engine must give the curve that
:func:`helpers.naive_drop` gives, for both fault models, at widths
straddling the 64-bit word boundaries, and for an empty fault list or
test set.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adi import coverage_curve
from repro.faults.registry import fault_model
from repro.fsim.backend import available_backends
from repro.sim.patterns import PatternPairSet, PatternSet

from helpers import generated_circuit, naive_drop

ENGINES = sorted(available_backends())
MODELS = ("stuck_at", "transition")
#: Test-set widths straddling uint64 word boundaries.
WIDTHS = (1, 63, 64, 65, 129)

_REFERENCES = {}


@pytest.fixture(scope="module")
def circuit():
    return generated_circuit(5, num_inputs=7, num_gates=30, num_outputs=4)


def _block(model, num_inputs, width):
    if model == "transition":
        return PatternPairSet.random(num_inputs, width, seed=width * 7 + 1)
    return PatternSet.random(num_inputs, width, seed=width * 7 + 1)


def _naive_curve(circ, faults, tests):
    first, consumed = naive_drop(circ, faults, tests)
    assert consumed == tests.num_patterns
    counts = [0] * tests.num_patterns
    for vec in first.values():
        counts[vec] += 1
    return list(itertools.accumulate(counts))


def _reference(circ, model, width):
    """``(faults, tests, naive curve)``, simulated once per model and
    width for every engine."""
    if (model, width) not in _REFERENCES:
        faults = fault_model(model).target_faults(circ)
        tests = _block(model, circ.num_inputs, width)
        _REFERENCES[model, width] = (faults, tests,
                                     _naive_curve(circ, faults, tests))
    return _REFERENCES[model, width]


class TestCoverageCurve:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_matches_naive_drop(self, circuit, engine, model, width):
        faults, tests, expected = _reference(circuit, model, width)
        assert coverage_curve(circuit, faults, tests,
                              backend=engine) == expected

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("model", MODELS)
    def test_empty_fault_list(self, circuit, engine, model):
        tests = _block(model, circuit.num_inputs, 10)
        assert coverage_curve(circuit, [], tests, backend=engine) == [0] * 10

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("model", MODELS)
    def test_empty_test_set(self, circuit, engine, model):
        faults = fault_model(model).target_faults(circuit)
        tests = _block(model, circuit.num_inputs, 10).take(0)
        assert coverage_curve(circuit, faults, tests, backend=engine) == []

    def test_small_circuits_match_naive_drop(self, small_circuit):
        faults = fault_model("stuck_at").target_faults(small_circuit)
        tests = PatternSet.random(small_circuit.num_inputs, 40, seed=2)
        assert coverage_curve(small_circuit, faults, tests) == _naive_curve(
            small_circuit, faults, tests)

    def test_entries_are_python_ints(self, circuit):
        faults, tests, __ = _reference(circuit, "stuck_at", 64)
        curve = coverage_curve(circuit, faults, tests)
        assert {type(value) for value in curve} == {int}

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 200), width=st.integers(1, 70),
           model=st.sampled_from(MODELS))
    def test_random_circuits_match_naive_drop(self, seed, width, model):
        circ = generated_circuit(seed, num_inputs=6, num_gates=24,
                                 num_outputs=3)
        faults = fault_model(model).target_faults(circ)
        pool = fault_model(model).random_pool(circ.num_inputs, width,
                                              seed + 1)
        assert coverage_curve(circ, faults, pool) == _naive_curve(
            circ, faults, pool)

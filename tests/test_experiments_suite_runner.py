"""Tests for the experiment suite registry and the memoizing runner.

These use only the two smallest suite circuits so the (cached) builds
stay cheap inside the unit-test session.
"""

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    ALL_CIRCUITS,
    QUICK_CIRCUITS,
    SUITE,
    ExperimentRunner,
    build_circuit,
    selected_circuits,
    suite_entry,
)
from repro.faults import collapse_faults
from repro.flow import CircuitSpec, FaultModelSpec, FlowConfig

SMALL = ("irs208", "irs298")


class TestSuiteRegistry:
    def test_fourteen_paper_circuits(self):
        assert len(SUITE) == 14
        assert ALL_CIRCUITS[0] == "irs208"
        assert ALL_CIRCUITS[-1] == "irs13207"

    def test_paper_input_counts(self):
        published = {
            "irs208": 19, "irs298": 17, "irs344": 24, "irs382": 24,
            "irs400": 24, "irs420": 35, "irs510": 25, "irs526": 24,
            "irs641": 54, "irs820": 23, "irs953": 45, "irs1196": 32,
            "irs5378": 214, "irs13207": 699,
        }
        for name, inputs in published.items():
            assert suite_entry(name).paper_inputs == inputs

    def test_quick_subset_is_subset(self):
        assert set(QUICK_CIRCUITS) <= set(ALL_CIRCUITS)
        assert "irs13207" not in QUICK_CIRCUITS

    def test_giants_skip_incr0(self):
        assert not suite_entry("irs5378").run_incr0
        assert not suite_entry("irs13207").run_incr0
        assert suite_entry("irs208").run_incr0

    def test_unknown_circuit_rejected(self):
        with pytest.raises(ExperimentError):
            suite_entry("irs9999")

    def test_selected_circuits_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert selected_circuits() == list(QUICK_CIRCUITS)
        monkeypatch.setenv("REPRO_FULL", "1")
        assert selected_circuits() == list(ALL_CIRCUITS)
        assert selected_circuits(full=False) == list(QUICK_CIRCUITS)

    @pytest.mark.parametrize("name", SMALL)
    def test_built_circuit_matches_paper_interface(self, name):
        circ = build_circuit(name)
        assert circ.num_inputs == suite_entry(name).paper_inputs
        assert circ.name == name

    def test_build_is_cached_and_deterministic(self):
        a = build_circuit("irs208")
        b = build_circuit("irs208")
        assert a is b  # lru_cache

    def test_interrupted_netlist_write_leaves_no_cache_file(
            self, tmp_path, monkeypatch):
        """A child builds ``irs208`` under a 1000-byte file-size limit,
        so its netlist write fails partway, as on a full disk.  No partial
        ``.bench`` may stay behind for every later build to trip over."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        script = (
            "import resource, signal\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (1000, hard))\n"
            "from repro.experiments import build_circuit\n"
            "build_circuit('irs208')\n"
        )
        child = subprocess.run(
            [sys.executable, "-B", "-c", script], capture_output=True,
            text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=src,
                     REPRO_CACHE_DIR=str(tmp_path)),
        )
        assert child.returncode != 0
        assert "File too large" in child.stderr
        assert list(tmp_path.iterdir()) == []

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        build_circuit.cache_clear()
        try:
            rebuilt = build_circuit("irs208")
            build_circuit.cache_clear()
            reloaded = build_circuit("irs208")
        finally:
            build_circuit.cache_clear()
        assert [path.suffix for path in tmp_path.iterdir()] == [".bench"]
        assert reloaded.names == rebuilt.names
        assert reloaded.fanin == rebuilt.fanin


class TestExperimentRunner:
    @pytest.fixture(scope="class")
    def runner(self):
        return ExperimentRunner(seed=2005)

    def test_flow_shapes(self, runner):
        flow = runner.flow("irs208")
        num_faults = len(flow.faults())
        assert num_faults == len(
            collapse_faults(flow.circuit()).representatives
        )
        assert flow.selection().num_vectors >= 1
        assert len(flow.adi().faults) == num_faults

    def test_flow_cached(self, runner):
        assert runner.flow("irs208") is runner.flow("irs208")
        transition = runner.flow("irs208", "transition")
        assert runner.flow("irs208", "transition") is transition
        assert transition is not runner.flow("irs208")

    def test_flow_config_is_the_seeded_default(self, runner):
        """10,000 vectors, 0.90 coverage, 200 backtracks, the default
        engine and no disk cache: every knob but the seed at its
        FlowConfig default."""
        flow = runner.flow("irs208", "transition")
        assert flow.config == FlowConfig(
            circuit=CircuitSpec(kind="suite", name="irs208"),
            fault_model=FaultModelSpec(name="transition"),
            seed=2005,
        )
        assert (flow.config.u.max_vectors, flow.config.u.target_coverage,
                flow.config.testgen.backtrack_limit,
                flow.config.backend.fsim) == (10_000, 0.90, 200, None)
        assert flow.cache is None

    def test_unknown_circuit_rejected(self, runner):
        with pytest.raises(ExperimentError, match="unknown suite circuit"):
            runner.flow("irs9999")

    def test_permutations_valid(self, runner):
        flow = runner.flow("irs208")
        for order in ("orig", "decr", "0decr", "dynm", "0dynm", "incr0"):
            permutation = flow.permutation(order)
            assert sorted(permutation) == list(range(len(flow.faults())))

    def test_unknown_order_rejected(self, runner):
        with pytest.raises(ExperimentError):
            runner.flow("irs208").permutation("best")

    def test_tests_cached(self, runner):
        a = runner.flow("irs208").tests("orig")
        b = runner.flow("irs208").tests("orig")
        assert a is b
        assert a.num_tests > 0

    def test_report_matches_tests(self, runner):
        flow = runner.flow("irs208")
        result = flow.tests("orig")
        curve = flow.report("orig")
        assert curve.num_tests == result.num_tests
        assert curve.num_detected == result.num_detected

"""Acceptance: the flow facade reproduces the experiment-path numbers.

Two equivalences, for both fault models:

* ``Flow`` vs the *direct* pre-facade pipeline (``select_u`` →
  ``compute_adi`` → ``ORDERS`` → ``generate_tests`` → ``curve_report``
  with hand-threaded kwargs) — the facade must be a pure re-packaging;
* ``python -m repro run --json`` vs :class:`ExperimentRunner` — the CLI
  and the harness must agree on every reported number.
"""

import json

import pytest

from repro.adi import ORDERS, compute_adi, select_u
from repro.adi.metrics import curve_report
from repro.atpg import (
    TestGenConfig,
    generate_tests,
    generate_transition_tests,
)
from repro.experiments import ExperimentRunner, build_circuit
from repro.faults import collapsed_fault_list, transition_fault_list
from repro.flow import CircuitSpec, FaultModelSpec, Flow, FlowConfig, OrderSpec
from repro.flow.cli import main

CIRCUIT = "irs208"
SEED = 2005
ORDER = "0dynm"


def _flow_config(model: str) -> FlowConfig:
    return FlowConfig(
        circuit=CircuitSpec(kind="suite", name=CIRCUIT),
        fault_model=FaultModelSpec(name=model),
        order=OrderSpec(name=ORDER),
        seed=SEED,
    )


class TestFlowMatchesDirectPipeline:
    def test_stuck_at(self):
        flow = Flow(_flow_config("stuck_at"))
        result = flow.run()

        circ = build_circuit(CIRCUIT)
        faults = collapsed_fault_list(circ)
        selection = select_u(circ, faults, seed=SEED)
        adi = compute_adi(circ, faults, selection.patterns)
        permutation = ORDERS[ORDER](adi)
        direct = generate_tests(
            circ, [faults[i] for i in permutation], TestGenConfig(seed=SEED)
        )
        curve = curve_report(circ, faults, direct.tests)

        assert result.faults == faults
        assert result.selection.patterns == selection.patterns
        assert (result.adi.adi == adi.adi).all()
        assert result.permutation == list(permutation)
        assert result.tests.num_tests == direct.num_tests
        assert result.tests.tests == direct.tests
        assert tuple(result.report.curve) == tuple(curve.curve)

    def test_transition(self):
        flow = Flow(_flow_config("transition"))
        result = flow.run()

        circ = build_circuit(CIRCUIT)
        faults = transition_fault_list(circ)
        selection = select_u(circ, faults, seed=SEED, model="transition")
        adi = compute_adi(circ, faults, selection.patterns)
        permutation = ORDERS[ORDER](adi)
        direct = generate_transition_tests(
            circ, [faults[i] for i in permutation], TestGenConfig(seed=SEED)
        )
        curve = curve_report(circ, faults, direct.tests)

        assert result.faults == faults
        assert result.selection.patterns == selection.patterns
        assert (result.adi.adi == adi.adi).all()
        assert result.tests.num_tests == direct.num_tests
        assert result.tests.tests == direct.tests
        assert tuple(result.report.curve) == tuple(curve.curve)


class TestCliMatchesExperimentRunner:
    @pytest.fixture(scope="class")
    def runner(self):
        return ExperimentRunner(seed=SEED)

    @pytest.mark.parametrize("model", ["stuck_at", "transition"])
    def test_run_json_numbers(self, runner, model, tmp_path, capsys):
        config_file = tmp_path / f"{model}.json"
        config_file.write_text(_flow_config(model).to_json())
        exit_code = main([
            "run", "--config", str(config_file),
            "--cache-dir", str(tmp_path / "cache"), "--json",
        ])
        assert exit_code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro.flow/v1"

        prepared = runner.prepare(CIRCUIT, model)
        tests = runner.testgen(CIRCUIT, ORDER, model)
        curve = runner.curve(CIRCUIT, ORDER, model)

        assert document["faults"]["count"] == prepared.num_faults
        assert document["u"]["num_vectors"] == prepared.selection.num_vectors
        lo, hi = prepared.adi.adi_min_max()
        assert document["adi"]["min"] == lo
        assert document["adi"]["max"] == hi
        assert document["tests"]["count"] == tests.num_tests
        assert document["tests"]["coverage"] == pytest.approx(
            tests.fault_coverage()
        )
        assert document["tests"]["fault_efficiency"] == pytest.approx(
            tests.fault_efficiency()
        )
        outcomes = {key: document["tests"][key]
                    for key in ("detected", "undetectable", "aborted")}
        assert outcomes == {"detected": tests.num_detected,
                            "undetectable": tests.num_undetectable,
                            "aborted": tests.num_aborted}
        # Every target fault ends in exactly one outcome.
        assert sum(outcomes.values()) == prepared.num_faults
        assert document["curve"]["ave"] == pytest.approx(curve.ave)

    def test_warm_cli_rerun_all_cached(self, tmp_path, capsys):
        config_file = tmp_path / "flow.json"
        config_file.write_text(_flow_config("stuck_at").to_json())
        argv = ["run", "--config", str(config_file),
                "--cache-dir", str(tmp_path / "cache"), "--json"]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        cold_sources = {s["stage"]: s["source"] for s in cold["stages"]}
        warm_sources = {s["stage"]: s["source"] for s in warm["stages"]}
        assert all(v == "computed" for v in cold_sources.values())
        assert all(
            source == "cache"
            for stage, source in warm_sources.items() if stage != "circuit"
        ), warm_sources
        for section in ("faults", "u", "adi", "tests", "curve"):
            assert warm[section] == cold[section]

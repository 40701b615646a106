"""Acceptance: the flow facade reproduces the experiment-path numbers.

Three equivalences, for both fault models:

* ``Flow`` vs the *direct* pre-facade pipeline (``select_u`` →
  ``compute_adi`` → ``ORDERS`` → ``generate_tests`` → ``curve_report``
  with hand-threaded kwargs) — the facade must be a pure re-packaging;
* ``python -m repro run --json`` vs :class:`ExperimentRunner` — the CLI
  and the harness must agree on every reported number;
* ``Flow.report`` — the running sum of the test-generation loop's drop
  counts — vs :func:`repro.adi.coverage_curve` of the same tests (one
  more simulation of them), for every order.
"""

import json

import pytest

from repro.adi import ORDERS, compute_adi, coverage_curve, select_u
from repro.adi.metrics import CurveReport, curve_report
from repro.atpg import (
    TestGenConfig,
    generate_tests,
    generate_transition_tests,
)
from repro.experiments import ExperimentRunner, build_circuit
from repro.faults import collapsed_fault_list, transition_fault_list
from repro.flow import (
    CircuitSpec,
    FaultModelSpec,
    Flow,
    FlowConfig,
    OrderSpec,
    USpec,
)
from repro.flow.cli import main
from repro.telemetry import tracing

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
        curve = curve_report(faults, direct.tests, direct.detected_per_test)

        assert result.faults == faults
        assert result.selection.patterns == selection.patterns
        assert (result.adi.adi == adi.adi).all()
        assert result.permutation == list(permutation)
        assert result.tests.num_tests == direct.num_tests
        assert result.tests.tests == direct.tests
        assert result.report == curve
        assert list(curve.curve) == coverage_curve(circ, faults, direct.tests)

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
        curve = curve_report(faults, direct.tests, direct.detected_per_test)

        assert result.faults == faults
        assert result.selection.patterns == selection.patterns
        assert (result.adi.adi == adi.adi).all()
        assert result.tests.num_tests == direct.num_tests
        assert result.tests.tests == direct.tests
        assert result.report == curve
        assert list(curve.curve) == coverage_curve(circ, faults, direct.tests)


def _generated_config(model: str, gen_seed: int) -> FlowConfig:
    return FlowConfig(
        circuit=CircuitSpec(kind="generator", name=f"curve{gen_seed}",
                            num_inputs=8, num_gates=60, num_outputs=4,
                            gen_seed=gen_seed),
        fault_model=FaultModelSpec(name=model),
        u=USpec(max_vectors=256),
        seed=gen_seed,
    )


class TestCurveIsTheDropCountFold:
    @pytest.mark.parametrize("gen_seed", [1, 2, 3])
    @pytest.mark.parametrize("model", ["stuck_at", "transition"])
    def test_report_equals_resimulated_curve(self, model, gen_seed):
        flow = Flow(_generated_config(model, gen_seed))
        circ, faults = flow.circuit(), flow.faults()
        for order in ORDERS:
            curve = coverage_curve(circ, faults, flow.tests(order).tests)
            assert flow.report(order) == CurveReport(
                curve=tuple(curve), total_faults=len(faults)), order

    @pytest.mark.parametrize("model", ["stuck_at", "transition"])
    def test_cold_curve_stage_simulates_nothing(self, model):
        with tracing() as collector:
            result = Flow(_generated_config(model, 1)).run()
        assert {info.stage: info.source for info in result.stages}[
            f"curve:{result.order_name}"] == "computed"

        def below(node):
            for child in node["children"]:
                yield child["name"]
                yield from below(child)

        names = {root["name"]: set(below(root)) for root in collector.roots}
        assert "fsim.detection_matrix" in names["flow.testgen"]
        assert "fsim.detection_matrix" not in names["flow.curve"]


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

        flow = runner.flow(CIRCUIT, model)
        num_faults = len(flow.faults())
        tests = flow.tests(ORDER)
        curve = flow.report(ORDER)

        assert document["faults"]["count"] == num_faults
        assert document["u"]["num_vectors"] == flow.selection().num_vectors
        lo, hi = flow.adi().adi_min_max()
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
        assert sum(outcomes.values()) == num_faults
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

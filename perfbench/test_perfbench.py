"""The benchmark's own tests.

    python3 -m pytest perfbench -q

A small-size run of every workload must print every named metric with its
unit and direction, and the output checks must catch corrupted outputs.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time

import pytest

import checks
import common
import gauge
import layers
import spec

common.use_source_tree()


def _bench(*args: str, cwd=common.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_small_run_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "2",
                  "--trace", str(trace), "--small")
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = spec.PER_LAYER if trace else spec.END_TO_END
    assert set(result["metrics"]) == set(table)
    printed = {line.split()[1]: line for line in lines[:-1]
               if line.startswith("metric ")}
    for name, entry in result["metrics"].items():
        unit, better = table[name][0], table[name][1]
        assert entry["unit"] == unit
        assert f" {unit} " in printed[name]
        assert printed[name].endswith(f"{better} is better")
        if not trace:
            assert entry["value"] > 0


def test_manifest_is_generated_from_spec():
    written = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert written == spec.manifest()


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(common.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "cold_atpg", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _small_flow(model: str):
    from repro.flow import CircuitSpec, FaultModelSpec, Flow, FlowConfig, USpec

    return Flow(FlowConfig(
        circuit=CircuitSpec(kind="generator", name="t", num_inputs=8,
                            num_gates=40, num_outputs=4, gen_seed=3),
        fault_model=FaultModelSpec(name=model),
        u=USpec(max_vectors=256), seed=11))


@pytest.mark.parametrize("model", ["stuck_at", "transition"])
def test_a_flipped_test_bit_fails_the_oracle_check(model):
    flow = _small_flow(model)
    result, circ = flow.tests(), flow.circuit()
    assert checks.check_test_set(circ, result, "as generated") == []
    block = result.tests
    half = block.capture if model == "transition" else block
    # Flip test 0's inputs one at a time: a care bit of its target's cube
    # is among them, and the check must notice that flip.
    for i in range(half.num_inputs):
        words = list(half.words)
        words[i] ^= 1
        flipped = dataclasses.replace(half, words=tuple(words))
        if model == "transition":
            flipped = dataclasses.replace(block, capture=flipped)
        if checks.check_test_set(circ, dataclasses.replace(result,
                                                           tests=flipped),
                                 "flipped"):
            return
    pytest.fail("no single-bit flip of test 0 was caught")


def test_an_altered_run_document_fails_the_check():
    summary = checks.wire(_small_flow("stuck_at").run().summary())
    document = {"result": checks.wire(summary)}
    assert checks.check_run_document(document, summary, "as served") == []
    document["result"]["curve"]["ave"] += 0.25
    assert checks.check_run_document(document, summary, "altered")


def test_an_altered_diagnose_document_fails_the_check():
    from repro.diagnosis import random_fail_log
    from repro.flow.diagnose import build_diagnosis_context, diagnosis_document

    context = build_diagnosis_context(_small_flow("stuck_at"))
    log = random_fail_log(context.dictionary, 6, seed=5)
    expected = checks.wire(diagnosis_document(context, log))
    served = checks.wire(diagnosis_document(context, log))
    assert checks.check_diagnose_document(served, expected, "as served") == []
    served["devices"][0]["device"] = "another-device"
    assert checks.check_diagnose_document(served, expected, "altered")


def test_uninstall_restores_every_wrapped_object():
    import repro.adi as adi
    from repro.atpg.podem import PodemEngine
    from repro.fsim.parallel import ParallelFaultSimulator

    run, orders = PodemEngine.run, dict(adi.ORDERS)
    tracer = layers.Tracer()
    layers.install(tracer, server=True)
    assert PodemEngine.run is not run
    assert tracer.uninstall() == []
    assert PodemEngine.run is run
    assert adi.ORDERS == orders
    assert "detection_matrix" not in vars(ParallelFaultSimulator)


def test_the_gauge_scales_intervals_by_the_speed_it_read(tmp_path):
    with gauge.Gauge(tmp_path) as meter:
        start = time.monotonic()
        time.sleep(0.5)
        end = time.monotonic()
    assert meter.factor(start, end) > 0
    assert meter.scale(start, end) == pytest.approx(
        (end - start) * meter.factor(start, end))
    assert gauge.trimmed_mean([100.0] + [1.0] * 9) == 1.0
    with pytest.raises(common.BenchError):
        meter.scale(end + 100.0, end + 101.0)


def test_self_times_partition_the_traced_time():
    tracer = layers.Tracer()
    with tracer.span("flow") as root:
        with tracer.span("circuit"):
            time.sleep(0.01)
        with tracer.span("faults"):
            time.sleep(0.02)
    rows = layers.self_time_table(tracer.spans)
    assert {row[0] for row in rows} == {"flow", "circuit", "faults"}
    assert sum(row[2] for row in rows) == pytest.approx(
        root["end"] - root["start"])

"""End-to-end telemetry: flow timings, trace agreement, shard merging.

Two cross-layer invariants anchor the observability story:

* **One measurement, every surface** — the per-stage durations in
  ``FlowResult.summary()["timings"]`` are the *same* span measurements
  that appear in a ``--trace`` tree and in the process registry's
  ``repro_flow_stage_seconds`` histogram, so no two surfaces can
  disagree;
* **One fsim span per pipeline query** — an engine query made through
  the fault-model registry records exactly one ``fsim.detection_matrix``
  span, however the engine dispatches or reduces it internally;
* **Parent equals the sum of the workers** — the ``parallel`` backend's
  workers record into scoped registries whose snapshots merge back under
  a ``shard`` label; summing ``repro_fsim_faults_total`` across shard
  labels must equal the query's fault count for every shard count
  (inline path included).
"""

import json

import pytest

from repro.adi import compute_adi
from repro.faults import collapsed_fault_list
from repro.faults.registry import fault_model
from repro.flow import CircuitSpec, FaultModelSpec, Flow, FlowConfig, USpec
from repro.flow.cli import main as cli_main
from repro.fsim.sharded import FAULTS_METRIC, ShardedFaultSim
from repro.sim.patterns import PatternSet
from repro.telemetry import SPAN_METRIC, scoped_registry, tracing

from helpers import generated_circuit

SHARD_COUNTS = (1, 2, 3, 7)


def tiny_config(gen_seed: int = 11) -> FlowConfig:
    return FlowConfig(
        circuit=CircuitSpec(kind="generator", name=f"tele{gen_seed}",
                            num_inputs=8, num_gates=40, num_outputs=4,
                            gen_seed=gen_seed),
        u=USpec(max_vectors=128),
        seed=5,
    )


# -- flow stage timings -------------------------------------------------------

def test_summary_timings_cover_every_stage():
    result = Flow(tiny_config()).run()
    timings = result.summary()["timings"]
    stages = timings["stages"]
    assert set(stages) == {info.stage for info in result.stages}
    for info in result.stages:
        entry = stages[info.stage]
        assert entry["source"] == info.source
        assert entry["seconds"] == pytest.approx(info.seconds, abs=1e-6)
        assert entry["seconds"] >= 0
    assert timings["total_seconds"] == pytest.approx(
        sum(info.seconds for info in result.stages), abs=1e-5)
    assert timings["cache"] == {"hits": 0, "misses": len(result.stages)}


def test_warm_flow_reports_cache_hits(tmp_path):
    config = tiny_config(12)
    Flow(config, cache=tmp_path / "cache").run()
    warm = Flow(config, cache=tmp_path / "cache").run()
    timings = warm.summary()["timings"]
    # The circuit stage always rebuilds (it *is* the cache key input);
    # everything downstream answers from the artifact cache.
    assert timings["cache"]["misses"] == 1
    assert timings["cache"]["hits"] == len(timings["stages"]) - 1
    assert all(entry["source"] == "cache"
               for stage, entry in timings["stages"].items()
               if stage != "circuit")


def test_trace_tree_durations_match_summary_timings():
    with scoped_registry() as registry, tracing() as collector:
        result = Flow(tiny_config(13)).run()
    timings = result.summary()["timings"]["stages"]
    tree = {node["labels"]["stage"]: node for node in collector.roots
            if node["name"].startswith("flow.")}
    assert set(tree) == set(timings)
    for stage, node in tree.items():
        # Identical measurement, rounded to µs for the summary document.
        assert round(node["seconds"], 6) == timings[stage]["seconds"]
    histogram = registry.histogram(SPAN_METRIC)
    stage_spans = [s for s in histogram.series()
                   if dict(s.labels)["span"].startswith("flow.")]
    assert sum(s.count for s in stage_spans) == len(timings)


def test_cli_trace_artifact_matches_summary(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert cli_main([
        "run", "--generate", "8,40,4", "--name", "tr", "--seed", "5",
        "--max-vectors", "128", "--cache-dir", str(cache),
        "--trace", "--trace-dir", str(tmp_path / "traces"),
    ]) == 0
    out = capsys.readouterr().out
    assert "trace (" in out and "flow.testgen" in out
    artifacts = list((tmp_path / "traces").glob("trace_*.json"))
    assert len(artifacts) == 1
    document = json.loads(artifacts[0].read_text())
    assert document["schema"] == "repro.flow.trace/v1"
    assert artifacts[0].name == \
        f"trace_{document['config_fingerprint']}.json"
    stages = [node for node in document["spans"]
              if node["name"].startswith("flow.")]
    assert stages and all(node["seconds"] >= 0 for node in stages)
    assert document["total_seconds"] == pytest.approx(
        sum(node["seconds"] for node in document["spans"]))


# -- one fsim span per pipeline query -----------------------------------------

@pytest.mark.parametrize("model_name", ("stuck_at", "transition"))
def test_adi_query_records_one_fsim_span(model_name):
    circuit = generated_circuit(17, num_inputs=12, num_gates=150,
                                num_outputs=6)
    model = fault_model(model_name)
    faults = model.target_faults(circuit)
    block = model.random_pool(circuit.num_inputs, 64, 3)
    with tracing() as collector:
        compute_adi(circuit, faults, block, backend="auto")
    fsim = [node for __, node in collector.walk()
            if node["name"].startswith("fsim")]
    assert [node["name"] for node in fsim] == ["fsim.detection_matrix"]
    assert fsim[0]["labels"] == {"backend": "auto",
                                 "faults": str(len(faults)),
                                 "model": model_name,
                                 "patterns": "64"}
    assert fsim[0]["children"] == []


def _queries(node):
    """The ``fsim.detection_matrix`` spans at or below ``node``."""
    found = [node] if node["name"] == "fsim.detection_matrix" else []
    for child in node["children"]:
        found.extend(_queries(child))
    return found


@pytest.mark.parametrize("model_name", ("stuck_at", "transition"))
def test_cold_flow_simulates_u_once(model_name):
    config = tiny_config(14).replace(
        fault_model=FaultModelSpec(name=model_name))
    with tracing() as collector:
        result = Flow(config).run()
    stages = {node["labels"]["stage"]: node for node in collector.roots
              if node["name"].startswith("flow.")}
    # The ADI reuses the rows of the U walk: no query of its own.
    assert _queries(stages["adi"]) == []
    widths = [int(node["labels"]["patterns"])
              for node in _queries(stages["u"])]
    assert widths
    assert result.selection.num_vectors <= sum(widths)
    assert sum(widths) <= config.u.max_vectors
    assert all(int(node["labels"]["faults"]) == len(result.faults)
               for node in _queries(stages["u"]))


# -- sharded worker merge -----------------------------------------------------

@pytest.fixture(scope="module")
def sharding_problem():
    circuit = generated_circuit(11, num_inputs=9, num_gates=70,
                                num_outputs=5, hardness=0.3)
    faults = collapsed_fault_list(circuit)
    block = PatternSet.random(circuit.num_inputs, 64, seed=9)
    return circuit, faults, block


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_parent_registry_is_the_sum_of_worker_registries(
        sharding_problem, num_shards):
    circuit, faults, block = sharding_problem
    with scoped_registry() as registry:
        with ShardedFaultSim(circuit, num_shards=num_shards,
                             min_faults=1) as sim:
            sim.load(block)
            matrix = sim.detection_matrix(faults)
    assert matrix.num_faults == len(faults)
    series = registry.counter(FAULTS_METRIC).series()
    assert sum(s.value for s in series) == len(faults)
    shards_seen = {dict(s.labels)["shard"] for s in series}
    if num_shards == 1:
        assert shards_seen == {"inline"}
    else:
        assert shards_seen == {str(i) for i in range(num_shards)}
        # Worker-side spans came home too, one fsim.shard per worker.
        shard_spans = [
            s for s in registry.histogram(SPAN_METRIC).series()
            if dict(s.labels)["span"] == "fsim.shard"
        ]
        assert {dict(s.labels)["shard"] for s in shard_spans} == shards_seen
        assert sum(s.count for s in shard_spans) == num_shards


def test_sharded_telemetry_never_leaks_into_other_scopes(sharding_problem):
    circuit, faults, block = sharding_problem
    with scoped_registry() as first:
        with ShardedFaultSim(circuit, num_shards=2, min_faults=1) as sim:
            sim.load(block)
            sim.detection_matrix(faults)
    with scoped_registry() as second:
        pass
    assert first.counter(FAULTS_METRIC).series()
    assert second.families() == []

"""The content-addressed artifact cache: hashing, invalidation, recovery.

Covers the satellite requirements: hash stability across processes,
invalidation when any upstream config field changes, corrupt/partial
cache-file recovery, and JSON round-trips for every stage artifact.
"""

import dataclasses
import json
import subprocess
import sys

import pytest

from repro.adi import AdiMode, compute_adi, select_u
from repro.atpg import (
    TestGenConfig,
    generate_tests,
    generate_transition_tests,
)
from repro.circuit import lion_like
from repro.errors import ExperimentError
from repro.faults import collapsed_fault_list, transition_fault_list
from repro.flow import (
    ArtifactCache,
    CircuitSpec,
    FaultModelSpec,
    Flow,
    FlowConfig,
    OrderSpec,
    TestGenSpec,
    USpec,
    stable_hash,
    stage_key,
)
from repro.flow import serialize
from repro.adi.metrics import curve_report
from repro.sim.patterns import PatternPairSet, PatternSet


@pytest.fixture(scope="module")
def lion():
    return lion_like()


class TestStableHash:
    def test_deterministic_within_process(self):
        obj = {"b": [1, 2, {"c": "x"}], "a": 0.5}
        assert stable_hash(obj) == stable_hash(obj)

    def test_key_order_irrelevant(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_distinct_values_distinct_hashes(self):
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})

    def test_stable_across_processes(self):
        """The property the on-disk cache rests on: no PYTHONHASHSEED leak."""
        import os
        from pathlib import Path

        import repro

        obj = {"stage": "u", "seed": 2005, "knobs": [1, 2, 3], "f": 0.9}
        expected = stable_hash(obj)
        script = (
            "import json,sys; from repro.flow.cache import stable_hash; "
            "print(stable_hash(json.load(sys.stdin)))"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        for hash_seed in ("0", "1", "random"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
            out = subprocess.run(
                [sys.executable, "-c", script],
                input=json.dumps(obj), capture_output=True, text=True,
                env=env, check=True,
            )
            assert out.stdout.strip() == expected

    def test_non_json_value_rejected(self):
        with pytest.raises(TypeError):
            stable_hash({"a": object()})


class TestStageKeys:
    def test_upstream_keys_chain(self):
        base = stage_key("u", {"n": 1}, ["abc"])
        assert stage_key("u", {"n": 1}, ["abd"]) != base
        assert stage_key("u", {"n": 2}, ["abc"]) != base
        assert stage_key("adi", {"n": 1}, ["abc"]) != base

    def test_every_config_field_invalidates_downstream(self):
        """Changing ANY semantic knob must change the final stage key."""
        base = FlowConfig(
            circuit=CircuitSpec(kind="generator", name="k", num_inputs=4,
                                num_gates=10, num_outputs=2),
        )
        variants = [
            base.replace(seed=base.seed + 1),
            base.replace(circuit=dataclasses.replace(
                base.circuit, gen_seed=5)),
            base.replace(circuit=dataclasses.replace(
                base.circuit, num_gates=11)),
            base.replace(fault_model=FaultModelSpec(name="transition")),
            base.replace(fault_model=FaultModelSpec(collapse=False)),
            base.replace(u=dataclasses.replace(base.u, max_vectors=9)),
            base.replace(u=dataclasses.replace(
                base.u, target_coverage=0.5)),
            base.replace(u=dataclasses.replace(base.u, chunk_size=8)),
            base.replace(u=dataclasses.replace(
                base.u, prune_useless=True)),
            base.replace(adi=dataclasses.replace(
                base.adi, mode="average")),
            base.replace(testgen=TestGenSpec(backtrack_limit=7)),
            base.replace(testgen=TestGenSpec(fill="zero")),
        ]
        base_key = Flow(base).report_key()
        keys = [Flow(v).report_key() for v in variants]
        assert base_key not in keys
        assert len(set(keys)) == len(keys)

    def test_order_name_scopes_downstream_only(self):
        config = FlowConfig(
            circuit=CircuitSpec(kind="generator", name="k", num_inputs=4,
                                num_gates=10, num_outputs=2),
        )
        flow = Flow(config)
        assert flow.adi_key() == Flow(
            config.replace(order=OrderSpec(name="decr"))
        ).adi_key()
        assert flow.testgen_key("orig") != flow.testgen_key("decr")

    def test_backend_excluded_from_keys(self):
        """Backends are bit-identical by contract; switching one must hit."""
        config = FlowConfig(
            circuit=CircuitSpec(kind="generator", name="k", num_inputs=4,
                                num_gates=10, num_outputs=2),
        )
        from repro.flow import BackendSpec

        numpy_config = config.replace(backend=BackendSpec(fsim="numpy"))
        assert Flow(config).report_key() == Flow(numpy_config).report_key()


class TestArtifactCacheIO:
    def test_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        payload = {"x": [1, 2, 3], "y": "z"}
        cache.put("u", "k" * 64, payload)
        assert cache.get("u", "k" * 64) == payload

    def test_missing_returns_none(self, tmp_path):
        assert ArtifactCache(tmp_path).get("u", "nope") is None

    def test_corrupt_file_recovered(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = "a" * 64
        path = cache.put("u", key, {"x": 1})
        path.write_text('{"truncated": ')  # a killed writer
        assert cache.get("u", key) is None
        assert not path.exists()  # deleted so the caller overwrites
        cache.put("u", key, {"x": 2})
        assert cache.get("u", key) == {"x": 2}

    def test_key_mismatch_treated_as_corrupt(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key_a, key_b = "a" * 64, "b" * 64
        path_a = cache.put("u", key_a, {"x": 1})
        target = cache.put("u", key_b, {"x": 2})
        target.write_text(path_a.read_text())  # wrong content under key_b
        assert cache.get("u", key_b) is None

    def test_stats_and_prune(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("u", "a" * 64, {"x": 1})
        cache.put("adi", "b" * 64, {"y": 2})
        stats = cache.stats()
        assert stats["total_files"] == 2
        assert set(stats["stages"]) == {"u", "adi"}
        assert cache.prune(stage="u") == 1
        assert cache.prune() == 1
        assert cache.stats()["total_files"] == 0


class TestArtifactRoundTrips:
    """serialize.py: decode(encode(x)) reproduces x for every artifact."""

    def test_pattern_set(self):
        block = PatternSet.random(5, 70, seed=3)
        data = json.loads(json.dumps(serialize.pattern_block_to_json(block)))
        assert serialize.pattern_block_from_json(data) == block

    def test_pattern_pair_set(self):
        block = PatternPairSet.random(5, 70, seed=3)
        data = json.loads(json.dumps(serialize.pattern_block_to_json(block)))
        assert serialize.pattern_block_from_json(data) == block

    def test_fault_lists_both_models(self, lion):
        for model, faults in (
            ("stuck_at", collapsed_fault_list(lion)),
            ("transition", transition_fault_list(lion)),
        ):
            data = json.loads(json.dumps(
                serialize.faults_to_json(model, faults)
            ))
            assert serialize.faults_from_json(data) == faults

    def test_selection(self, lion):
        faults = collapsed_fault_list(lion)
        selection = select_u(lion, faults, seed=3, max_vectors=64)
        data = json.loads(json.dumps(
            serialize.selection_to_json(selection, faults)
        ))
        restored = serialize.selection_from_json(data, faults)
        assert restored.patterns == selection.patterns
        assert restored.detected_by_u == selection.detected_by_u
        assert restored.candidates_drawn == selection.candidates_drawn
        assert (restored.dropped_sim.first_detection
                == selection.dropped_sim.first_detection)

    def test_adi_both_modes(self, lion):
        faults = collapsed_fault_list(lion)
        patterns = PatternSet.exhaustive(lion.num_inputs)
        for mode in (AdiMode.MINIMUM, AdiMode.AVERAGE):
            result = compute_adi(lion, faults, patterns, mode=mode)
            data = json.loads(json.dumps(serialize.adi_to_json(result)))
            restored = serialize.adi_from_json(data, tuple(faults))
            assert restored.mode == mode
            assert restored.matrix == result.matrix
            assert (restored.adi == result.adi).all()
            assert (restored.ndet == result.ndet).all()

    def test_testgen_stuck_at(self, lion):
        faults = collapsed_fault_list(lion)
        result = generate_tests(lion, faults, TestGenConfig(seed=3))
        data = json.loads(json.dumps(
            serialize.testgen_to_json("stuck_at", result)
        ))
        restored = serialize.testgen_from_json(data, faults)
        assert type(restored) is type(result)
        assert restored.tests == result.tests
        assert restored.status == result.status
        assert restored.detected_per_test == result.detected_per_test
        assert restored.targeted_faults == result.targeted_faults

    def test_testgen_transition(self, lion):
        faults = transition_fault_list(lion)
        result = generate_transition_tests(lion, faults, TestGenConfig(seed=3))
        data = json.loads(json.dumps(
            serialize.testgen_to_json("transition", result)
        ))
        restored = serialize.testgen_from_json(data, faults)
        assert type(restored) is type(result)
        assert restored.tests == result.tests
        assert restored.status == result.status
        assert restored.detected_per_test == result.detected_per_test
        assert restored.targeted_faults == result.targeted_faults
        assert restored.podem_calls == result.podem_calls
        # Test sets cached before the two result types merged carry a
        # launch_fallbacks count; the decoder ignores it.
        data["launch_fallbacks"] = 1
        assert serialize.testgen_from_json(data, faults).tests == result.tests

    @pytest.mark.parametrize("corruption", [
        "status-truncated", "status-foreign", "status-duplicated",
        "target-dropped", "drop-count-off", "target-undetected",
    ])
    def test_testgen_rejects_inconsistent_payload(self, lion, corruption):
        faults = collapsed_fault_list(lion)
        result = generate_tests(lion, faults, TestGenConfig(seed=3))
        data = json.loads(json.dumps(
            serialize.testgen_to_json("stuck_at", result)
        ))
        status = data["status"]
        if corruption == "status-truncated":
            data["status"] = status[: len(status) // 2]
        elif corruption == "status-foreign":
            data["status"] = status[:-1] + [[[999, -1, 0], "detected"]]
        elif corruption == "status-duplicated":
            data["status"] = status + status[:1]
        elif corruption == "target-dropped":
            data["targeted_faults"] = data["targeted_faults"][:-1]
        elif corruption == "drop-count-off":
            data["detected_per_test"][0] += 1
        else:
            target = data["targeted_faults"][0]
            for entry in status:
                if entry[0] == target:
                    entry[1] = "aborted"
            data["detected_per_test"][0] -= 1
        with pytest.raises(ExperimentError, match="corrupt flow artifact"):
            serialize.testgen_from_json(data, faults)

    def test_permutation(self):
        perm = [2, 0, 3, 1]
        data = json.loads(json.dumps(serialize.permutation_to_json(perm)))
        assert serialize.permutation_from_json(data) == perm
        assert serialize.permutation_from_json({"permutation": []}) == []

    @pytest.mark.parametrize("bad", [[2, 0], [0, 1, 1], [1, 2, 3],
                                     [0, -1], [[0], [1]]])
    def test_permutation_rejects_non_permutations(self, bad):
        with pytest.raises(ExperimentError, match="corrupt flow artifact"):
            serialize.permutation_from_json({"permutation": bad})

    def test_curve_report(self, lion):
        faults = collapsed_fault_list(lion)
        tests = PatternSet.random(lion.num_inputs, 12, seed=5)
        report = curve_report(lion, faults, tests)
        data = json.loads(json.dumps(serialize.curve_to_json(report)))
        assert serialize.curve_from_json(data) == report


class TestFlowCacheBehaviour:
    CONFIG = FlowConfig(
        circuit=CircuitSpec(kind="generator", name="cachetest", num_inputs=6,
                            num_gates=24, num_outputs=3, gen_seed=2),
        u=USpec(max_vectors=256),
        seed=13,
    )

    def test_warm_run_hits_every_cached_stage(self, tmp_path):
        cold = Flow(self.CONFIG, cache=tmp_path).run()
        warm = Flow(self.CONFIG, cache=tmp_path).run()
        cached = {info.stage: info.source for info in warm.stages}
        assert all(
            source == "cache"
            for stage, source in cached.items() if stage != "circuit"
        ), cached
        assert warm.tests.num_tests == cold.tests.num_tests
        assert tuple(warm.report.curve) == tuple(cold.report.curve)
        assert (warm.adi.adi == cold.adi.adi).all()

    def test_one_knob_recomputes_only_downstream(self, tmp_path):
        Flow(self.CONFIG, cache=tmp_path).run()
        changed = self.CONFIG.replace(
            testgen=TestGenSpec(backtrack_limit=100)
        )
        rerun = Flow(changed, cache=tmp_path).run()
        sources = {
            info.stage.split(":")[0]: info.source for info in rerun.stages
        }
        assert sources["faults"] == "cache"
        assert sources["u"] == "cache"
        assert sources["adi"] == "cache"
        assert sources["order"] == "cache"
        assert sources["testgen"] == "computed"
        assert sources["curve"] == "computed"

    @pytest.mark.parametrize("corruption", [
        "adi-garbage", "order-truncated", "order-duplicated",
        "testgen-truncated-status", "testgen-dropped-target",
    ])
    def test_corrupt_stage_file_recomputed(self, tmp_path, corruption):
        flow = Flow(self.CONFIG, cache=tmp_path)
        cold = flow.run()
        name = self.CONFIG.order.name
        if corruption == "adi-garbage":
            stage = "adi"
            path = tmp_path / "adi" / f"{flow.adi_key()}.json"
            assert path.exists()
            path.write_text("garbage{{{")
        elif corruption.startswith("testgen-"):
            stage = f"testgen:{name}"
            path = tmp_path / "testgen" / f"{flow.testgen_key(name)}.json"
            document = json.loads(path.read_text())
            payload = document["payload"]
            if corruption == "testgen-truncated-status":
                payload["status"] = payload["status"][
                    : len(payload["status"]) // 2]
            else:
                payload["targeted_faults"] = payload["targeted_faults"][:-1]
            path.write_text(json.dumps(document))
        else:
            stage = f"order:{name}"
            path = tmp_path / "order" / f"{flow.order_key(name)}.json"
            document = json.loads(path.read_text())
            perm = document["payload"]["permutation"]
            document["payload"]["permutation"] = (
                perm[: len(perm) // 2] if corruption == "order-truncated"
                else perm + perm
            )
            path.write_text(json.dumps(document))
            # Make the rerun generate tests from the order it decodes.
            for directory, key in (("testgen", flow.testgen_key(name)),
                                   ("curve", flow.report_key(name))):
                (tmp_path / directory / f"{key}.json").unlink()
        rerun = Flow(self.CONFIG, cache=tmp_path).run()
        sources = {info.stage: info.source for info in rerun.stages}
        assert sources[stage] == "computed"
        assert (rerun.adi.adi == cold.adi.adi).all()
        assert rerun.permutation == cold.permutation
        assert rerun.tests.tests == cold.tests.tests
        assert rerun.summary()["tests"] == cold.summary()["tests"]

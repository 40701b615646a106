"""The ``repro`` CLI: subcommands, overrides, outputs, error paths.

Uses a small generated circuit so the tests stay hermetic and fast; the
suite-circuit path is covered by ``test_flow_equivalence.py``.
"""

import json

import pytest

from repro.flow.cli import build_config, main, make_parser

GEN = ["--generate", "6,24,3", "--name", "clitest", "--seed", "13",
       "--max-vectors", "256"]


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBuildConfig:
    def _parse(self, *argv):
        return make_parser().parse_args(list(argv))

    def test_defaults(self):
        config = build_config(self._parse("run"))
        assert config.circuit.kind == "suite"
        assert config.seed == 2005

    def test_generator_override(self):
        config = build_config(self._parse("run", *GEN))
        assert config.circuit.kind == "generator"
        assert config.circuit.num_inputs == 6
        assert config.circuit.num_gates == 24
        assert config.circuit.name == "clitest"
        assert config.seed == 13
        assert config.u.max_vectors == 256

    def test_flag_overrides_config_file(self, tmp_path):
        from repro.flow import FlowConfig

        path = tmp_path / "c.json"
        path.write_text(FlowConfig(seed=1).to_json())
        config = build_config(
            self._parse("run", "--config", str(path), "--seed", "42",
                        "--order", "decr")
        )
        assert config.seed == 42
        assert config.order.name == "decr"

    def test_conflicting_sources_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="mutually exclusive"):
            build_config(
                self._parse("run", "--circuit", "irs208", "--generate",
                            "4,8,2")
            )

    def test_malformed_generate(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="I,G,O"):
            build_config(self._parse("run", "--generate", "4x8x2"))


class TestSubcommands:
    def test_run_text(self, capsys, tmp_path):
        code, out, err = _run(
            capsys, "run", *GEN, "--cache-dir", str(tmp_path)
        )
        assert code == 0
        assert "tests" in out and "AVE" in out

    def test_run_json_schema(self, capsys, tmp_path):
        code, out, _ = _run(
            capsys, "run", *GEN, "--cache-dir", str(tmp_path), "--json"
        )
        assert code == 0
        document = json.loads(out)
        assert document["schema"] == "repro.flow/v1"
        for section in ("config", "circuit", "faults", "u", "adi", "order",
                        "tests", "curve", "stages"):
            assert section in document

    def test_dump_config_round_trips(self, capsys, tmp_path):
        from repro.flow import FlowConfig

        code, out, _ = _run(capsys, "run", *GEN, "--dump-config")
        assert code == 0
        assert FlowConfig.from_json(out).circuit.name == "clitest"

    def test_order_json(self, capsys, tmp_path):
        code, out, _ = _run(
            capsys, "order", *GEN, "--order", "decr",
            "--cache-dir", str(tmp_path), "--json"
        )
        assert code == 0
        document = json.loads(out)
        assert document["order"] == "decr"
        assert sorted(document["permutation"]) == list(
            range(document["num_faults"])
        )

    def test_testgen_writes_pattern_file(self, capsys, tmp_path):
        tests_file = tmp_path / "tests.txt"
        code, out, _ = _run(
            capsys, "testgen", *GEN, "--cache-dir", str(tmp_path / "c"),
            "--write-tests", str(tests_file), "--json"
        )
        assert code == 0
        document = json.loads(out)
        from repro.sim.pattern_io import read_patterns

        patterns = read_patterns(tests_file)
        assert patterns.num_patterns == document["num_tests"]

    def test_fault_efficiency_reported(self, capsys, tmp_path):
        cache = str(tmp_path)
        __, out, __ = _run(capsys, "run", *GEN, "--cache-dir", cache, "--json")
        document = json.loads(out)
        tests = document["tests"]
        testable = document["faults"]["count"] - tests["undetectable"]
        assert tests["fault_efficiency"] == pytest.approx(
            tests["detected"] / testable)
        __, out, __ = _run(capsys, "testgen", *GEN, "--cache-dir", cache,
                           "--json")
        assert json.loads(out)["fault_efficiency"] == tests["fault_efficiency"]
        for command in ("run", "testgen"):
            __, out, __ = _run(capsys, command, *GEN, "--cache-dir", cache)
            assert "efficiency" in out
            assert f"{tests['fault_efficiency']:.1%}" in out

    def test_report_json(self, capsys, tmp_path):
        code, out, _ = _run(
            capsys, "report", *GEN, "--cache-dir", str(tmp_path), "--json"
        )
        assert code == 0
        document = json.loads(out)
        assert document["num_tests"] == len(document["curve"])
        assert document["ave"] > 0

    def test_out_writes_file(self, capsys, tmp_path):
        out_file = tmp_path / "run.json"
        code, out, _ = _run(
            capsys, "run", *GEN, "--cache-dir", str(tmp_path / "c"),
            "--json", "--out", str(out_file)
        )
        assert code == 0
        assert json.loads(out_file.read_text()) == json.loads(out)

    def test_cache_stats_and_prune(self, capsys, tmp_path):
        _run(capsys, "run", *GEN, "--cache-dir", str(tmp_path))
        code, out, _ = _run(
            capsys, "cache", "stats", "--cache-dir", str(tmp_path), "--json"
        )
        assert code == 0
        stats = json.loads(out)
        assert stats["total_files"] > 0
        code, out, _ = _run(
            capsys, "cache", "prune", "--cache-dir", str(tmp_path), "--json"
        )
        assert code == 0
        assert json.loads(out)["removed"] == stats["total_files"]
        code, out, _ = _run(
            capsys, "cache", "stats", "--cache-dir", str(tmp_path), "--json"
        )
        assert json.loads(out)["total_files"] == 0

    def test_no_cache_leaves_no_artifacts(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLOW_CACHE_DIR", str(tmp_path / "default"))
        code, _, _ = _run(capsys, "run", *GEN, "--no-cache")
        assert code == 0
        assert not (tmp_path / "default").exists()


class TestErrorPaths:
    def test_unknown_suite_circuit(self, capsys, tmp_path):
        code, _, err = _run(
            capsys, "run", "--circuit", "irs9999",
            "--cache-dir", str(tmp_path)
        )
        assert code == 2
        assert "irs9999" in err

    def test_invalid_order(self, capsys):
        code, _, err = _run(capsys, "run", *GEN, "--order", "best")
        assert code == 2
        assert "best" in err

    def test_invalid_config_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = _run(capsys, "run", "--config", str(bad))
        assert code == 2
        assert "JSON" in err

    def test_unknown_config_key(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"u": {"max_vector": 10}}))
        code, _, err = _run(capsys, "run", "--config", str(bad))
        assert code == 2
        assert "max_vector" in err

    @pytest.mark.parametrize("document, field", [
        ({"u": {"max_vectors": "100"}}, "u.max_vectors"),
        ({"circuit": {"kind": "generator", "name": "g", "num_inputs": "4",
                      "num_gates": 10, "num_outputs": 2}},
         "circuit.num_inputs"),
    ])
    def test_mistyped_config_field(self, capsys, tmp_path, document, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        code, _, err = _run(capsys, "run", "--config", str(bad),
                            "--no-cache")
        assert code == 2
        assert err.startswith("repro: error:")
        assert f"{field} must be an integer" in err

    @pytest.mark.parametrize("flag", ("--fsim-shards", "--fsim-base"))
    def test_removed_shard_flags_are_usage_errors(self, capsys, flag):
        with pytest.raises(SystemExit) as info:
            main(["run", *GEN, flag, "2"])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestServeLimits:
    """``repro serve`` rejects a bad limit at parse time: exit 2 with a
    usage error naming the flag, before any server is built."""

    @pytest.fixture(autouse=True)
    def _no_server(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a bad limit reached FlowServer")

        monkeypatch.setattr("repro.flow.server.FlowServer", refuse)

    def _usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as info:
            main(["serve", "--port", "0", flag, value])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err
        return err

    def test_max_concurrent_must_be_positive(self, capsys):
        self._usage_error(capsys, "--max-concurrent", "0")

    def test_request_timeout_must_be_positive(self, capsys):
        for value in ("0", "-1", "inf"):
            self._usage_error(capsys, "--request-timeout", value)

    def test_max_body_must_be_non_negative(self, capsys):
        self._usage_error(capsys, "--max-body", "-1")

    def test_drain_timeout_must_be_finite_and_non_negative(self, capsys):
        for value in ("-1", "inf", "nan"):
            self._usage_error(capsys, "--drain-timeout", value)


class TestCacheLimits:
    """``repro cache prune`` rejects a negative size bound at parse time."""

    def test_max_bytes_must_be_non_negative(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a bad limit reached ArtifactCache")

        monkeypatch.setattr("repro.flow.cli.ArtifactCache", refuse)
        with pytest.raises(SystemExit) as info:
            main(["cache", "prune", "--max-bytes", "-1"])
        assert info.value.code == 2
        assert "argument --max-bytes:" in capsys.readouterr().err


class TestDiagnoseCommand:
    def test_text_output(self, capsys, tmp_path):
        code, out, _ = _run(
            capsys, "diagnose", *GEN, "--cache-dir", str(tmp_path),
            "--devices", "12",
        )
        assert code == 0
        assert "devices    12" in out
        assert "dictionary" in out and "response classes" in out
        assert "throughput" in out and "devices/sec" in out
        assert "accuracy" in out  # synthetic logs carry true positions

    def test_json_schema(self, capsys, tmp_path):
        code, out, _ = _run(
            capsys, "diagnose", *GEN, "--cache-dir", str(tmp_path),
            "--devices", "8", "--json",
        )
        assert code == 0
        document = json.loads(out)
        assert document["schema"] == "repro.diagnosis/v1"
        assert document["summary"]["num_devices"] == 8
        assert len(document["devices"]) == 8
        first = document["devices"][0]
        assert {"device", "candidates"} <= set(first)
        top = first["candidates"][0]
        assert {"fault", "site", "score"} <= set(top)

    def test_fail_log_round_trip(self, capsys, tmp_path):
        log_path = tmp_path / "fails.jsonl"
        code, first, _ = _run(
            capsys, "diagnose", *GEN, "--cache-dir", str(tmp_path),
            "--devices", "6", "--write-fail-log", str(log_path),
            "--json",
        )
        assert code == 0
        assert log_path.exists()
        code, second, _ = _run(
            capsys, "diagnose", *GEN, "--cache-dir", str(tmp_path),
            "--fail-log", str(log_path), "--json",
        )
        assert code == 0
        original = json.loads(first)["devices"]
        replayed = json.loads(second)["devices"]
        for a, b in zip(original, replayed):
            assert a["device"] == b["device"]
            assert a["candidates"] == b["candidates"]

    def test_chain_flag(self, capsys, tmp_path):
        code, out, _ = _run(
            capsys, "diagnose", *GEN, "--cache-dir", str(tmp_path),
            "--devices", "10", "--chain", "--json",
        )
        assert code == 0
        summary = json.loads(out)["summary"]
        assert summary["chain_devices"] == 10

    def test_top_truncates(self, capsys, tmp_path):
        code, out, _ = _run(
            capsys, "diagnose", *GEN, "--cache-dir", str(tmp_path),
            "--devices", "5", "--top", "2", "--json",
        )
        assert code == 0
        for record in json.loads(out)["devices"]:
            assert len(record["candidates"]) <= 2

    def test_mismatched_fail_log_rejected(self, capsys, tmp_path):
        log_path = tmp_path / "wrong.jsonl"
        log_path.write_text(
            '{"schema": "repro.fail_log/v1", "num_tests": 9999}\n'
            '{"device": "chipX", "failing_tests": [0]}\n'
        )
        code, _, err = _run(
            capsys, "diagnose", *GEN, "--cache-dir", str(tmp_path),
            "--fail-log", str(log_path),
        )
        assert code == 2
        assert "9999" in err

    @pytest.mark.parametrize("record", [
        '{"device": "x", "failing_tests": [true]}',
        '{"device": "x", "failing_tests": [0], "failing_outputs": [1.5]}',
        '{"device": "x", "failing_tests": [0], "failing_outputs": "ab"}',
    ])
    def test_malformed_fail_record_is_a_usage_error(self, capsys, tmp_path,
                                                    record):
        log_path = tmp_path / "bad.jsonl"
        log_path.write_text(
            '{"schema": "repro.fail_log/v1", "num_tests": 8}\n'
            + record + "\n"
        )
        code, _, err = _run(
            capsys, "diagnose", *GEN, "--cache-dir", str(tmp_path),
            "--fail-log", str(log_path),
        )
        assert code == 2
        assert err.startswith(f"repro: error: {log_path}:2: ")

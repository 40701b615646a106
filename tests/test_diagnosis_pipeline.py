"""Tests for the batched diagnosis pipeline.

The load-bearing claim: for every device, :func:`diagnose_batch`
produces rankings **bit-identical** to the per-device :func:`diagnose`
loop — same candidates, same float scores, same order — across test-set
widths straddling uint64 word boundaries and across both registered
fault models.  Plus the ingestion surface: JSONL fail logs round-trip,
malformed input is rejected with :class:`DiagnosisInputError` (a
``ValueError``), and synthetic logs are deterministic under seeds.
"""

import json

import pytest

from helpers import generated_circuit
from repro import telemetry
from repro.diagnosis import (
    FailLog,
    build_pass_fail_dictionary,
    compress_dictionary,
    diagnose,
    diagnose_batch,
    random_fail_log,
)
from repro.errors import DiagnosisInputError, SimulationError
from repro.faults import collapsed_fault_list
from repro.faults.transition import transition_fault_list
from repro.sim.patterns import PatternPairSet, PatternSet
from repro.utils.detmatrix import DetectionMatrix


def stuck_at_setup(num_tests, seed=3):
    circ = generated_circuit(seed, num_inputs=10, num_gates=50,
                             num_outputs=5)
    faults = collapsed_fault_list(circ)
    tests = PatternSet.random(circ.num_inputs, num_tests, seed=seed + 1)
    return circ, build_pass_fail_dictionary(circ, faults, tests)


def transition_setup(num_tests, seed=4):
    circ = generated_circuit(seed, num_inputs=10, num_gates=50,
                             num_outputs=5)
    faults = transition_fault_list(circ)
    pairs = PatternPairSet.random(circ.num_inputs, num_tests,
                                  seed=seed + 1)
    return circ, build_pass_fail_dictionary(circ, faults, pairs)


class TestBatchSingleEquivalence:
    @pytest.mark.parametrize("num_tests", [63, 64, 65, 129])
    def test_stuck_at_bit_identical(self, num_tests):
        """Across word-boundary widths: same candidates, scores, order."""
        __, dictionary = stuck_at_setup(num_tests)
        log = random_fail_log(dictionary, 120, seed=7,
                              drop_probability=0.2)
        batch = diagnose_batch(dictionary, log)
        for device in range(len(log)):
            single = diagnose(dictionary, log.observed_mask(device))
            assert batch.report(device).candidates == single.candidates
            assert batch.report(device).observed_mask == \
                single.observed_mask

    @pytest.mark.parametrize("num_tests", [63, 65])
    def test_transition_bit_identical(self, num_tests):
        __, dictionary = transition_setup(num_tests)
        log = random_fail_log(dictionary, 80, seed=9,
                              drop_probability=0.2)
        batch = diagnose_batch(dictionary, log)
        for device in range(len(log)):
            single = diagnose(dictionary, log.observed_mask(device))
            assert batch.report(device).candidates == single.candidates

    def test_best_and_top_agree(self):
        __, dictionary = stuck_at_setup(64)
        log = random_fail_log(dictionary, 50, seed=5,
                              drop_probability=0.3)
        batch = diagnose_batch(dictionary, log)
        for device in range(len(log)):
            single = diagnose(dictionary, log.observed_mask(device))
            assert batch.best(device) == single.best
            assert batch.top(device, 3) == single.top(3)

    def test_truncation_matches(self):
        __, dictionary = stuck_at_setup(64)
        log = random_fail_log(dictionary, 40, seed=6,
                              drop_probability=0.4)
        for k in (0, 1, 3):
            batch = diagnose_batch(dictionary, log, max_candidates=k)
            for device in range(len(log)):
                single = diagnose(dictionary, log.observed_mask(device),
                                  max_candidates=k)
                assert batch.report(device).candidates == \
                    single.candidates

    def test_tie_break_is_dictionary_position(self):
        """Equal-score candidates order by dictionary position — both paths."""
        __, dictionary = stuck_at_setup(64)
        compressed = compress_dictionary(dictionary)
        # A class with >1 member guarantees exact score ties.
        multi = next((m for m in compressed.members if len(m) > 1), None)
        assert multi is not None, "generated dictionary has no ties"
        mask = dictionary.fail_matrix.row_int(multi[0])
        single = diagnose(dictionary, mask)
        batch = diagnose_batch(dictionary, [mask])
        assert batch.report(0).candidates == single.candidates
        tied = [dictionary.position(f)
                for f, score in single.candidates if score == 1.0]
        assert tied == sorted(tied)
        assert tuple(tied) == multi[:len(tied)]

    def test_accepts_matrix_and_mask_sequences(self):
        __, dictionary = stuck_at_setup(64)
        rows = dictionary.fail_matrix
        masks = [rows.row_int(0), rows.row_int(3), 0]
        from_masks = diagnose_batch(dictionary, masks)
        matrix = DetectionMatrix.from_bigints(masks,
                                              dictionary.num_tests)
        from_matrix = diagnose_batch(dictionary, matrix)
        for device in range(3):
            assert from_masks.report(device).candidates == \
                from_matrix.report(device).candidates

    def test_empty_batch(self):
        __, dictionary = stuck_at_setup(64)
        batch = diagnose_batch(dictionary, [])
        assert batch.num_devices == 0
        assert batch.reports() == []


class TestBatchValidation:
    def test_mask_beyond_tests_rejected(self):
        __, dictionary = stuck_at_setup(64)
        with pytest.raises(DiagnosisInputError):
            diagnose_batch(dictionary, [1 << dictionary.num_tests])

    def test_diagnosis_error_is_valueerror_and_simulationerror(self):
        __, dictionary = stuck_at_setup(64)
        with pytest.raises(ValueError):
            diagnose(dictionary, 1 << dictionary.num_tests)
        with pytest.raises(SimulationError):
            diagnose(dictionary, -1)

    def test_width_mismatch_rejected(self):
        __, dictionary = stuck_at_setup(64)
        wrong = DetectionMatrix.zeros(2, dictionary.num_tests + 1)
        with pytest.raises(DiagnosisInputError):
            diagnose_batch(dictionary, wrong)

    def test_foreign_compressed_rejected(self):
        __, dictionary = stuck_at_setup(64)
        __, other = stuck_at_setup(64, seed=8)
        with pytest.raises(DiagnosisInputError):
            diagnose_batch(dictionary, [0],
                           compressed=compress_dictionary(other))

    def test_negative_max_candidates_rejected(self):
        __, dictionary = stuck_at_setup(64)
        with pytest.raises(DiagnosisInputError):
            diagnose_batch(dictionary, [], max_candidates=-1)


class TestFailLog:
    def test_jsonl_round_trip(self, tmp_path):
        __, dictionary = stuck_at_setup(70)
        log = random_fail_log(dictionary, 25, seed=3,
                              drop_probability=0.2)
        path = log.write_jsonl(tmp_path / "fails.jsonl")
        loaded = FailLog.from_jsonl(path)
        assert loaded.num_tests == log.num_tests
        assert loaded.device_ids == log.device_ids
        assert loaded.matrix == log.matrix

    def test_jsonl_round_trip_with_outputs(self, tmp_path):
        circ, dictionary = stuck_at_setup(70)
        log = random_fail_log(dictionary, 10, seed=3, circ=circ)
        assert log.failing_outputs is not None
        path = log.write_jsonl(tmp_path / "fails.jsonl")
        loaded = FailLog.from_jsonl(path)
        assert loaded.failing_outputs == log.failing_outputs

    def test_header_schema(self, tmp_path):
        __, dictionary = stuck_at_setup(64)
        path = random_fail_log(dictionary, 2, seed=1).write_jsonl(
            tmp_path / "log.jsonl")
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"schema": "repro.fail_log/v1", "num_tests": 64}

    def test_missing_header_needs_explicit_width(self, tmp_path):
        path = tmp_path / "raw.jsonl"
        path.write_text('{"device": "x", "failing_tests": [1]}\n')
        with pytest.raises(DiagnosisInputError):
            FailLog.from_jsonl(path)
        log = FailLog.from_jsonl(path, num_tests=8)
        assert log.observed_mask(0) == 0b10

    @pytest.mark.parametrize("line", [
        "not json",
        '{"schema": "bogus/v9", "num_tests": 4}',
        '{"schema": "repro.fail_log/v1", "num_tests": -1}',
        '{"schema": "repro.fail_log/v1"}',
    ])
    def test_bad_headers_rejected(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(DiagnosisInputError):
            FailLog.from_jsonl(path)

    @pytest.mark.parametrize("entry", [
        '{"device": "x", "failing_tests": [99]}',
        '{"device": "x", "failing_tests": "0,1"}',
        '{"device": "x"}',
        '[1, 2]',
    ])
    def test_bad_entries_rejected(self, tmp_path, entry):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"schema": "repro.fail_log/v1", "num_tests": 8}\n'
            + entry + "\n")
        with pytest.raises(DiagnosisInputError):
            FailLog.from_jsonl(path)

    def test_from_masks_validates(self):
        with pytest.raises(DiagnosisInputError):
            FailLog.from_masks([1 << 10], num_tests=10)
        log = FailLog.from_masks([0b11, 0], num_tests=10)
        assert log.num_devices == 2
        assert log.observed_mask(0) == 0b11

    def test_shape_mismatches_rejected(self):
        matrix = DetectionMatrix.from_bigints([1, 2], 4)
        with pytest.raises(DiagnosisInputError):
            FailLog(num_tests=4, device_ids=("only-one",), matrix=matrix)
        with pytest.raises(DiagnosisInputError):
            FailLog(num_tests=5, device_ids=("a", "b"), matrix=matrix)
        with pytest.raises(DiagnosisInputError):
            FailLog(num_tests=4, device_ids=("a", "b"), matrix=matrix,
                    true_positions=(1,))


#: Records a JSONL reader of its own once accepted (the first two as
#: test 1 and output 1) or crashed on (the third), while the wire
#: decoder rejected all three.
DRIFTED_RECORDS = [
    {"device": "x", "failing_tests": [True]},
    {"device": "x", "failing_tests": [0], "failing_outputs": [1.5]},
    {"device": "x", "failing_tests": [0], "failing_outputs": "ab"},
]


def write_log(tmp_path, *records):
    path = tmp_path / "log.jsonl"
    path.write_text("".join(
        json.dumps(record) + "\n"
        for record in ({"schema": "repro.fail_log/v1", "num_tests": 8},
                       *records)))
    return path


class TestOneDecoder:
    """JSONL fail logs and ``POST /diagnose`` bodies share one decoder."""

    @pytest.mark.parametrize("record", DRIFTED_RECORDS)
    def test_jsonl_rejects_with_line_context(self, tmp_path, record):
        path = write_log(tmp_path, {"failing_tests": [1]}, record)
        with pytest.raises(DiagnosisInputError) as caught:
            FailLog.from_jsonl(path)
        assert str(caught.value).startswith(f"{path}:3: ")

    @pytest.mark.parametrize("record", DRIFTED_RECORDS)
    def test_wire_rejects_with_record_context(self, record):
        from repro.flow.diagnose import parse_fail_entries

        with pytest.raises(DiagnosisInputError) as caught:
            parse_fail_entries([{"failing_tests": [1]}, record], 8)
        assert str(caught.value).startswith("devices[1]: ")

    def test_both_surfaces_decode_alike(self, tmp_path):
        from repro.flow.diagnose import parse_fail_entries

        records = [
            {"device": "a", "failing_tests": [0, 7], "failing_outputs": [2]},
            {"failing_tests": []},
            {"device": 5, "failing_tests": [3]},
        ]
        wire = parse_fail_entries(records, 8)
        jsonl = FailLog.from_jsonl(write_log(tmp_path, *records))
        assert wire == jsonl
        assert wire.device_ids == ("a", "device000001", "5")
        assert wire.failing_outputs == (0b100, None, None)


class TestRandomFailLog:
    def test_deterministic_under_seed(self):
        __, dictionary = stuck_at_setup(64)
        first = random_fail_log(dictionary, 30, seed=5,
                                drop_probability=0.3)
        second = random_fail_log(dictionary, 30, seed=5,
                                 drop_probability=0.3)
        assert first.matrix == second.matrix
        assert first.true_positions == second.true_positions

    def test_noise_never_empties_a_device(self):
        __, dictionary = stuck_at_setup(64)
        log = random_fail_log(dictionary, 60, seed=2,
                              drop_probability=0.95)
        assert all(log.observed_mask(d) != 0 for d in range(60))

    def test_no_noise_reproduces_dictionary_rows(self):
        __, dictionary = stuck_at_setup(64)
        log = random_fail_log(dictionary, 40, seed=3)
        for device in range(40):
            position = log.true_positions[device]
            assert log.observed_mask(device) == \
                dictionary.fail_matrix.row_int(position)

    def test_bad_drop_probability_rejected(self):
        __, dictionary = stuck_at_setup(64)
        with pytest.raises(DiagnosisInputError):
            random_fail_log(dictionary, 5, seed=0, drop_probability=1.0)


class TestBatchReport:
    def test_summary_and_dedup_accounting(self):
        __, dictionary = stuck_at_setup(64)
        mask = dictionary.fail_matrix.row_int(0)
        batch = diagnose_batch(dictionary, [mask, mask, mask, 0])
        summary = batch.summary()
        assert summary["num_devices"] == 4
        assert summary["num_unique_signatures"] == 2
        assert summary["compression_ratio"] >= 1.0
        assert summary["num_classes"] == \
            compress_dictionary(dictionary).num_classes

    def test_hit_rate(self):
        __, dictionary = stuck_at_setup(64)
        log = random_fail_log(dictionary, 50, seed=4)
        batch = diagnose_batch(dictionary, log)
        hit1 = batch.hit_rate(log.true_positions, 1)
        hit10 = batch.hit_rate(log.true_positions, 10)
        assert 0.0 <= hit1 <= hit10 <= 1.0
        # Noise-free logs always keep the true fault among candidates
        # scored 1.0, so generous k must find it.
        assert hit10 > 0.0
        with pytest.raises(DiagnosisInputError):
            batch.hit_rate([0], 1)

    def test_devices_counter_increments(self):
        __, dictionary = stuck_at_setup(64)
        registry = telemetry.MetricsRegistry()
        with telemetry.scoped_registry(registry):
            diagnose_batch(dictionary, [0b1, 0b10, 0b100])
        series = registry.counter(
            "repro_diagnosis_devices_total", "").labels()
        assert series.value == 3.0

    def test_report_objects_cached(self):
        __, dictionary = stuck_at_setup(64)
        batch = diagnose_batch(dictionary,
                               [dictionary.fail_matrix.row_int(0)])
        assert batch.report(0) is batch.report(0)

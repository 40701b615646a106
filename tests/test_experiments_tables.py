"""Tests for the table/figure harnesses, on a two-circuit subset."""

import dataclasses

import pytest

from repro.experiments import (
    ExperimentRunner,
    format_figure1,
    format_table1,
    format_table4,
    format_table5,
    format_table6,
    format_table7,
    run_figure1,
    run_table1,
    run_table4,
    run_table5,
    run_table6,
    run_table7,
    suite_entry,
)
from repro.experiments import table5, table6
from repro.experiments.table5 import averages as t5_averages
from repro.experiments.table6 import averages as t6_averages
from repro.experiments.table7 import averages as t7_averages

SMALL = ["irs208", "irs298"]


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(seed=2005)


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table1()

    def test_forty_faults_sixteen_vectors(self, result):
        assert result.num_faults == 40
        assert sorted(result.ndet) == list(range(16))

    def test_adi_rows_consistent(self, result):
        for fault, vectors, value in result.adi_rows:
            assert value == min(result.ndet[u] for u in vectors)

    def test_dynm_prefix_nonincreasing(self, result):
        values = [v for _, v in result.dynm_prefix]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_format_contains_sections(self, result):
        text = format_table1(result)
        assert "Table 1" in text
        assert "ADI" in text
        assert "Fdynm placements" in text


class TestTable4:
    def test_rows_and_shape(self, runner):
        rows = run_table4(runner, SMALL)
        assert [r.circuit for r in rows] == SMALL
        for row in rows:
            assert row.adi_max >= row.adi_min >= 1
            assert row.ratio >= 1.0
        text = format_table4(rows)
        assert "ADImin" in text and "irs208" in text


class TestTable5:
    def test_rows_and_averages(self, runner):
        rows = run_table5(runner, SMALL)
        for row in rows:
            for order in ("orig", "dynm", "0dynm", "incr0"):
                assert row.tests[order] > 0
        avg = t5_averages(rows)
        assert avg["orig"] is not None
        text = format_table5(rows)
        assert "average" in text

    def test_incr0_skipped_for_giants(self, runner, monkeypatch):
        # Do not actually run a giant circuit: give irs208 a giant's
        # suite entry and check that Table 5 leaves incr0 out for it.
        giant = dataclasses.replace(suite_entry("irs208"), run_incr0=False)
        monkeypatch.setattr(table5, "suite_entry", lambda name: giant)
        rows = run_table5(runner, ["irs208"])
        assert rows[0].tests["incr0"] is None
        assert rows[0].tests["orig"] > 0
        assert format_table5(rows).splitlines()[3].split()[-1] == "-"


class TestTable6:
    def test_relative_baseline(self, runner):
        rows = run_table6(runner, SMALL)
        for row in rows:
            assert row.relative["orig"] == pytest.approx(1.0)
            assert row.absolute["orig"] > 0
            assert row.ordering_overhead_seconds >= 0
        avg = t6_averages(rows)
        assert avg["orig"] == pytest.approx(1.0)
        assert "ordering" in format_table6(rows)

    def test_orders_timed_without_cached_placements(self, runner,
                                                    monkeypatch):
        """After Table 5 has ordered the Flow's ADI, Table 6 still times
        the dynamic orders' placement work, not a read of its cache."""
        run_table5(runner, ["irs208"])
        assert runner.flow("irs208").adi()._placements is not None
        real = dict(table6.ORDERS)
        seen = []

        def spy(order):
            def timed(adi):
                seen.append((order, adi._placements))
                return real[order](adi)
            return timed

        monkeypatch.setattr(table6, "ORDERS", {
            **real, "dynm": spy("dynm"), "0dynm": spy("0dynm")})
        rows = run_table6(runner, ["irs208"])
        assert seen[0] == ("dynm", None)
        flow = runner.flow("irs208")
        assert rows[0].ordering_overhead_seconds >= (
            flow.stage_log["u"].seconds + flow.stage_log["adi"].seconds)


class TestTable7:
    def test_ratios(self, runner):
        rows = run_table7(runner, SMALL)
        for row in rows:
            assert row.ratios["orig"] == pytest.approx(1.0)
            for value in row.absolute.values():
                assert value >= 1.0
        avg = t7_averages(rows)
        assert avg["orig"] == pytest.approx(1.0)
        assert "AVEord" in format_table7(rows)


class TestFigure1:
    def test_small_circuit_figure(self, runner):
        result = run_figure1(runner, circuit="irs208")
        assert set(result.points) == {"orig", "dynm", "0dynm"}
        for series in result.points.values():
            xs = [x for x, _ in series]
            assert xs == sorted(xs)
            assert max(x for x, _ in series) <= 1.0
        text = format_figure1(result)
        assert "irs208" in text
        assert "o - orig" in text


class TestCli:
    def test_main_table1(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_main_table4_subset(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["table4", "--circuits", "irs208"]) == 0
        assert "irs208" in capsys.readouterr().out

    def test_main_stats_row_matches_built_circuit(self, capsys):
        """``stats`` is the one circuit summary: its row is the built
        suite circuit's interface."""
        from repro.experiments import build_circuit
        from repro.experiments.__main__ import main

        assert main(["stats", "--circuits", "irs208"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split() == ["circuit", "inputs", "outputs", "gates",
                                    "irredundant"]
        rows = [line.split() for line in lines[3:] if line.strip()]
        circ = build_circuit("irs208")
        assert rows == [["irs208", str(circ.num_inputs),
                         str(circ.num_outputs), str(circ.num_gates), "yes"]]

    def test_main_rejects_unknown_target(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["table9"])

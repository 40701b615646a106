"""Regenerates Figure 1 (fault-coverage curves for irs420)."""

from conftest import FIGURE_CIRCUIT
from repro.experiments import format_figure1, run_figure1


def test_figure1_coverage_curves(benchmark, runner, record):
    result = benchmark.pedantic(
        lambda: run_figure1(runner, circuit=FIGURE_CIRCUIT),
        rounds=1, iterations=1,
    )
    record("figure1", format_figure1(result))

    points = result.points
    assert set(points) == {"orig", "dynm", "0dynm"}
    # Curves are monotone and end at the same normalized x of their own
    # test count relative to the largest set.
    for series in points.values():
        ys = [y for _, y in series]
        assert ys == sorted(ys)

    # The figure's qualitative content, stated with the paper's own
    # summary metric (AVE, Table 7) plus the mid-curve dominance visible
    # in the plot: dynm's curve is steeper than orig overall, dynm sits
    # above orig by the middle of the test set, and 0dynm starts flatter
    # than dynm (hard zero-ADI faults are targeted first).
    def coverage_at(series, x_cut):
        best = 0.0
        for x, y in series:
            if x <= x_cut:
                best = max(best, y)
        return best

    flow = runner.flow(FIGURE_CIRCUIT)
    curves = {o: flow.report(o) for o in points}
    assert curves["dynm"].ave < curves["orig"].ave
    assert coverage_at(points["dynm"], 0.5) > coverage_at(points["orig"], 0.5)
    assert coverage_at(points["0dynm"], 0.1) < coverage_at(points["dynm"], 0.1)
    assert len(flow.faults()) == result.total_faults

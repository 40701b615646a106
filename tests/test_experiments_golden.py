"""The exact text of the paper's tables, pinned on two suite circuits.

``python -m repro.experiments`` is the repo's main output: Tables 1, 4,
5 and 7, the transition table and the suite summary printed for
``--circuits irs208 irs298``, plus ``format_figure1`` of ``irs208``, must
read byte for byte as below.  Table 6 reports measured run times, so its
timing cells are masked; its title, header, circuit column and the
``orig`` column of ``1.00`` stay pinned.  A change that moves a number
here changes a published table and must say why.
"""

import re

import pytest

from repro.experiments import ExperimentRunner, format_figure1, run_figure1
from repro.experiments.__main__ import main

CIRCUITS = ["irs208", "irs298"]

#: target -> the lines ``python -m repro.experiments <target> --circuits
#: irs208 irs298`` prints.
GOLDEN = {
    "stats": (
        'Suite circuits (synthetic stand-ins)',
        'circuit  inputs  outputs   gates  irredundant',
        '---------------------------------------------',
        'irs208       19       10     108          yes',
        'irs298       17       14     112          yes',
    ),
    "table1": (
        'Table 1: input vectors of lion_like (40 collapsed target faults)',
        'u             0       1       2       3       4       5       6       7',
        '-----------------------------------------------------------------------',
        'ndet(u)      14      17      15      16      15      16      17      15',
        '',
        'u             8       9      10      11      12      13      14      15',
        '-----------------------------------------------------------------------',
        'ndet(u)      16      15      18      14      16      16      15      15',
        '',
        'Worked ADI examples (Section 2):',
        '  D(x1 s-a-0) = {8, 9, 10, 11, 12, 13, 14, 15}  ->  ADI = 14',
        '  D(t0.in1(chg) s-a-0) = {4, 5, 6, 7, 8, 9, 10, 11}  ->  ADI = 14',
        '  D(r.in1(x0) s-a-1) = {10}  ->  ADI = 18',
        '',
        'First Fdynm placements (Section 3):',
        '  #1: r.in1(x0) s-a-1  (ADI at placement = 18)',
        '  #2: r.in0(x1) s-a-1  (ADI at placement = 17)',
        '  #3: up.in0(x1) s-a-1  (ADI at placement = 16)',
        '  #4: up.in1(s0) s-a-1  (ADI at placement = 16)',
    ),
    "table4": (
        'Table 4: Accidental detection index',
        'circuit     inp     vec  ADImin  ADImax   ratio',
        '-----------------------------------------------',
        'irs208       19     168      23      95   4.130',
        'irs298       17      75      64     116   1.810',
    ),
    "table5": (
        'Table 5: Test generation (test-set sizes)',
        'circuit    orig    dynm   0dynm   incr0',
        '---------------------------------------',
        'irs208       60      57      48      74',
        'irs298       39      41      37      45',
        'average    49.5    49.0    42.5    59.5',
    ),
    "table7": (
        'Table 7: Steepness of fault coverage curves (AVEord/AVEorig)',
        'circuit    orig    dynm   0dynm',
        '-------------------------------',
        'irs208    1.000   0.656   0.760',
        'irs298    1.000   0.842   0.821',
        'average   1.000   0.749   0.790',
    ),
    "transition": (
        'Transition faults: two-pattern test generation per order',
        'circuit  faults   pairs  tests:orig  tests:dynm  tests:0dynm  AVE dynm/orig  AVE 0dynm/orig',
        '-------------------------------------------------------------------------------------------',
        'irs208      538     530         113         100           88          0.857           0.767',
        'irs298      468     195          78          68           64          0.790           0.810',
        'average                        95.5        84.0         76.0          0.823           0.788',
    ),
}

#: ``format_figure1(run_figure1(runner, circuit="irs208"))``, line by line.
FIGURE1_IRS208 = (
    'Figure 1: Fault coverage curve for irs208 (378 faults; tests: orig=60, dynm=57, 0dynm=48)',
    '100% f.c.',
    '|                                                      z zz       ddd  oo',
    '|                                       zzz zzzzd dddddd dddoo oooooo o  ',
    '|                               zddd dddddd ddddo oooooo ooo             ',
    '|                      d ddddd dd         o oooo                         ',
    '|                  dddd  zz       oo ooooo                               ',
    '|              dd d  zzz   ooo ooo                                       ',
    '|           ddd    zz     o                                              ',
    '|         d     z zooooo o                                               ',
    '|        d    zoo o                                                      ',
    '|       d   zzo                                                          ',
    '|      d     o                                                           ',
    '|     d  zz o                                                            ',
    '|       z                                                                ',
    '|      z oo                                                              ',
    '|    dooo                                                                ',
    '|    oz                                                                  ',
    '|  o                                                                     ',
    '|    z                                                                   ',
    '| oz                                                                     ',
    '|                                                                        ',
    '| z                                                                      ',
    '|                                                                        ',
    '|                                                                        ',
    '|                                                                        ',
    '+------------------------------------------------------------------------',
    '0%                              50%                              100% tests',
    '  o - orig',
    '  d - dynm',
    '  z - 0dynm',
)

#: Table 6 is pinned up to its timing cells.
TABLE6_HEAD = (
    "Table 6: Relative run times (t.gen; 'ordering' column is our extension)",
    'circuit    orig    dynm   0dynm  ordering',
    '-----------------------------------------',
)
TABLE6_ROWS = [
    ["irs208", "1.00", "#", "#", "#"],
    ["irs298", "1.00", "#", "#", "#"],
    ["average", "1.00", "#", "#"],
]

_TIMING_CELL = re.compile(r"^(\d+\.\d\d|nan|\d+ms)$")


def _printed(capsys, target):
    assert main([target, "--circuits", *CIRCUITS]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("target", sorted(GOLDEN))
def test_cli_prints_the_pinned_text(capsys, target):
    assert _printed(capsys, target) == "\n".join(GOLDEN[target]) + "\n"


def test_figure1_prints_the_pinned_text():
    result = run_figure1(ExperimentRunner(seed=2005), circuit="irs208")
    assert format_figure1(result) == "\n".join(FIGURE1_IRS208)


def test_table6_prints_the_pinned_text_up_to_its_timings(capsys):
    lines = _printed(capsys, "table6").rstrip("\n").split("\n")
    assert tuple(lines[:3]) == TABLE6_HEAD
    rows = []
    for line in lines[3:]:
        cells = line.split()
        assert all(_TIMING_CELL.match(cell) for cell in cells[2:]), line
        rows.append(cells[:2] + ["#"] * len(cells[2:]))
    assert rows == TABLE6_ROWS

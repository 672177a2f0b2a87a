"""The package's records are immutable named tuples that print as
Name(field=value, ...)."""

from __future__ import annotations

import pytest

from stratopt import (
    Arc,
    FrequencyTable,
    LayeredGraph,
    PathSolution,
    Population,
    PrefixMoments,
    ProblemSpec,
    SegmentStats,
    StratificationSolution,
    StratumReport,
)
from stratopt.cli import RunConfig

from helpers import desk_table

RECORDS = [
    pytest.param(
        Population({2.0: [2.0], 4.0: [4.0, 4.0]}),
        "Population(groups={2.0: [2.0], 4.0: [4.0, 4.0]})",
        id="Population",
    ),
    pytest.param(
        FrequencyTable((2.0, 4.0), (1, 2), (2.0, 8.0), (4.0, 32.0)),
        "FrequencyTable(q=(2.0, 4.0), count=(1, 2), y_sum=(2.0, 8.0), y_sumsq=(4.0, 32.0))",
        id="FrequencyTable",
    ),
    pytest.param(
        PrefixMoments((0, 1, 3), (0.0, 2.0, 10.0), (0.0, 4.0, 36.0)),
        "PrefixMoments(cum_count=(0, 1, 3), cum_y=(0.0, 2.0, 10.0), cum_y2=(0.0, 4.0, 36.0))",
        id="PrefixMoments",
    ),
    pytest.param(
        SegmentStats(3, 1.5, 10.0),
        "SegmentStats(n_pop=3, s2=1.5, y_total=10.0)",
        id="SegmentStats",
    ),
    pytest.param(
        ProblemSpec(L=2, n=3, N=9),
        "ProblemSpec(L=2, n=3, N=9, fpc=True)",
        id="ProblemSpec",
    ),
    pytest.param(Arc(1, 3, 1), "Arc(tail=1, head=3, layer=1, cost=None)", id="Arc"),
    pytest.param(LayeredGraph(5, 2), "LayeredGraph(K=5, L=2, table=None)", id="LayeredGraph"),
    pytest.param(
        PathSolution((1, 3, 6), 56.0),
        "PathSolution(nodes=(1, 3, 6), total_unit_cost=56.0)",
        id="PathSolution",
    ),
    pytest.param(
        StratumReport(3, 1.5, 10.0, 1.0, 1),
        "StratumReport(size=3, variance=1.5, y_total=10.0, sample_fraction=1.0, sample_size=1)",
        id="StratumReport",
    ),
    pytest.param(
        StratificationSolution((4.0,), (), (1, 3, 6), 56.0, 112.0, 13.5, 0.0),
        "StratificationSolution(boundaries=(4.0,), strata=(), nodes=(1, 3, 6), "
        "total_unit_cost=56.0, variance=112.0, cv=13.5, elapsed=0.0)",
        id="StratificationSolution",
    ),
    pytest.param(
        RunConfig("sizes.csv", 2, 3),
        "RunConfig(input_path='sizes.csv', strata=2, sample_size=3, x_col='x', "
        "y_col=None, fpc=True, oracle_check=False, oracle_cap=10000000, "
        "output_format='text', delimiter=',', neyman=False)",
        id="RunConfig",
    ),
]


@pytest.mark.parametrize("record,text", RECORDS)
def test_record_is_immutable_and_names_each_field(record, text):
    """No field can be rebound and no attribute added, and the repr names
    every field."""
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert repr(record) == text


def test_frequency_table_count_is_the_counts_field():
    """The count field shadows tuple.count, the method every named tuple
    inherits."""
    ft = desk_table()
    assert ft.count == (1, 2, 1, 3, 2)
    assert ft.N == 9

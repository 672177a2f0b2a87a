"""Segment statistics, variance formulas, sample allocation, and the CV.

A candidate stratum is a contiguous run of distinct-value groups. Prefix
moments turn any such run into three subtractions, so every candidate can be
scored in constant time. The variance of the estimated total under
proportional allocation factors into a population constant times the sum of
per-stratum unit costs N_h * S2_h, which is what the path solver minimizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    ConsistencyError,
    DataError,
    DegenerateAllocationError,
    InfeasibleAllocationError,
    InvalidSpecError,
    UndefinedCVError,
    UndefinedVarianceError,
)
from .population import FrequencyTable

# relative slack separating rounding noise from a genuine accounting bug
_NEGATIVE_SS_TOLERANCE = 1e-9


@dataclass(frozen=True, slots=True)
class PrefixMoments:
    """Cumulative count, sum(y), and sum(y^2) over distinct-value groups.

    Index t holds the totals of groups 1..t, with index 0 all zero, so the
    stats of any contiguous block reduce to one subtraction per moment.
    """

    cum_count: tuple[int, ...]
    cum_y: tuple[float, ...]
    cum_y2: tuple[float, ...]

    @property
    def K(self) -> int:
        return len(self.cum_count) - 1

    @property
    def N(self) -> int:
        return self.cum_count[-1]


@dataclass(frozen=True, slots=True)
class SegmentStats:
    """Unit count, dispersion, and y total of one candidate stratum.

    s2 is the usual survey-sampling stratum variance with an n_pop - 1
    denominator.
    """

    n_pop: int
    s2: float
    y_total: float


@dataclass(frozen=True, slots=True)
class ProblemSpec:
    """Stratum count L, sample size n, population size N, and the
    without-replacement correction switch (fpc)."""

    L: int
    n: int
    N: int
    fpc: bool = True

    def __post_init__(self) -> None:
        if self.L < 1:
            raise InvalidSpecError(f"stratum count must be at least 1, got {self.L}")
        if self.N < 1:
            raise InvalidSpecError(f"population size must be at least 1, got {self.N}")
        if not 1 <= self.n <= self.N:
            raise InvalidSpecError(
                f"sample size must satisfy 1 <= n <= N, got n={self.n} with N={self.N}"
            )


def build_prefix_moments(ft: FrequencyTable) -> PrefixMoments:
    """Accumulate per-group aggregates into prefix arrays.

    Float prefixes use compensated accumulation so long tables do not drift.
    Raises DataError when a running sum of y or y^2 overflows a float.
    """
    cum_count = [0]
    running = 0
    for c in ft.count:
        running += c
        cum_count.append(running)
    cum_y = _compensated_prefix(ft.y_sum)
    cum_y2 = _compensated_prefix(ft.y_sumsq)
    if not all(map(math.isfinite, cum_y + cum_y2)):
        raise DataError("y values too large: a running sum of y or y^2 overflows a float")
    return PrefixMoments(tuple(cum_count), cum_y, cum_y2)


def segment_stats(pm: PrefixMoments, i: int, j: int) -> SegmentStats:
    """Stats of the segment covering groups i..j-1 (1-based, j <= K+1).

    The one-head case of segment_row. Raises ValueError for a segment
    outside the table, and the errors of segment_row.
    """
    if not 1 <= i < j <= pm.K + 1:
        raise ValueError(f"segment ({i}, {j}) outside 1 <= i < j <= {pm.K + 1}")
    return SegmentStats(*segment_row(pm, i, (j,))[0])


def segment_row(
    pm: PrefixMoments, i: int, heads: Iterable[int]
) -> list[tuple[int, float, float]]:
    """(n_pop, s2, y_total) of the segments i..j-1 for each head j in heads.

    Every segment of one tail reads the tail's prefixes once; the callers
    keep 1 <= i < j <= K+1. Raises UndefinedVarianceError when a segment
    holds a single unit, DataError when its squared y total overflows a
    float, and ConsistencyError when cancellation drives its sum of squares
    negative beyond rounding noise.
    """
    cum_count, cum_y, cum_y2 = pm.cum_count, pm.cum_y, pm.cum_y2
    count_before, y_before, y2_before = cum_count[i - 1], cum_y[i - 1], cum_y2[i - 1]
    row = []
    for j in heads:
        n_pop = cum_count[j - 1] - count_before
        y_total = cum_y[j - 1] - y_before
        if n_pop == 1:
            raise UndefinedVarianceError(
                f"segment of groups {i}..{j - 1} holds a single unit"
            )
        y2_total = cum_y2[j - 1] - y2_before
        ss = y2_total - y_total * y_total / n_pop
        if ss < 0.0:
            if math.isinf(y_total * y_total):
                raise DataError(
                    f"y values too large: the squared y total of groups "
                    f"{i}..{j - 1} overflows a float"
                )
            if ss < -_NEGATIVE_SS_TOLERANCE * abs(y2_total / n_pop):
                raise ConsistencyError(
                    f"sum of squares {ss} for groups {i}..{j - 1} is negative "
                    "beyond rounding noise"
                )
            ss = 0.0
        row.append((n_pop, ss / (n_pop - 1), y_total))
    return row


def segment_stats_direct(ft: FrequencyTable, i: int, j: int) -> SegmentStats:
    """Stats of groups i..j-1 recomputed from the per-group aggregates.

    Two-pass form centered on the segment mean, sharing nothing with the
    prefix-difference route, so the two can cross-check each other.
    """
    if not 1 <= i < j <= ft.K + 1:
        raise ValueError(f"segment ({i}, {j}) outside 1 <= i < j <= {ft.K + 1}")
    n_pop = sum(ft.count[i - 1 : j - 1])
    if n_pop == 1:
        raise UndefinedVarianceError(
            f"segment of groups {i}..{j - 1} holds a single unit"
        )
    y_total = math.fsum(ft.y_sum[i - 1 : j - 1])
    mean = y_total / n_pop
    ss = math.fsum(
        ft.y_sumsq[k] - 2.0 * mean * ft.y_sum[k] + ft.count[k] * mean * mean
        for k in range(i - 1, j - 1)
    )
    ss = max(ss, 0.0)
    return SegmentStats(n_pop, ss / (n_pop - 1), y_total)


def unit_cost(stats: SegmentStats) -> float:
    """Per-stratum contribution N_h * S2_h to the variance of the total."""
    return stats.n_pop * stats.s2


# 2**1074 clears the power-of-two denominator of every finite float
_EXACT_SCALE = 1 << 1074


def exact_cost_units(cost: float) -> int:
    """Embed a float exactly as an integer count of 2**-1074 units.

    Sums and comparisons of embedded costs are exact integer arithmetic, so
    a minimum-cost search cannot be perturbed by float summation order and
    cost ties are genuine ties.
    """
    numerator, denominator = cost.as_integer_ratio()
    # denominator is 2**k, so the product numerator * 2**(1074 - k) is a shift
    return numerator << (1075 - denominator.bit_length())


def cost_units_to_float(units: int) -> float:
    """Collapse an exact unit count back to the nearest float."""
    return units / _EXACT_SCALE


def variance_factor(spec: ProblemSpec) -> float:
    """Constant multiplier turning summed unit costs into the variance."""
    factor = spec.N / spec.n
    if spec.fpc:
        factor *= 1.0 - spec.n / spec.N
    return factor


def total_variance_proportional(costs: Sequence[float], spec: ProblemSpec) -> float:
    """Variance of the estimated total under proportional allocation.

    (N/n) * (1 - n/N) * sum(costs) with the correction, (N/n) * sum(costs)
    without (sampling with replacement).
    """
    if not costs:
        raise ValueError("costs must be nonempty")
    return variance_factor(spec) * math.fsum(costs)


def variance_general(
    per_stratum: Iterable[tuple[int, float, float]], spec: ProblemSpec
) -> float:
    """Variance of the total for arbitrary per-stratum sample sizes.

    per_stratum yields (N_h, S2_h, n_h) triples; n_h may be fractional. Each
    stratum contributes N_h^2 * (S2_h / n_h) * (1 - n_h / N_h), the last
    factor dropped when spec.fpc is false.
    """
    terms = []
    for n_pop, s2, n_h in per_stratum:
        if n_h <= 0 or n_h > n_pop:
            raise InfeasibleAllocationError(
                f"stratum sample size {n_h} outside (0, {n_pop}]"
            )
        term = n_pop * n_pop * (s2 / n_h)
        if spec.fpc:
            term *= 1.0 - n_h / n_pop
        terms.append(term)
    if not terms:
        raise ValueError("per_stratum must be nonempty")
    return math.fsum(terms)


def allocate_proportional(
    n_pops: Sequence[int], spec: ProblemSpec
) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Proportional sample allocation n_h = n * N_h / N.

    Returns the exact fractional shares and an integer rounding by largest
    remainder, ties broken toward the lower stratum index. The rounded sizes
    always sum to n; a rounded size of zero is possible and left to the
    caller to flag.
    """
    if sum(n_pops) != spec.N:
        raise InvalidSpecError(
            f"stratum sizes sum to {sum(n_pops)}, expected N={spec.N}"
        )
    fractional = [spec.n * size / spec.N for size in n_pops]
    rounded = [math.floor(f) for f in fractional]
    leftover = spec.n - sum(rounded)
    by_remainder = sorted(
        range(len(n_pops)), key=lambda h: (rounded[h] - fractional[h], h)
    )
    for h in by_remainder[:leftover]:
        rounded[h] += 1
    return tuple(fractional), tuple(rounded)


def allocate_neyman(
    n_pops: Sequence[int], s: Sequence[float], n: int
) -> tuple[float, ...]:
    """Dispersion-weighted (optimal) fractional allocation.

    n_h = n * N_h * S_h / sum(N_l * S_l). Raises DegenerateAllocationError
    when every stratum has zero dispersion.
    """
    weights = [size * sd for size, sd in zip(n_pops, s, strict=True)]
    total = math.fsum(weights)
    if total <= 0.0:
        raise DegenerateAllocationError(
            "every stratum has zero dispersion, shares are undefined"
        )
    return tuple(n * w / total for w in weights)


def coefficient_of_variation(variance: float, total: float) -> float:
    """Relative precision of the estimator, in percent: 100 * sqrt(V) / total."""
    if variance < 0.0:
        raise ValueError(f"variance must be nonnegative, got {variance}")
    if total == 0.0:
        raise UndefinedCVError("population total is zero, CV undefined")
    return 100.0 * math.sqrt(variance) / total


def _compensated_prefix(values: Iterable[float]) -> tuple[float, ...]:
    """Running prefix sums with Neumaier compensation, index 0 = 0.0."""
    out = [0.0]
    total = 0.0
    compensation = 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            compensation += (total - t) + v
        else:
            compensation += (v - t) + total
        total = t
        out.append(total + compensation)
    return tuple(out)

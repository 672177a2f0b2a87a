"""Segment statistics, variance formulas, sample allocation, and the CV.

A candidate stratum is a contiguous run of distinct-value groups. Prefix
moments turn any such run into three subtractions, so every candidate can be
scored in constant time. The variance of the estimated total under
proportional allocation factors into a population constant times the sum of
per-stratum unit costs N_h * S2_h, which is what the path solver minimizes.
"""

from __future__ import annotations

import math
from itertools import accumulate
from numbers import Integral
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    DataError,
    DegenerateAllocationError,
    InfeasibleAllocationError,
    InvalidSpecError,
    UndefinedCVError,
    UndefinedVarianceError,
)
from .population import FrequencyTable


class PrefixMoments(NamedTuple):
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


class SegmentStats(NamedTuple):
    """Unit count, dispersion, and y total of one candidate stratum.

    s2 is the usual survey-sampling stratum variance with an n_pop - 1
    denominator.
    """

    n_pop: int
    s2: float
    y_total: float


class _ProblemFields(NamedTuple):
    """The fields of ProblemSpec, which checks them."""

    L: int
    n: int
    N: int
    fpc: bool = True


class ProblemSpec(_ProblemFields):
    """Stratum count L, sample size n and population size N, integers but
    not bools, and the without-replacement correction switch (fpc), a bool.

    Checked whenever one is made: built, copied by _replace or _make, or
    unpickled.
    """

    __slots__ = ()

    def __new__(cls, L: int, n: int, N: int, fpc: bool = True) -> ProblemSpec:
        for name, value in (("L", L), ("n", n), ("N", N)):
            # a bool is an Integral, yet True would read as 1
            if not isinstance(value, Integral) or isinstance(value, bool):
                raise InvalidSpecError(f"{name} must be an integer, got {value!r}")
        if L < 1:
            raise InvalidSpecError(f"stratum count must be at least 1, got {L}")
        if N < 1:
            raise InvalidSpecError(f"population size must be at least 1, got {N}")
        if not 1 <= n <= N:
            raise InvalidSpecError(
                f"sample size must satisfy 1 <= n <= N, got n={n} with N={N}"
            )
        # a truthy string or a falsy None would silently pick the correction
        if not isinstance(fpc, bool):
            raise InvalidSpecError(f"fpc must be a bool, got {fpc!r}")
        return super().__new__(cls, L, n, N, fpc)

    @classmethod
    def _make(cls, iterable: Iterable) -> ProblemSpec:
        # the named tuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)


def build_prefix_moments(ft: FrequencyTable) -> PrefixMoments:
    """Accumulate per-group aggregates into prefix arrays.

    Float prefixes use compensated accumulation so long tables do not drift.
    Raises DataError when the table's four fields differ in length, when a
    group holds fewer than one unit or its x does not exceed the x before
    it (the message names the first such group), or when a running sum of
    y or y^2 overflows a float. Tables from build_frequency_table always
    pass the first three checks.
    """
    lengths = dict(zip(ft._fields, map(len, ft)))
    if len(set(lengths.values())) > 1:
        raise DataError(f"frequency table fields differ in length: {lengths}")
    for t, (x, count) in enumerate(zip(ft.q, ft.count), start=1):
        if count < 1:
            raise DataError(f"group {t} (x={x!r}) holds {count} units, fewer than 1")
        if t > 1 and not ft.q[t - 2] < x:
            raise DataError(
                f"x does not ascend strictly: group {t} (x={x!r}) follows x={ft.q[t - 2]!r}"
            )
    cum_count = tuple(accumulate(ft.count, initial=0))
    cum_y = _compensated_prefix(ft.y_sum)
    cum_y2 = _compensated_prefix(ft.y_sumsq)
    if not all(map(math.isfinite, cum_y + cum_y2)):
        raise DataError("y values too large: a running sum of y or y^2 overflows a float")
    return PrefixMoments(cum_count, cum_y, cum_y2)


def segment_stats(pm: PrefixMoments, i: int, j: int) -> SegmentStats:
    """Stats of the segment covering groups i..j-1 (1-based, j <= K+1).

    One subtraction per prefix moment, then the sum of squares about the
    mean as the squares' total less y_total^2 / n_pop: the float operations
    that cost_table runs on each of its rows. A sum of squares that
    cancellation drives negative is clamped to 0. That only lowers a cost
    whose exact value is >= 0, so off the chosen path it cannot change the
    answer; on it, path_to_solution's independent route sees the gap unless
    it lies below that stratum's rounding floor. Raises ValueError for a
    segment outside the table, UndefinedVarianceError when the segment holds
    a single unit, and DataError when its squared y total overflows a float.
    """
    if not 1 <= i < j <= pm.K + 1:
        raise ValueError(f"segment ({i}, {j}) outside 1 <= i < j <= {pm.K + 1}")
    n_pop = pm.cum_count[j - 1] - pm.cum_count[i - 1]
    if n_pop == 1:
        raise UndefinedVarianceError(
            f"segment of groups {i}..{j - 1} holds a single unit"
        )
    y_total = pm.cum_y[j - 1] - pm.cum_y[i - 1]
    ss = pm.cum_y2[j - 1] - pm.cum_y2[i - 1] - y_total * y_total / n_pop
    if ss < 0.0:
        if math.isinf(y_total * y_total):
            raise DataError(
                f"y values too large: the squared y total of groups "
                f"{i}..{j - 1} overflows a float"
            )
        ss = 0.0
    return SegmentStats(n_pop, ss / (n_pop - 1), y_total)


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


def exact_cost_units(cost: float) -> int:
    """Embed a float exactly as an integer count of 2**-1074 units.

    Sums and comparisons of embedded costs are exact integer arithmetic, so
    a minimum-cost search cannot be perturbed by float summation order and
    cost ties are genuine ties.
    """
    numerator, denominator = cost.as_integer_ratio()
    # denominator is 2**k, so the product numerator * 2**(1074 - k) is a shift
    return numerator << (1075 - denominator.bit_length())


def variance_factor(spec: ProblemSpec) -> float:
    """Constant multiplier turning summed unit costs into the variance."""
    factor = spec.N / spec.n
    if spec.fpc:
        factor *= 1.0 - spec.n / spec.N
    return factor


def total_variance_proportional(costs: Sequence[float], spec: ProblemSpec) -> float:
    """Variance of the estimated total under proportional allocation.

    (N/n) * (1 - n/N) * sum(costs) with the correction, (N/n) * sum(costs)
    without (sampling with replacement). Raises ValueError when costs is
    empty or a cost is negative, NaN or infinite.
    """
    if not costs or not all(0.0 <= cost < math.inf for cost in costs):
        raise ValueError(f"costs must be nonempty, finite and nonnegative, got {tuple(costs)!r}")
    return variance_factor(spec) * math.fsum(costs)


def variance_general(
    per_stratum: Iterable[tuple[int, float, float]], spec: ProblemSpec
) -> float:
    """Variance of the total for arbitrary per-stratum sample sizes.

    per_stratum yields (N_h, S2_h, n_h) triples; n_h may be fractional. Each
    stratum contributes N_h^2 * (S2_h / n_h) * (1 - n_h / N_h), the last
    factor dropped when spec.fpc is false. Raises InfeasibleAllocationError
    for an n_h outside (0, N_h], a NaN n_h included, and then ValueError
    for an S2_h that is negative, NaN or infinite.
    """
    terms = []
    for n_pop, s2, n_h in per_stratum:
        if not 0 < n_h <= n_pop:
            raise InfeasibleAllocationError(
                f"stratum sample size {n_h} outside (0, {n_pop}]"
            )
        if not 0.0 <= s2 < math.inf:
            raise ValueError(f"stratum dispersion S2_h must be finite and nonnegative, got {s2!r}")
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

    Returns the float shares and their rounding by largest remainder,
    computed in integers: divmod(n * N_h, N) gives each stratum's floor and
    remainder, so equal remainders are exact ties, which go to the lower
    stratum index. The rounded sizes always sum to n; a rounded size of zero
    is possible and left to the caller to flag. Raises InvalidSpecError when
    a size is not a nonnegative integer, a bool counting as none, or the
    sizes do not sum to N.
    """
    # a bool is an Integral, yet True would read as 1
    if not all(isinstance(size, Integral) and not isinstance(size, bool) for size in n_pops):
        raise InvalidSpecError(f"stratum sizes must be integers, got {tuple(n_pops)!r}")
    if any(size < 0 for size in n_pops):
        raise InvalidSpecError(f"stratum sizes must be nonnegative, got {tuple(n_pops)!r}")
    if sum(n_pops) != spec.N:
        raise InvalidSpecError(
            f"stratum sizes sum to {sum(n_pops)}, expected N={spec.N}"
        )
    fractional = tuple(spec.n * size / spec.N for size in n_pops)
    parts = [divmod(spec.n * size, spec.N) for size in n_pops]
    rounded = [floor for floor, _ in parts]
    by_remainder = sorted(range(len(parts)), key=lambda h: (-parts[h][1], h))
    for h in by_remainder[: spec.n - sum(rounded)]:
        rounded[h] += 1
    return fractional, tuple(rounded)


def allocate_neyman(
    n_pops: Sequence[int], s: Sequence[float], n: int
) -> tuple[float, ...]:
    """Dispersion-weighted (optimal) fractional allocation.

    n_h = n * N_h * S_h / sum(N_l * S_l). Raises ValueError when the two
    sequences differ in length or a dispersion S_h is negative, NaN or
    infinite, and DegenerateAllocationError when every stratum has zero
    dispersion.
    """
    if not all(0.0 <= sd < math.inf for sd in s):
        raise ValueError(f"dispersions must be finite and nonnegative, got {tuple(s)!r}")
    weights = [size * sd for size, sd in zip(n_pops, s, strict=True)]
    total = math.fsum(weights)
    if total <= 0.0:
        raise DegenerateAllocationError(
            "every stratum has zero dispersion, shares are undefined"
        )
    return tuple(n * w / total for w in weights)


def coefficient_of_variation(variance: float, total: float) -> float:
    """Relative precision of the estimator, in percent: 100 * sqrt(V) / |total|.

    Never negative: a negative total gives the CV of its mirror image -y,
    whose variance is the same. Raises ValueError when the variance is
    negative, NaN or infinite, and UndefinedCVError when the total is zero,
    or so close to zero that the CV overflows a float.
    """
    if not 0.0 <= variance < math.inf:
        raise ValueError(f"variance must be finite and nonnegative, got {variance}")
    if total == 0.0:
        raise UndefinedCVError("population total is zero, CV undefined")
    cv = 100.0 * math.sqrt(variance) / abs(total)
    if not math.isfinite(cv):
        raise UndefinedCVError(
            f"population total {total!r} is too close to zero, CV overflows a float"
        )
    return cv


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

"""Shared test data builders and independent reference computations.

Reference values here deliberately avoid the package's prefix-moment route:
statistics.variance works on exact fractions internally, which makes it a
trustworthy independent scorer for small instances.
"""

from __future__ import annotations

import random
import statistics

from stratopt import (
    FrequencyTable,
    LayeredGraph,
    Observation,
    Population,
    ProblemSpec,
    build_frequency_table,
    variance_factor,
)

# sorts to the worked example multiset (2, 4, 4, 8, 10, 10, 10, 15, 15)
DESK_X = (10, 2, 4, 8, 10, 4, 15, 10, 15)

DESK_CSV = "x\n" + "\n".join(str(x) for x in DESK_X) + "\n"


def population_from_pairs(pairs) -> Population:
    observations = sorted(
        (Observation(float(x), float(y)) for x, y in pairs), key=lambda o: o.x
    )
    return Population(tuple(observations))


def table_from_pairs(pairs) -> FrequencyTable:
    return build_frequency_table(population_from_pairs(pairs))


def desk_table() -> FrequencyTable:
    return table_from_pairs((x, x) for x in DESK_X)


def random_pairs(
    rng: random.Random, L: int, k_max: int = 25, k_min: int = 0
) -> list[tuple[float, float]]:
    """Raw (x, y) rows with an exact count of distinct x in
    [max(2L, k_min), k_max].

    x values are cumulative positive gaps, so they are distinct by
    construction; y is lognormal.
    """
    k = rng.randint(max(2 * L, k_min), k_max)
    values = []
    x = 0.0
    for _ in range(k):
        x += rng.lognormvariate(0.0, 1.0)
        values.append(x)
    pairs = []
    for value in values:
        for _ in range(rng.randint(1, 4)):
            pairs.append((value, rng.lognormvariate(0.0, 1.0)))
    return pairs


def random_instance(
    rng: random.Random, L: int, k_max: int = 25, k_min: int = 0
) -> FrequencyTable:
    return table_from_pairs(random_pairs(rng, L, k_max, k_min))


def skewed_table(n_units: int = 900, k_distinct: int = 272, seed: int = 20240917) -> FrequencyTable:
    """Deterministic skewed population: many small units, a long right tail."""
    rng = random.Random(seed)
    values = []
    x = 0.0
    for _ in range(k_distinct):
        x += rng.lognormvariate(0.0, 1.0)
        values.append(x)
    counts = [1] * k_distinct
    for _ in range(n_units - k_distinct):
        index = min(int(rng.expovariate(1.0 / 40.0)), k_distinct - 1)
        counts[index] += 1
    pairs = [(v, v) for v, c in zip(values, counts) for _ in range(c)]
    return table_from_pairs(pairs)


def random_composition(rng: random.Random, K: int, L: int) -> tuple[int, ...]:
    """Uniformly random feasible composition: L parts >= 2 summing to K."""
    if L == 1:
        return (K,)
    slack = K - 2 * L
    slots = slack + L - 1
    bars = sorted(rng.sample(range(slots), L - 1))
    parts = []
    previous = -1
    for bar in bars:
        parts.append(bar - previous - 1)
        previous = bar
    parts.append(slots - 1 - previous)
    return tuple(part + 2 for part in parts)


def nodes_from_composition(widths) -> tuple[int, ...]:
    nodes = [1]
    for width in widths:
        nodes.append(nodes[-1] + width)
    return tuple(nodes)


def reference_variance(pairs, widths, spec: ProblemSpec) -> float:
    """Score one composition straight from raw rows, sharing no code with
    the prefix-moment route."""
    ordered = sorted(pairs, key=lambda p: p[0])
    distinct = sorted({x for x, _ in ordered})
    assert sum(widths) == len(distinct)
    costs = []
    start = 0
    for width in widths:
        block = set(distinct[start : start + width])
        ys = [y for x, y in ordered if x in block]
        costs.append(len(ys) * statistics.variance(ys))
        start += width
    return variance_factor(spec) * sum(costs)


def count_paths(graph: LayeredGraph) -> int:
    """Number of source to terminal paths using one arc per layer."""
    ways = {graph.source: 1}
    for layer in graph.layers:
        onward: dict[int, int] = {}
        for arc in layer:
            weight = ways.get(arc.tail)
            if weight:
                onward[arc.head] = onward.get(arc.head, 0) + weight
        ways = onward
    return ways.get(graph.sink, 0)

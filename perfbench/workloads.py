"""Seeded inputs for the stratopt benchmark.

Every workload is a fixed list of instance shapes (distinct values K, strata
L, rows). The seed changes the data inside each shape, never its size, so the
work in a run does not depend on the seed. Seeds fold onto a pool of POOL
input sets; reference/<workload>.json holds the answers the seed code gave
for every input set of the pool, so each run can check every answer.

Every instance is handed to the program as delimited text with a header row,
the form the command line reads. Floats are written with repr, which reads
back to the same float.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

POOL = 16
WORKLOADS = ("skewed_yx", "random_y", "csv_ingest", "oracle_check")
SIZES = ("full", "toy")

# tests/helpers.skewed_table's defaults: the acceptance instance
ACCEPTANCE_SEED = 20240917
ACCEPTANCE_UNITS = 900
ACCEPTANCE_K = 272
ACCEPTANCE_L = 5

# (K values, L values) of the skewed_yx and random_y grids
_GRIDS = {"full": ((160, 272), (3, 5, 8)), "toy": ((12, 20), (3, 5))}
# (rows, K, L) of the csv_ingest file
_CSV_SHAPE = {"full": (300_000, 200, 3), "toy": (3_000, 20, 3)}
# (K, L) of the oracle_check batch; each shape comes once with random data
# and once with tie-heavy equally spaced integer x
_ORACLE_SHAPES = {
    "full": ((30, 3), (45, 4), (60, 3), (60, 4), (50, 5), (30, 6), (36, 6)),
    "toy": ((8, 3), (10, 4), (12, 3)),
}


@dataclass(frozen=True, slots=True)
class Instance:
    """One problem: its input text, the study column and the strata wanted."""

    name: str
    text: str
    y_col: str | None
    L: int
    n: int

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()[:16]


def instances(workload: str, seed: int, size: str = "full") -> list[Instance]:
    """The instances of one run, fixed by (workload, seed mod POOL, size)."""
    pool = seed % POOL
    if workload == "skewed_yx":
        return _grid(pool, size, random_y=False)
    if workload == "random_y":
        return _grid(pool, size, random_y=True)
    if workload == "csv_ingest":
        return [_csv_file(pool, size)]
    if workload == "oracle_check":
        return _oracle_batch(pool, size)
    raise ValueError(f"unknown workload {workload!r}")


def skewed_values(
    rng: random.Random, n_units: int, k_distinct: int
) -> tuple[list[float], list[int]]:
    """Distinct x values and their counts, drawn as tests/helpers.skewed_table
    draws them: lognormal gaps, and an exponential pile-up of the extra units
    on the smallest values."""
    values = []
    x = 0.0
    for _ in range(k_distinct):
        x += rng.lognormvariate(0.0, 1.0)
        values.append(x)
    counts = [1] * k_distinct
    for _ in range(n_units - k_distinct):
        index = min(int(rng.expovariate(1.0 / 40.0)), k_distinct - 1)
        counts[index] += 1
    return values, counts


def _units_for(k_distinct: int) -> int:
    # the acceptance instance's 900 units per 272 values, kept at every K
    return ACCEPTANCE_UNITS * k_distinct // ACCEPTANCE_K


def _grid(pool: int, size: str, random_y: bool) -> list[Instance]:
    ks, ls = _GRIDS[size]
    out = []
    for K in ks:
        for L in ls:
            acceptance = (K, L) == (ACCEPTANCE_K, ACCEPTANCE_L) and not random_y
            if acceptance:
                rng = random.Random(ACCEPTANCE_SEED)
                n_units = ACCEPTANCE_UNITS
            else:
                tag = "random_y" if random_y else "skewed_yx"
                rng = random.Random(f"{tag}:{pool}:{K}:{L}")
                n_units = _units_for(K)
            values, counts = skewed_values(rng, n_units, K)
            if random_y:
                # y independent of x: positive lognormal, median ~55
                lines = [
                    f"{v!r},{rng.lognormvariate(4.0, 0.75)!r}"
                    for v, c in zip(values, counts)
                    for _ in range(c)
                ]
                text = "x,y\n" + "\n".join(lines) + "\n"
            else:
                text = "x\n" + "".join(
                    f"{v!r}\n" for v, c in zip(values, counts) for _ in range(c)
                )
            name = f"K{K}-L{L}" + ("-acceptance" if acceptance else "")
            n = min(100, n_units // 4)
            out.append(Instance(name, text, "y" if random_y else None, L, n))
    return out


def _csv_file(pool: int, size: str) -> Instance:
    """A survey frame as a user would export it: unsorted rows, an id
    column, x and y with two decimals, y roughly proportional to x."""
    rows, K, L = _CSV_SHAPE[size]
    rng = random.Random(f"csv_ingest:{pool}")
    cents = 0
    values = []
    for _ in range(K):
        cents += max(1, round(100 * rng.lognormvariate(0.0, 1.0)))
        values.append(cents)
    counts = [1] * K
    for _ in range(rows - K):
        counts[min(int(rng.expovariate(5.0 / K)), K - 1)] += 1
    xs = [v for v, c in zip(values, counts) for _ in range(c)]
    rng.shuffle(xs)
    lines = ["unit,x,y"]
    for unit, x in enumerate(xs, start=1):
        y = x * rng.lognormvariate(0.0, 0.5) / 100.0
        lines.append(f"{unit},{x // 100}.{x % 100:02d},{y:.2f}")
    return Instance(f"rows{rows}-K{K}-L{L}", "\n".join(lines) + "\n", "y", L, 1000)


def _oracle_batch(pool: int, size: str) -> list[Instance]:
    out = []
    for K, L in _ORACLE_SHAPES[size]:
        rng = random.Random(f"oracle_check:{pool}:{K}:{L}")
        # random: lognormal gaps, 1-4 units per value, lognormal y
        lines = []
        x = 0.0
        for _ in range(K):
            x += rng.lognormvariate(0.0, 1.0)
            for _ in range(rng.randint(1, 4)):
                lines.append(f"{x!r},{rng.lognormvariate(0.0, 1.0)!r}")
        text = "x,y\n" + "\n".join(lines) + "\n"
        N = len(lines)
        out.append(Instance(f"K{K}-L{L}-random", text, "y", L, max(1, N // 4)))
        # ties: equally spaced integers, the same count on every value and
        # y = x, so many compositions cost exactly the same
        step = rng.randint(1, 5)
        count = rng.randint(1, 3)
        text = "x\n" + "".join(f"{step * k}\n" for k in range(1, K + 1) for _ in range(count))
        out.append(Instance(f"K{K}-L{L}-ties", text, None, L, max(1, K * count // 4)))
    return out


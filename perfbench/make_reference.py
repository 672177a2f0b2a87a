"""Write reference/<workload>.json: the answers the current stratopt gives on
every input set of the pool, at both sizes.

Usage, from the root of the repository:

    python3 perfbench/make_reference.py [WORKLOAD ...]

The committed files were written by the seed code. Rewrite them only when
the inputs change, never to make a run pass: a run that disagrees with them
is a changed answer.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from stratopt import (  # noqa: E402
    ProblemSpec,
    brute_force_solve,
    build_frequency_table,
    load_population,
    solve_problem,
)
from workloads import POOL, SIZES, WORKLOADS, instances  # noqa: E402


def answer(inst, oracle: bool) -> dict:
    ft = build_frequency_table(load_population(io.StringIO(inst.text), y_column=inst.y_col))
    spec = ProblemSpec(L=inst.L, n=inst.n, N=ft.N)
    sol = solve_problem(ft, spec)
    if oracle and brute_force_solve(ft, spec).nodes != sol.nodes:
        raise SystemExit(f"solver and oracle disagree on {inst.name}")
    return {
        "digest": inst.digest,
        "nodes": list(sol.nodes),
        "boundaries": list(sol.boundaries),
        "variance": sol.variance,
        "unit_cost": sol.total_unit_cost,
    }


def main(argv: list[str]) -> int:
    for workload in argv or WORKLOADS:
        table = {
            size: {
                str(pool): {
                    inst.name: answer(inst, workload == "oracle_check")
                    for inst in instances(workload, pool, size)
                }
                for pool in range(POOL)
            }
            for size in SIZES
        }
        path = HERE / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

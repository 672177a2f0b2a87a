"""Command line front end producing text or JSON stratification reports."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import NamedTuple

from .errors import (
    DEFAULT_ORACLE_CAP,
    ConsistencyError,
    DataError,
    DegenerateAllocationError,
    EmptyPopulationError,
    InfeasibleProblemError,
    InputSchemaError,
    InvalidSpecError,
    OracleTooLargeError,
    StratificationError,
    UndefinedCVError,
)
from .forked import load_file
from .moments import ProblemSpec, allocate_neyman
from .population import build_frequency_table
from .solver import StratificationSolution, solve_problem

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


class RunConfig(NamedTuple):
    """Everything one invocation needs."""

    input_path: str
    strata: int
    sample_size: int
    x_col: str = "x"
    y_col: str | None = None
    fpc: bool = True
    oracle_check: bool = False
    oracle_cap: int = DEFAULT_ORACLE_CAP
    output_format: str = "text"
    delimiter: str = ","
    neyman: bool = False


def run(cfg: RunConfig) -> int:
    """Load, solve, optionally cross-check, and print one report to stdout.

    Nothing reaches stdout unless the run succeeds. Diagnostics go to
    stderr, one line each. Returns the process exit code: 0 on success, 2 on
    input or schema problems, 3 on infeasible problems or when memory runs
    out, 4 on internal consistency failures and on any other library error,
    which valid use of the library never raises here.
    """
    try:
        try:
            with open(cfg.input_path, newline="", encoding="utf-8") as handle:
                population = load_file(handle, cfg.x_col, cfg.y_col, cfg.delimiter)
        except OSError as exc:
            return _fail(f"cannot read input: {exc}", EXIT_INPUT)
        ft = build_frequency_table(population)
        spec = ProblemSpec(
            L=cfg.strata, n=cfg.sample_size, N=ft.N, fpc=cfg.fpc
        )
        solution = solve_problem(ft, spec)

        oracle_checked = False
        if cfg.oracle_check:
            # the package loads the oracle on this first use of its name
            from . import brute_force_solve

            try:
                reference = brute_force_solve(ft, spec, cfg.oracle_cap)
            except OracleTooLargeError as exc:
                print(f"warning: exhaustive check skipped: {exc}", file=sys.stderr)
            else:
                if solution.nodes != reference.nodes:
                    raise ConsistencyError(
                        "solver disagrees with the exhaustive check: "
                        f"nodes {solution.nodes} vs {reference.nodes}"
                    )
                oracle_checked = True

        neyman = _neyman_or_none(solution, spec.n) if cfg.neyman else None
        for index, report in enumerate(solution.strata, start=1):
            if report.sample_size == 0:
                print(
                    f"warning: stratum {index} rounds to a sample size of 0",
                    file=sys.stderr,
                )
        if cfg.output_format == "json":
            output = emit_json(solution, cfg, oracle_checked, neyman)
        else:
            output = emit_text(solution, cfg, oracle_checked, neyman)
    except (InputSchemaError, DataError, EmptyPopulationError) as exc:
        return _fail(str(exc), EXIT_INPUT)
    except (InvalidSpecError, InfeasibleProblemError, UndefinedCVError) as exc:
        return _fail(str(exc), EXIT_INFEASIBLE)
    except StratificationError as exc:  # ConsistencyError, or a library bug
        return _fail(str(exc), EXIT_INTERNAL)
    except MemoryError:
        return _fail(
            f"out of memory: {cfg.input_path} needs more memory than is available",
            EXIT_INFEASIBLE,
        )
    try:
        # flush here, so a closed stdout fails now and not at interpreter exit
        print(output)
        sys.stdout.flush()
    except OSError as exc:
        _discard_stdout()
        return _fail(f"cannot write report: {exc}", EXIT_INPUT)
    return EXIT_OK


def emit_json(
    solution: StratificationSolution,
    cfg: RunConfig,
    oracle_checked: bool = False,
    neyman: tuple[float, ...] | None = None,
) -> str:
    """Machine-readable report with stable field names and full precision."""
    payload: dict[str, object] = {
        "N": solution.N,
        "K": solution.K,
        "L": len(solution.strata),
        "n": cfg.sample_size,
        "fpc": cfg.fpc,
        "boundaries": list(solution.boundaries),
        "strata": [
            {
                "N_h": report.size,
                "S2_h": report.variance,
                "n_h_frac": report.sample_fraction,
                "n_h": report.sample_size,
            }
            for report in solution.strata
        ],
        "variance": solution.variance,
        "cv": solution.cv,
        "unit_cost": solution.total_unit_cost,
        "elapsed_s": solution.elapsed,
        "oracle_checked": oracle_checked,
    }
    if cfg.neyman:
        payload["neyman"] = None if neyman is None else list(neyman)
    return json.dumps(payload, indent=2)


def emit_text(
    solution: StratificationSolution,
    cfg: RunConfig,
    oracle_checked: bool = False,
    neyman: tuple[float, ...] | None = None,
) -> str:
    """Human-readable report, CV to two decimals, each boundary as its
    shortest round-trip repr with a trailing ".0" dropped."""
    lines = [
        f"N           {solution.N}",
        f"|I|         {solution.K}",
        f"L           {len(solution.strata)}",
        f"n           {cfg.sample_size}",
        f"fpc         {'on' if cfg.fpc else 'off'}",
        f"CPU (s)     {solution.elapsed:.3f}",
        f"unit cost   {solution.total_unit_cost:.6g}",
        f"variance    {solution.variance:.6g}",
        f"CV (%)      {solution.cv:.2f}",
        "boundaries  "
        + (" ".join(repr(b).removesuffix(".0") for b in solution.boundaries) or "-"),
    ]
    if cfg.oracle_check:
        lines.append(f"oracle      {'agreed' if oracle_checked else 'skipped'}")

    table = [
        ["stratum"] + [str(h) for h in range(1, len(solution.strata) + 1)],
        ["Nh"] + [str(r.size) for r in solution.strata],
        ["nh"] + [str(r.sample_size) for r in solution.strata],
        ["nh exact"] + [f"{r.sample_fraction:.3f}" for r in solution.strata],
        ["S2h"] + [f"{r.variance:.4g}" for r in solution.strata],
    ]
    if cfg.neyman:
        if neyman is None:
            table.append(["nh neyman"] + ["-"] * len(solution.strata))
        else:
            table.append(["nh neyman"] + [f"{v:.3f}" for v in neyman])
    widths = [
        max(len(row[col]) for row in table) for col in range(len(table[0]))
    ]
    lines.append("")
    for row in table:
        label = row[0].ljust(widths[0])
        cells = "  ".join(
            cell.rjust(widths[col]) for col, cell in enumerate(row[1:], start=1)
        )
        lines.append(f"{label}  {cells}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """Parser whose namespace holds exactly the RunConfig fields, each
    default taken from RunConfig itself."""
    parser = argparse.ArgumentParser(
        prog="stratopt",
        description=(
            "Exact stratum boundaries over a sorted size variable, "
            "minimizing the variance of the estimated total under "
            "proportional allocation."
        ),
    )
    parser.set_defaults(**RunConfig._field_defaults)
    parser.add_argument("--input", dest="input_path", required=True, metavar="PATH", help="delimited text file with a header row")
    parser.add_argument("--x-col", metavar="NAME", help="size variable column (default: %(default)s)")
    parser.add_argument("--y-col", metavar="NAME", help="study variable column (default: reuse --x-col)")
    parser.add_argument("--strata", type=int, required=True, metavar="L", help="number of strata")
    parser.add_argument("--sample-size", type=int, required=True, metavar="n", help="total sample size")
    parser.add_argument("--no-fpc", dest="fpc", action="store_false", help="drop the without-replacement correction")
    parser.add_argument("--check-oracle", dest="oracle_check", action="store_true", help=(
        "certify by exhaustive enumeration that no feasible stratification scores lower "
        "on the same float cost table, ties going to the smallest node sequence; the "
        "costs themselves are not recomputed"))
    parser.add_argument("--oracle-cap", type=_cap, metavar="M", help="largest enumeration allowed (default: %(default)s)")
    parser.add_argument("--json", dest="output_format", action="store_const", const="json", help="emit JSON instead of text")
    parser.add_argument("--tab", dest="delimiter", action="store_const", const="\t", help="input is tab separated")
    parser.add_argument("--neyman", action="store_true", help="also report dispersion-weighted allocations")
    return parser


def _cap(text: str) -> int:
    """--oracle-cap's value: an int, read as argparse reads one, >= 0."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if cap < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {cap}")
    return cap


def main(argv: list[str] | None = None) -> int:
    return run(RunConfig(**vars(build_parser().parse_args(argv))))


def _neyman_or_none(
    solution: StratificationSolution, n: int
) -> tuple[float, ...] | None:
    try:
        return allocate_neyman(
            [r.size for r in solution.strata],
            [math.sqrt(r.variance) for r in solution.strata],
            n,
        )
    except DegenerateAllocationError as exc:
        print(f"warning: {exc}", file=sys.stderr)
        return None


def _discard_stdout() -> None:
    """Point stdout's descriptor at the null device after a failed write, so
    the interpreter's flush at exit does not fail again on the report still
    buffered and print a second error."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # not backed by a descriptor
        return
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, fd)
    finally:
        os.close(null)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

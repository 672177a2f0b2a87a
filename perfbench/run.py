"""Benchmark for stratopt: seeded workloads, every answer checked.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload skewed_yx --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py                # every workload, one after another

For one workload the script writes the seeded inputs to a scratch directory
under the repository root, times the set-up of a fresh interpreter, and runs
the workload in a fresh worker process (worker.py), so memory and set-up are
per workload. Every answer is compared with the committed reference in
reference/. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics. The exit code is 0 only when every attempted
instance gave the reference answer; without the stratopt sources next to this
directory it is 2 and no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from hostspeed import calibrate, scale  # noqa: E402
from workloads import POOL, SIZES, WORKLOADS, instances  # noqa: E402

WORKER_TIMEOUT_S = 160
SETUP_RUNS = 11
# a fresh interpreter imports stratopt and solves the nine-unit worked example
SETUP_SNIPPET = """
from stratopt import ProblemSpec, build_frequency_table, load_population, solve_problem
rows = ["x", "10", "2", "4", "8", "10", "4", "15", "10", "15"]
ft = build_frequency_table(load_population(rows))
print(solve_problem(ft, ProblemSpec(L=2, n=3, N=9)).boundaries)
"""
SETUP_ANSWER = "(4.0,)"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # the same set and dict layouts in every run
    return env


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    group = spec["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in group}


def load_reference(workload: str, size: str, seed: int) -> dict:
    path = HERE / "reference" / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))[size].get(str(seed % POOL), {})


def time_setup(runs: int) -> tuple[list[float], int]:
    """Seconds from a fresh interpreter to one tiny instance solved, per
    run and scaled to the reference host speed, and the number of runs that
    gave a wrong answer."""
    times = []
    failed = 0
    for _ in range(runs):
        before = calibrate()
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        elapsed = time.perf_counter() - start
        times.append(elapsed * scale(before, calibrate()))
        if done.returncode != 0 or done.stdout.strip() != SETUP_ANSWER:
            failed += 1
            sys.stderr.write(done.stderr)
    return times, failed


def run_workload(workload: str, seed: int, seconds: int, trace: int, size: str, scratch: Path):
    """One run of one workload; returns the result object, or None when the
    worker could not finish."""
    reference = load_reference(workload, size, seed)
    entries = []
    for index, inst in enumerate(instances(workload, seed, size)):
        path = scratch / f"{workload}-{index}.csv"
        path.write_text(inst.text, encoding="utf-8")
        entries.append(
            {
                "name": inst.name,
                "path": str(path),
                "y_col": inst.y_col,
                "L": inst.L,
                "n": inst.n,
                "digest": inst.digest,
                "ref": reference.get(inst.name),
            }
        )
    manifest = scratch / f"{workload}.json"
    manifest.write_text(
        json.dumps(
            {"workload": workload, "seconds": seconds, "trace": trace, "instances": entries}
        ),
        encoding="utf-8",
    )

    # set-up is timed half before and half after the worker, so that its
    # median does not rest on one moment of a shared host
    setup_times, failed = time_setup(0 if trace else SETUP_RUNS // 2)
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(manifest)],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"error: {workload} worker ran past {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"error: {workload} worker exited {done.returncode}", file=sys.stderr)
        return None
    worker = json.loads(done.stdout.splitlines()[-1])
    for error in worker["errors"]:
        print(f"mismatch: {error}", file=sys.stderr)
    metrics = dict(worker["metrics"])
    if not trace:
        after, failed_after = time_setup(SETUP_RUNS - len(setup_times))
        setup_times += after
        failed += failed_after
        metrics["setup_s"] = statistics.median(setup_times)
    return {
        "attempted": len(setup_times) + worker["attempted"],
        "failed": failed + worker["failed"],
        "passes": worker["passes"],
        "speed": worker["speed"],
        "metrics": metrics,
    }


def report(workload: str, seed: int, result: dict, units: dict[str, str]) -> dict:
    """Print one workload's figures with their units; return the result line."""
    print(
        f"== {workload}  seed {seed} (input set {seed % POOL} of {POOL})  "
        f"passes {result['passes']}  host speed {result['speed']:.3f} of reference"
    )
    for name, unit in units.items():
        print(f"  {name:28s} {result['metrics'][name]:14.6g} {unit}")
    share = result["failed"] / result["attempted"]
    print(f"  {'fail_rate':28s} {share:14.6g} share ({result['failed']} of {result['attempted']} attempted)")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full", help="toy: tiny inputs for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "stratopt" / "__init__.py").is_file():
        print(f"error: no stratopt sources under {SRC}", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    lines = {}
    try:
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, args.trace, args.size, scratch)
            if result is None:
                return 1
            lines[workload] = report(workload, args.seed, result, units)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with_others = any(base.iterdir())
        if not with_others:
            base.rmdir()

    if len(lines) == 1:
        line = next(iter(lines.values()))
    else:
        line = {
            "correct": all(item["correct"] for item in lines.values()),
            "attempted": sum(item["attempted"] for item in lines.values()),
            "failed": sum(item["failed"] for item in lines.values()),
            "metrics": {
                f"{workload}.{name}": value
                for workload, item in lines.items()
                for name, value in item["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

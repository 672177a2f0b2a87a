"""One measured run of one workload, in a fresh interpreter.

Usage: python3 worker.py MANIFEST

run.py writes the manifest (instances on disk, their reference answers, the
workload, the run length and the trace switch) and reads back the single JSON
object this prints on stdout.

Untraced (trace 0), each instance is handed to stratopt the way a user calls
it, in passes over the whole batch until the run length is used up, and the
end-to-end times are sums over the batch of each instance's median repeat,
scaled to a reference host speed (see hostspeed.py).
Traced (trace 1), each pass also runs the staged sequence solve_problem is
built from, with a timer around each public call, so the per-layer figures
come from the benchmark's own code and not from spans inside the program.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from hostspeed import calibrate, scale  # noqa: E402

import stratopt  # noqa: E402
from stratopt import (  # noqa: E402
    ProblemSpec,
    arc_counts,
    attach_costs,
    brute_force_solve,
    build_frequency_table,
    build_layered_graph,
    build_prefix_moments,
    count_solutions,
    load_population,
    path_to_solution,
    segment_stats,
    segment_stats_direct,
    solve,
    solve_problem,
    unit_cost,
)
from stratopt import cli  # noqa: E402
from stratopt.moments import exact_cost_units  # noqa: E402

# the tolerance of the command line's own oracle comparison
REL_TOL = 1e-9
MIN_PASSES = 3
# the stages of solve_problem, in call order
STAGES = (
    "moments.prefix_s",
    "graph.build_s",
    "graph.cost_s",
    "solver.dp_s",
    "solver.report_s",
)


class Instance:
    """A manifest entry with its spec and, once loaded, its table."""

    def __init__(self, entry: dict) -> None:
        self.name = entry["name"]
        self.path = entry["path"]
        self.y_col = entry["y_col"]
        self.L = entry["L"]
        self.n = entry["n"]
        self.digest = entry["digest"]
        self.ref = entry["ref"]
        self.ft = None
        self.spec = None

    def load(self):
        with open(self.path, newline="", encoding="utf-8") as handle:
            return load_population(handle, y_column=self.y_col)

    def table(self):
        if self.ft is None:
            self.ft = build_frequency_table(self.load())
            self.spec = ProblemSpec(L=self.L, n=self.n, N=self.ft.N)
        return self.ft, self.spec

    def argv(self) -> list[str]:
        argv = ["--input", self.path, "--strata", str(self.L)]
        argv += ["--sample-size", str(self.n), "--json"]
        if self.y_col is not None:
            argv += ["--y-col", self.y_col]
        return argv


def mismatch(inst: Instance, boundaries, variance, unit_cost_, nodes=None):
    """What differs from the committed reference, or None if nothing does."""
    ref = inst.ref
    if ref is None or inst.digest != ref["digest"]:
        return "input differs from the reference input"
    if nodes is not None and list(nodes) != ref["nodes"]:
        return f"nodes {list(nodes)} != reference {ref['nodes']}"
    if list(boundaries) != ref["boundaries"]:
        return f"boundaries {list(boundaries)} != reference {ref['boundaries']}"
    if not math.isclose(variance, ref["variance"], rel_tol=REL_TOL):
        return f"variance {variance!r} != reference {ref['variance']!r}"
    if not math.isclose(unit_cost_, ref["unit_cost"], rel_tol=REL_TOL):
        return f"unit cost {unit_cost_!r} != reference {ref['unit_cost']!r}"
    return None


def check_solution(inst: Instance, sol):
    return mismatch(inst, sol.boundaries, sol.variance, sol.total_unit_cost, sol.nodes)


# ---- the calls a user makes, one per workload -------------------------------


def solve_table(inst: Instance):
    ft, spec = inst.table()
    return check_solution(inst, solve_problem(ft, spec))


def solve_and_oracle(inst: Instance):
    ft, spec = inst.table()
    sol = solve_problem(ft, spec)
    reference = brute_force_solve(ft, spec)
    if reference.nodes != sol.nodes:
        return f"solver nodes {sol.nodes} != oracle nodes {reference.nodes}"
    return check_solution(inst, sol)


def run_cli(inst: Instance):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(inst.argv())
    if code != 0:
        return f"command line exited {code}"
    report = json.loads(out.getvalue())
    return mismatch(inst, report["boundaries"], report["variance"], report["unit_cost"])


USER_CALL = {
    "skewed_yx": solve_table,
    "random_y": solve_table,
    "csv_ingest": run_cli,
    "oracle_check": solve_and_oracle,
}


# ---- measurement ------------------------------------------------------------


def cpu_seconds() -> float:
    """User + system CPU of this process and of its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Run:
    """Attempt and failure counts and per-instance samples of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, dict[str, list[float]]] = {}
        self.speeds: list[float] = []

    def record(self, inst: Instance, metric: str, value: float) -> None:
        self.samples.setdefault(metric, {}).setdefault(inst.name, []).append(value)

    def outcome(self, inst: Instance, error) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{inst.name}: {error}")

    def batch_total(self, metric: str) -> float:
        """Sum over instances of each instance's median sample."""
        per_instance = self.samples.get(metric, {})
        return sum((statistics.median(v) for v in per_instance.values()), 0.0)

    def attempt(self, inst: Instance, call) -> tuple[float, float, float]:
        """Make one checked call with a fresh collector, between two
        calibration loops.

        Returns wall and CPU seconds scaled to the reference host speed, and
        the scale factor (see hostspeed).
        """
        gc.collect()
        before = calibrate()
        cpu = cpu_seconds()
        start = time.perf_counter()
        try:
            error = call(inst)
        except Exception as exc:  # every exception is a failed instance
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu
        speed = scale(before, calibrate())
        self.speeds.append(speed)
        self.outcome(inst, error)
        return wall * speed, cpu * speed, speed


def in_passes(instances, seconds: float, body) -> int:
    """Run body over every instance, pass after pass, until another pass would
    overrun the run length; at least MIN_PASSES passes."""
    start = time.perf_counter()
    passes = 0
    while True:
        begun = time.perf_counter()
        for inst in instances:
            body(inst)
        passes += 1
        now = time.perf_counter()
        if passes >= MIN_PASSES and (now - start) + (now - begun) > seconds:
            return passes


def load_inputs(workload: str, instances) -> None:
    """Read every table before timing; the command line reads its own."""
    if workload != "csv_ingest":
        for inst in instances:
            inst.table()


def untraced(workload: str, instances, seconds: float) -> tuple[Run, int, dict]:
    run = Run()
    call = USER_CALL[workload]
    load_inputs(workload, instances)

    def body(inst):
        wall, cpu, _ = run.attempt(inst, call)
        run.record(inst, "wall_s", wall)
        run.record(inst, "cpu_s", cpu)

    passes = in_passes(instances, seconds, body)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return run, passes, {
        "wall_s": run.batch_total("wall_s"),
        "cpu_s": run.batch_total("cpu_s"),
        "peak_rss_mb": peak_kib / 1024.0,
    }


# the first timed call of the user's path through each workload; the traced
# run times the path from there to its last call as one span
PATH_START = {
    "skewed_yx": "moments.prefix_s",
    "random_y": "moments.prefix_s",
    "csv_ingest": "population.load_s",
    "oracle_check": "moments.prefix_s",
}
PER_LAYER_TIMES = (
    "population.load_s",
    "population.tabulate_s",
    *STAGES,
    "solver.solve_problem_s",
    "oracle.brute_force_s",
    "cli.run_s",
    "cli.emit_s",
)


def staged(workload: str, inst: Instance, times: dict[str, float]):
    """solve_problem's own sequence with one timed public call per stage,
    then the workload's other calls; returns what differs from the expected.

    times gets one entry per call, and "traced_s", the span of the user's
    path (PATH_START to its last call, the freeing of the graph included)."""
    starts: dict[str, float] = {}

    def timer(name, fn, *args):
        starts[name] = time.perf_counter()
        result = fn(*args)
        times[name] = time.perf_counter() - starts[name]
        return result

    population = timer("population.load_s", inst.load)
    ft = timer("population.tabulate_s", build_frequency_table, population)
    spec = ProblemSpec(L=inst.L, n=inst.n, N=ft.N)
    pm = timer("moments.prefix_s", build_prefix_moments, ft)
    graph = timer("graph.build_s", build_layered_graph, ft.K, inst.L)
    graph = timer("graph.cost_s", attach_costs, graph, pm)
    path = timer("solver.dp_s", solve, graph)
    sol = timer("solver.report_s", path_to_solution, path, pm, ft, spec)
    errors = [check_solution(inst, sol)]
    if workload == "oracle_check":
        reference = timer("oracle.brute_force_s", brute_force_solve, ft, spec)
        if reference.nodes != sol.nodes:
            errors.append(f"oracle nodes {reference.nodes} != solver nodes {sol.nodes}")
    cfg = cli.RunConfig(
        input_path=inst.path,
        strata=inst.L,
        sample_size=inst.n,
        y_col=inst.y_col,
        output_format="json",
    )
    if workload == "csv_ingest":
        timer("cli.emit_s", cli.emit_json, sol, cfg)
    del population, graph
    times["traced_s"] = time.perf_counter() - starts[PATH_START[workload]]

    whole = timer("solver.solve_problem_s", solve_problem, ft, spec)
    if whole.nodes != sol.nodes:
        errors.append(f"staged nodes {sol.nodes} != solve_problem nodes {whole.nodes}")
    if workload == "csv_ingest":
        with contextlib.redirect_stdout(io.StringIO()):
            code = timer("cli.run_s", cli.run, cfg)
        if code != 0:
            errors.append(f"command line exited {code}")
    return next((error for error in errors if error is not None), None)


class Work:
    """Work counts of one pass and the allocation peak of graph build plus
    costing, taken from outside the program in an untimed pass."""

    def __init__(self) -> None:
        self.counts = dict.fromkeys(
            (
                "population.rows",
                "population.K",
                "graph.arcs",
                "graph.distinct_segments",
                "oracle.evaluations",
            ),
            0,
        )
        self.unit_bits = 0
        self.self_check_gap = 0.0
        self.alloc_peak = 0

    def add(self, workload: str, inst: Instance) -> None:
        population = inst.load()
        ft = build_frequency_table(population)
        spec = ProblemSpec(L=inst.L, n=inst.n, N=ft.N)
        pm = build_prefix_moments(ft)
        gc.collect()
        tracemalloc.start()
        graph = attach_costs(build_layered_graph(ft.K, inst.L), pm)
        self.alloc_peak = max(self.alloc_peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        sol = path_to_solution(solve(graph), pm, ft, spec)

        self.counts["population.rows"] += population.N
        self.counts["population.K"] += ft.K
        self.counts["graph.arcs"] += arc_counts(ft.K, inst.L)[3]
        segments = {(arc.tail, arc.head) for layer in graph.layers for arc in layer}
        self.counts["graph.distinct_segments"] += len(segments)
        for layer in graph.layers:
            for arc in layer:
                bits = exact_cost_units(arc.cost).bit_length()
                self.unit_bits = max(self.unit_bits, bits)
        for i, j in zip(sol.nodes, sol.nodes[1:]):
            fast = unit_cost(segment_stats(pm, i, j))
            slow = unit_cost(segment_stats_direct(ft, i, j))
            larger = max(abs(fast), abs(slow))
            if larger > 0.0:
                self.self_check_gap = max(self.self_check_gap, abs(fast - slow) / larger)
        if workload == "oracle_check":
            self.counts["oracle.evaluations"] += count_solutions(ft.K, inst.L)


def traced(workload: str, instances, seconds: float) -> tuple[Run, int, dict]:
    run = Run()
    call = USER_CALL[workload]
    load_inputs(workload, instances)

    def body(inst: Instance):
        wall, _, _ = run.attempt(inst, call)
        run.record(inst, "untraced_s", wall)
        times: dict[str, float] = {}
        _, _, speed = run.attempt(inst, lambda inst: staged(workload, inst, times))
        for name, value in times.items():
            run.record(inst, name, value * speed)

    passes = in_passes(instances, seconds, body)
    work = Work()
    for inst in instances:
        work.add(workload, inst)

    layer = {name: run.batch_total(name) for name in PER_LAYER_TIMES}
    layer.update({name: float(value) for name, value in work.counts.items()})
    layer["graph.segment_reuse"] = (
        work.counts["graph.distinct_segments"] / work.counts["graph.arcs"]
    )
    layer["graph.alloc_peak_mb"] = work.alloc_peak / 2**20
    layer["solver.unit_bits"] = float(work.unit_bits)
    layer["solver.self_check_gap"] = work.self_check_gap
    layer["solver.unstaged_s"] = layer["solver.solve_problem_s"] - sum(
        layer[name] for name in STAGES
    )
    brute = layer["oracle.brute_force_s"]
    evaluations = work.counts["oracle.evaluations"]
    layer["oracle.evaluations_per_s"] = evaluations / brute if brute > 0.0 else 0.0
    layer["trace.overhead_s"] = run.batch_total("traced_s") - run.batch_total("untraced_s")
    return run, passes, layer


def main() -> int:
    manifest = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    if Path(stratopt.__file__).resolve().parent != SRC / "stratopt":
        print(f"error: stratopt imported from {stratopt.__file__}", file=sys.stderr)
        return 2
    instances = [Instance(entry) for entry in manifest["instances"]]
    measure = traced if manifest["trace"] else untraced
    run, passes, metrics = measure(manifest["workload"], instances, manifest["seconds"])
    result = {
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "passes": passes,
        "speed": statistics.median(run.speeds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The core package stays standard-library only, the tests need only
pytest besides it, a problem is judged valid in one place, only the
solver names its kept outcome, importing the package loads neither
dataclasses nor the oracle, and the command line loads the oracle only
to run it."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from helpers import DESK_CSV

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "stratopt").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def outside_imports(paths, allowed=frozenset()):
    """(file, line, module) of every absolute import in paths whose top
    level is neither a standard-library module nor in allowed."""
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                (path.name, node.lineno, name)
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names | allowed
            ]
    return outside


def test_core_imports_only_the_standard_library():
    """Every absolute import in src/stratopt names a standard-library
    module at its top level; relative imports stay inside the package."""
    assert SOURCES
    assert outside_imports(SOURCES) == []


def test_tests_import_only_pytest_and_the_project():
    """Every absolute import in tests/ names a standard-library module,
    pytest, stratopt or the tests' own helpers."""
    assert TESTS
    assert outside_imports(TESTS, frozenset({"pytest", "stratopt", "helpers"})) == []


def raise_sites(paths, names):
    """(file, function) of every raise of an exception named in names,
    function being the innermost def around it."""
    sites = set()

    def visit(node, path, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) in names:
                sites.add((path.name, function))
        for child in ast.iter_child_nodes(node):
            visit(child, path, function)

    for path in paths:
        visit(ast.parse(path.read_text(), filename=str(path)), path, None)
    return sites


def test_invalid_problems_are_rejected_in_four_places():
    """A spec is checked on its own when built, against its table once
    before any work, and by the allocation its report makes; nothing else
    raises InvalidSpecError or InfeasibleProblemError."""
    assert raise_sites(SOURCES, {"InvalidSpecError", "InfeasibleProblemError"}) == {
        ("moments.py", "__new__"),
        ("graph.py", "check_feasible"),
        ("solver.py", "check_problem"),
        ("moments.py", "allocate_proportional"),
    }


def names_in(path):
    """Every name path imports, binds, reads or takes as an attribute,
    with the last part of each imported name and each alias."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.alias):
            names |= {node.name.rpartition(".")[2], node.asname}
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_the_oracle_shares_no_search_with_the_solver():
    """The oracle certifies the solver's answers only as long as it finds
    its own: oracle.py neither imports nor names the solver's search,
    _cheapest_path, solve_problem or solve, under any alias."""
    names = names_in(ROOT / "src" / "stratopt" / "oracle.py")
    assert {"check_problem", "_report"} <= names
    assert names & {"_cheapest_path", "solve_problem", "solve"} == set()


def test_only_the_solver_names_its_kept_outcome():
    """The solver alone reads or writes _kept, the slot holding the last
    solve's outcome, and decides when a check may take it: no other module
    of the package imports or names it, under any alias."""
    assert [path.name for path in SOURCES if "_kept" in names_in(path)] == ["solver.py"]


COLD_IMPORT = """
import json, sys
import stratopt
seen = {"dataclasses": "dataclasses" in sys.modules, "oracle": "stratopt.oracle" in sys.modules}
lazy = stratopt.brute_force_solve
import stratopt.oracle
seen["lazy_is_oracle"] = lazy is stratopt.oracle.brute_force_solve
import stratopt.cli
seen["cli_dataclasses"] = "dataclasses" in sys.modules
try:
    stratopt.no_such_name
except AttributeError as exc:
    seen["unknown"] = str(exc)
print(json.dumps(seen))
"""

STAR_IMPORT = """
import json
import stratopt
namespace = {}
exec("from stratopt import *", namespace)
print(json.dumps(
    [name for name in stratopt.__all__ if namespace.get(name) is not getattr(stratopt, name)]
))
"""


CLI_ONLY = """
import contextlib, io, json, sys
import stratopt.cli
seen = {"oracle": "stratopt.oracle" in sys.modules}
report = io.StringIO()
with contextlib.redirect_stdout(report):
    seen["code"] = stratopt.cli.main(sys.argv[1:])
seen["oracle_checked"] = json.loads(report.getvalue())["oracle_checked"]
print(json.dumps(seen))
"""


def fresh_interpreter(code, *args):
    """What code prints, as JSON, run with args by a fresh interpreter that
    reads the package from src/ and compiles it without writing bytecode."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_loads_neither_dataclasses_nor_the_oracle():
    """import stratopt leaves dataclasses and the oracle unloaded, and the
    command line leaves dataclasses unloaded; an oracle name loads the
    oracle module on first access, and an unknown name is still an
    AttributeError that names it."""
    assert fresh_interpreter(COLD_IMPORT) == {
        "dataclasses": False,
        "oracle": False,
        "lazy_is_oracle": True,
        "cli_dataclasses": False,
        "unknown": "module 'stratopt' has no attribute 'no_such_name'",
    }


def test_the_command_line_loads_the_oracle_only_to_check(tmp_path):
    """import stratopt.cli leaves the oracle unloaded, and a --check-oracle
    run from that interpreter still loads it and reports oracle_checked."""
    path = tmp_path / "sizes.csv"
    path.write_text(DESK_CSV)
    args = ["--input", str(path), "--strata", "2", "--sample-size", "3", "--check-oracle", "--json"]
    assert fresh_interpreter(CLI_ONLY, *args) == {
        "oracle": False,
        "code": 0,
        "oracle_checked": True,
    }


def test_star_import_binds_every_public_name():
    """from stratopt import * binds each name in __all__, the lazily loaded
    oracle names too, to the package's own object."""
    assert fresh_interpreter(STAR_IMPORT) == []

"""Golden record: the whole report of 60 seeded runs, pinned by digest.

The inputs come from randint, random(), uniform and power-of-two scalings
only, so no digest depends on the platform's exp or log. A change that
moves any reported figure by one bit fails here and names the instance.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import tempfile
from pathlib import Path

import pytest

from stratopt import cli, count_solutions

from helpers import tie_heavy_pairs

GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"

# the largest enumeration a golden run hands to --check-oracle
ORACLE_LIMIT = 200_000


def golden_instances():
    """(name, CSV text, arguments after --input) of each seeded run.

    L cycles through 1-6. The y values are tie-heavy draws from {1, 2},
    uniform draws, or integers plus random() draws all scaled by one 2^e;
    an instance without a y column solves on x itself.
    """
    rng = random.Random(20261018)
    instances = []
    for index in range(60):
        L = index % 6 + 1
        K = rng.randint(2 * L, 2 * L + 30)
        kind = ("ties", "uniform", "pow2", "x-only")[index % 4]
        if kind == "ties":
            pairs = tie_heavy_pairs(rng, K)
        else:
            scale = rng.randint(-60, 60)
            pairs = []
            x = 0.0
            for _ in range(K):
                x += rng.randint(1, 5)
                for _ in range(rng.randint(1, 3)):
                    if kind == "uniform":
                        y = rng.uniform(-20.0, 100.0)
                    else:
                        y = math.ldexp(rng.randint(1, 99) + rng.random(), scale)
                    pairs.append((x, y))
        if kind == "x-only":
            text = "x\n" + "".join(f"{x!r}\n" for x, _ in pairs)
            args = []
        else:
            text = "x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in pairs)
            args = ["--y-col", "y"]
        args += ["--strata", str(L), "--sample-size", str(rng.randint(1, len(pairs)))]
        if rng.random() < 0.3:
            args.append("--no-fpc")
        if rng.random() < 0.3:
            args.append("--neyman")
        if count_solutions(K, L) <= ORACLE_LIMIT:
            args.append("--check-oracle")
        instances.append((f"{index:02d}-{kind}-K{K}-L{L}", text, args))
    return instances


INSTANCES = golden_instances()


def report_digests(text, args, directory):
    """sha256 of the JSON report without elapsed_s and of the text report
    without its CPU (s) line, for one run on the CSV text."""
    path = Path(directory) / "golden.csv"
    path.write_text(text)
    digests = {}
    for fmt, extra, timed in (
        ("json", ["--json"], '  "elapsed_s": '),
        ("text", [], "CPU (s)"),
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["--input", str(path), *args, *extra])
        assert code == 0, f"{fmt} run exited {code}"
        report = "\n".join(
            line for line in out.getvalue().splitlines() if not line.startswith(timed)
        )
        digests[fmt] = hashlib.sha256(report.encode()).hexdigest()
    return digests


def all_digests():
    """Digests of every golden instance, keyed by its name."""
    with tempfile.TemporaryDirectory() as directory:
        return {
            name: report_digests(text, args, directory)
            for name, text, args in INSTANCES
        }


@pytest.mark.parametrize(
    "name,text,args", INSTANCES, ids=[name for name, _, _ in INSTANCES]
)
def test_report_matches_the_golden_digest(name, text, args, tmp_path):
    """The run's JSON and text reports, less their timings, hash to the
    recorded digests. A deliberate change of output regenerates them, and
    CHANGES.md says why:

        cd tests && PYTHONPATH=../src python -c "import json, test_golden; \\
            print(json.dumps(test_golden.all_digests(), indent=1))" \\
            > golden_reports.json
    """
    golden = json.loads(GOLDEN.read_text())
    assert report_digests(text, args, tmp_path) == golden[name], name

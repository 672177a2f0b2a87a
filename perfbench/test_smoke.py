"""Smoke test of the benchmark itself at toy size.

Run from the root of the repository:

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, instances  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run_prints_every_metric_and_no_failure(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--size", "toy")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], float)
        assert any(line.split()[:1] == [metric["name"]] for line in lines[:-1])
    fail_rate = [line.split() for line in lines if line.split()[:1] == ["fail_rate"]]
    assert fail_rate and float(fail_rate[0][1]) == 0.0


def test_same_seed_same_inputs_and_acceptance_instance():
    for workload in WORKLOADS:
        first = instances(workload, 7, "toy")
        assert first == instances(workload, 7, "toy")
    from stratopt import build_frequency_table, load_population

    (acceptance,) = [i for i in instances("skewed_yx", 7) if i.name.endswith("acceptance")]
    ft = build_frequency_table(load_population(io.StringIO(acceptance.text)))
    assert (ft.N, ft.K, acceptance.L, acceptance.n) == (900, 272, 5, 100)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "skewed_yx", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""

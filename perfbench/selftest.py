"""Self-test of the benchmark (about two minutes on two cores).

    python3 -m pytest perfbench/selftest.py -q

Kept out of the package's own test run (pytest collects only test_*.py
files): it runs the benchmark end to end several times.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SEED = 3
COUNTERS = (
    "structure.delay_solves", "structure.delay_flops", "structure.search_solves",
    "structure.search_flops", "structure.candidates", "structure.regressor_builds",
    "structure.augment_calls", "structure.augment_rejected", "estimate.rls_rows",
    "validate.predicted_samples", "persistence.bytes_read", "persistence.bytes_written",
)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def summary(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def printed_units(proc: subprocess.CompletedProcess) -> dict[str, str]:
    """name -> unit from the 'name = value unit (direction)' lines."""
    units = {}
    for line in proc.stdout.splitlines():
        if " = " in line and line.endswith(")"):
            name, rest = line.split(" = ", 1)
            units[name] = rest.split()[1]
    return units


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload, busy", [
    ("paper-budget", "structure.delay_solves"),
    ("fixed-rls", "estimate.rls_rows"),
])
def test_counters_repeat_across_traced_runs(workload, busy):
    first, second = (bench("--workload", workload, "--seed", str(SEED),
                           "--seconds", "1", "--trace", "1") for _ in range(2))
    a, b = summary(first), summary(second)
    assert a["correct"] and b["correct"]
    assert set(a["metrics"]) == set(run.PER_LAYER)
    for name in COUNTERS:
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"], name
    assert a["metrics"][busy]["value"] > 0
    assert printed_units(first) == run.PER_LAYER
    for name, m in a["metrics"].items():
        assert m["unit"] == run.PER_LAYER[name]


def test_every_end_to_end_metric_is_printed_with_its_unit():
    proc = bench("--workload", "fixed-rls", "--seed", str(SEED), "--seconds", "1", "--trace", "0")
    result = summary(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: unit for k, (unit, _) in run.END_TO_END.items()}
    assert printed_units(proc) == {k: unit for k, (unit, _) in run.END_TO_END.items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "paper-budget", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()

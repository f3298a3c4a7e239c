"""Self-test of the benchmark: every workload at a tiny size, in both modes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, capsys):
    assert run.main(["--workload", workload, "--seconds", "0", "--trace", str(trace), "--tiny"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
    for name, unit in listed.items():
        assert any(line.split()[0] == name and line.endswith(" " + unit) for line in lines[:-1]), name
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_wrong_committed_checksum_makes_fail_frac_positive(workload):
    expected = json.loads(run.EXPECTED.read_text())
    assert run.run(workload, 42, 0, True, tiny=True, expected=expected)["fail_frac"] == 0
    checksum = expected["tiny"][workload]["checksum"]
    checksum[sorted(checksum)[0]] = "wrong"
    record = run.run(workload, 42, 0, True, tiny=True, expected=expected)
    assert record["fail_frac"] > 0
    assert record["mismatches"]


def test_ga_long_check_rejects_inconsistent_output():
    target = workloads.TruthTable.parse(workloads.MAJ3)
    argv = ["evolve", "--target", workloads.MAJ3, "--gates", "6", "--seed", "51",
            "--max-gen", "5000", "--trace"]
    code, out, err = workloads._run_cli(argv, lambda fn, *a: fn(*a))
    gens = workloads.GaLong._check(code, out, err, 5000, target)
    assert code == 0 and gens is not None
    lines = err.splitlines()
    assert workloads.GaLong._check(code, out, "\n".join(lines[:-1]) + "\n", 5000, target) is None
    wrong = out.replace('"index": 0', '"index": 1', 1)
    assert workloads.GaLong._check(code, wrong, err, 5000, target) is None


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

"""Smoke test of the benchmark at small sizes; runs in about a minute.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload, trace, cwd=ROOT, smoke=True):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0",
           "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _check(done, kind):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 5
    assert record["error_rate"] == 0
    assert re.search(r"^error_rate\s+0\s+1$", done.stdout, re.M)
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert isinstance(result["metrics"][name]["value"], float)
        line = rf"^{re.escape(name)}\s+\S+\s+{re.escape(unit)}$"
        assert re.search(line, done.stdout, re.M), name
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy",
                "git_commit", "trace"):
        assert key in record["env"]
    assert record["env"]["trace"] is (kind == "per_layer")
    return record


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload):
    plain = _check(_run(workload, 0), "end_to_end")
    traced = _check(_run(workload, 1), "per_layer")
    assert plain["metrics"]["setup_s"]["value"] > 0
    assert traced["samples"]["traced_ops"] >= 2
    # same seed, same code: identical outputs, with or without tracing
    assert None not in plain["op_digests"]
    assert plain["digest"] == traced["digest"]


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path, smoke=False)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

"""Self-test of the benchmark at smoke size.

Run with ``python3 -m pytest benchmarks/suite`` (the repository's own
test suite does not collect it).  For each workload, an untraced and a
traced run at smoke size must

* emit every metric BENCHMARK.json names, with its unit,
* produce the same outputs digest, and
* write nothing outside their output directory.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _files():
    """Every file under the checkout except byte-code caches."""
    return {path: path.stat().st_mtime_ns for path in ROOT.rglob("*")
            if path.is_file() and "__pycache__" not in path.parts
            and ".git" not in path.parts}


def _run(workload, trace, out):
    done = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--out", str(out), "--smoke"],
        stdout=subprocess.PIPE, text=True, timeout=170, cwd=ROOT)
    assert done.returncode == 0, done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    record = json.loads((out / ("%s-seed7-trace%d.json"
                                % (workload, trace))).read_text())
    return result["metrics"], record["digest"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_at_smoke_size(workload, tmp_path):
    before = _files()
    plain, plain_digest = _run(workload, 0, tmp_path)
    traced, traced_digest = _run(workload, 1, tmp_path)
    for metrics, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {name: m["unit"] for name, m in metrics.items()} == expected
        assert all(isinstance(m["value"], (int, float))
                   for m in metrics.values())
    assert all(plain[m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    assert plain_digest == traced_digest
    assert _files() == before

"""Smoke self-test of the benchmark.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs at a tiny size (``--smoke``: one-item run lists,
one set-up, one second), untraced and traced.  Every named metric must
appear with its unit, no operation may fail, and ``BENCHMARK.json``
must list exactly the metrics the code reports.
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
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inproc  # noqa: E402
import run as bench  # noqa: E402
from tracing import PER_LAYER  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "1",
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--trace", str(trace),
                "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert any("error_rate=0.0000" in line for line in lines)
    assert lines[0].startswith("host: ")
    want = dict(PER_LAYER if trace else bench.END_TO_END)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_benchmark_json_lists_what_the_code_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        list(PER_LAYER)


def test_references_cover_the_sampled_run_list():
    refs = inproc.load_references()
    labels = {item.run_label for item in inproc.run_list("sampled")}
    assert labels == set(refs["sampled_full"])


def test_accuracy_without_a_reference_is_unavailable():
    item = inproc.run_list("sampled")[0]
    s = inproc.Setup([item], {}, {}, 0.0, {}, {})
    assert inproc.accuracy(s, [(item, None, None)]) is None


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "detail-vca")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

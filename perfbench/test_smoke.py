"""Smoke test of the benchmark on toy inputs (``--scale tiny``).

It checks that every metric BENCHMARK.json names is emitted with its unit,
that the span tree of the traced run is well-formed, and that the benchmark
fails without printing a result when there is no program to measure. Run
from the root of the repository (about a minute):

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

sys.path.insert(0, str(Path(__file__).resolve().parent))
import hostspeed  # noqa: E402
from spans import read_spans  # noqa: E402


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(workload: str, trace: int) -> dict:
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload):
    metrics = _result(workload, 0)["metrics"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_span_tree(workload):
    metrics = _result(workload, 1)["metrics"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected

    rows = read_spans(ROOT / ".perfbench" / f"spans-{workload}-seed7.tsv")
    assert len(rows) == metrics["trace.spans"]["value"]
    assert len({r["run_id"] for r in rows}) == 1
    by_id = {r["span_id"]: r for r in rows}
    assert len(by_id) == len(rows)
    for r in rows:
        assert r["start_s"] <= r["end_s"]
        if r["parent_id"] == 0:
            assert r["thread"] == "main" and r["name"].startswith("cli."), r
            continue
        parent = by_id[r["parent_id"]]
        assert parent["start_s"] <= r["start_s"] and r["end_s"] <= parent["end_s"], (parent, r)
        if r["thread"] != parent["thread"]:
            # a worker thread's outermost span sits directly under distill
            assert parent["name"] == "distill.distill", (parent, r)

    workers = [r for r in rows if r["thread"] != "main"]
    if workload == "pool-large":  # distill runs with two workers there
        assert {r["name"] for r in workers} >= {"distill.window_rerank", "distill.teacher"}
        assert metrics["distill.resume_new_labels"]["value"] == 0


def test_host_speed_rescaling():
    """Samples every 50 ms, each taking 3 ms of wall time; the kernel runs
    at reference speed for 4 s, then at half speed."""
    sampler = hostspeed.Sampler()
    ref = hostspeed.REFERENCE_S
    sampler.samples = [(0.05 * i, 0.003, ref if i < 80 else 2 * ref) for i in range(160)]
    fast = sampler.normalize(0.0, 4.0)
    assert fast["raw_s"] == pytest.approx(4.0 - 80 * 0.003)
    assert fast["s"] == pytest.approx(fast["raw_s"]) and fast["speed"] == pytest.approx(1.0)
    slow = sampler.normalize(4.0, 8.0)
    assert slow["s"] == pytest.approx(slow["raw_s"] / 2)
    both = sampler.normalize(0.0, 8.0)  # each 2 s piece keeps its own speed
    assert both["s"] == pytest.approx(fast["s"] + slow["s"])
    short = sampler.normalize(1.0, 1.2)  # too few samples: the whole process's median
    assert short["samples"] == 4
    assert short["s"] == pytest.approx(short["raw_s"] * ref / (1.5 * ref))


def test_fails_without_a_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()

"""The distilrank benchmark: seeded workloads run through the real CLI.

Run from the root of the repository:

    python3 perfbench/run.py --workload pipeline-small --seed 7 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 7

Every set-up probe and every iteration is a fresh Python process
(perfbench/worker.py) that calls ``distilrank.cli.dispatch`` for each stage,
one stage after another: a closed loop with one caller. With ``--trace 0``
the run makes two set-up probes, then iterations until the next one would
end after ``--seconds``, and reports medians of the end-to-end metrics. With
``--trace 1`` it runs one untraced and one traced iteration and reports the
per-layer metrics and the tracing overhead. The last line of standard output
is one JSON object: correct, attempted, failed and metrics.

Exit status: 0 when every output check passed, 1 when one failed, 2 when the
benchmark itself could not run (for example, no program to measure).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import spans  # noqa: E402 - perfbench/ is not a package

WORKLOADS = ("pipeline-small", "pool-large", "ablate-grid")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB"))
UNITS = dict(END_TO_END) | dict(spans.per_layer_names())
# Stage metrics, printed on the workloads where the stage does about a second
# or more of work; elsewhere the stage counts only toward wall_s.
STAGE_METRICS = {
    "pipeline-small": ("training", "evaluation"),
    "pool-large": ("pooling", "labeling", "resume"),
    "ablate-grid": ("ablation",),
}
SETUP_PROBES = 2
RECORDED_DIGESTS = HERE / "digests.json"
PROCESS_TIMEOUT_S = 170.0


class BenchmarkError(Exception):
    """The benchmark could not measure (as opposed to a failed output check)."""


def spawn(workload: str, seed: int, scale: str, mode: str, work: Path, index: int,
          deadline: float, reference: bool) -> dict:
    """Run one worker process to completion and return its result."""
    scratch = work / f"{workload}-seed{seed}-{mode}{index}"
    shutil.rmtree(scratch, ignore_errors=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--scale", scale, "--mode", mode, "--dir", str(scratch),
           "--reference", str(int(reference))]
    if mode == "trace":
        cmd += ["--spans", str(work.parent / f"spans-{workload}-seed{seed}.tsv")]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError(f"{workload} {mode} process timed out") from None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} {mode} process exited {proc.returncode}:\n{err[-4000:]}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.monotonic() - t0
    if result.get("problems") and err:
        result["stderr"] = err[-2000:]
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    """All processes of one run of one workload, aggregated."""
    work = Path(".perfbench") / "work"
    work.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + PROCESS_TIMEOUT_S
    processes = []
    if trace:
        processes.append(spawn(workload, seed, scale, "run", work, 0, deadline, False))
        processes.append(spawn(workload, seed, scale, "trace", work, 0, deadline, False))
    else:
        for i in range(SETUP_PROBES):
            processes.append(spawn(workload, seed, scale, "setup", work, i, deadline, True))
        spent = 0.0
        while True:
            iteration = spawn(workload, seed, scale, "run", work, len(processes), deadline, True)
            processes.append(iteration)
            spent += iteration["elapsed_s"]
            if iteration.get("problems") or spent + iteration["elapsed_s"] > seconds:
                break
    return {"workload": workload, "seed": seed, "scale": scale, "trace": trace,
            "processes": processes}


def summarize(run: dict) -> dict:
    """Medians, checks and digests of one run."""
    processes = run["processes"]
    iterations = [p for p in processes if p["mode"] in ("run", "trace") and "wall_s" in p]
    untraced = [p for p in iterations if p["mode"] == "run"]
    problems = [f"{p['mode']}: {msg}" for p in processes for msg in p.get("problems", [])]
    digests = [p.get("digests", {}) for p in iterations]
    if any(d != digests[0] for d in digests):
        problems.append("outputs differ between iterations of the same seed")
    summary = {
        "workload": run["workload"],
        "seed": run["seed"],
        "scale": run["scale"],
        "iterations": len(untraced),
        "setups": sum(1 for p in processes if "setup_s" in p and p["mode"] != "trace"),
        "problems": problems,
        "attempted": sum(p.get("attempted", 0) for p in processes),
        "failed": sum(p.get("failed", 0) for p in processes),
        "digests": digests[0] if digests else {},
        "env": iterations[0]["env"] if iterations else {},
    }
    summary["correct"] = not problems and summary["failed"] == 0 and bool(iterations)
    if not run["trace"]:
        setups = [p["setup_s"] for p in processes if "setup_s" in p]
        summary["metrics"] = {}
        summary["stage_metrics"], summary["quality"], summary["stage_s"] = {}, {}, {}
        summary["as_measured"] = {}
        if untraced:
            summary["metrics"] = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(p["wall_s"] for p in untraced),
                "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
            }
            summary["stage_metrics"] = {
                f"{group}_s": statistics.median(
                    sum(s["s"] for s in p["stages"] if s["group"] == group) for p in untraced)
                for group in STAGE_METRICS[run["workload"]]
            }
            summary["as_measured"] = {
                "setup_s": statistics.median(p["setup_raw_s"] for p in processes if "setup_s" in p),
                "wall_s": statistics.median(p["wall_raw_s"] for p in untraced),
            }
            summary["quality"] = untraced[-1]["quality"]
            summary["stage_s"] = {
                s["name"]: statistics.median(
                    p["stages"][i]["s"] for p in untraced if i < len(p["stages"]))
                for i, s in enumerate(untraced[0]["stages"])
            }
    else:
        traced = next((p for p in iterations if p["mode"] == "trace"), None)
        per_layer = dict(traced["per_layer"]) if traced else {}
        if traced and untraced:
            wall, base = traced["wall_s"], untraced[0]["wall_s"]
            per_layer.update({
                "trace.wall_s": wall,
                "trace.untraced_wall_s": base,
                "trace.overhead_s": wall - base,
                "trace.overhead_ratio": (wall - base) / base,
                "trace.spans": float(traced["spans"]),
            })
        summary["metrics"] = per_layer
    return summary


def compare_digests(workload: str, seed: int, scale: str, digests: dict) -> str:
    """Compare output digests with those recorded in digests.json; a change
    is reported, not failed, since a later change may alter behaviour on purpose."""
    if scale != "full":
        return "recorded at full scale only"
    try:
        recorded = json.loads(RECORDED_DIGESTS.read_text(encoding="utf-8"))[workload][str(seed)]
    except (OSError, KeyError, ValueError):
        return "none recorded for this seed"
    changed = sorted(k for k in recorded.keys() | digests.keys() if recorded.get(k) != digests.get(k))
    return "changed: " + ", ".join(changed) if changed else "same as recorded"


def report(summary: dict, trace: bool) -> list[str]:
    """Human-readable lines: every metric by name with its unit, ratios with
    their base, the checks, digests and environment."""
    w = summary["workload"]
    lines = [f"== {w} seed {summary['seed']}: {summary['iterations']} untraced iteration(s), "
             f"{summary['setups']} set-up(s); operations {summary['attempted']} attempted, "
             f"{summary['failed']} failed"]
    failed_ratio = summary["failed"] / summary["attempted"] if summary["attempted"] else 0.0
    lines.append(f"  failed_ratio        {failed_ratio:.6f}  ({summary['failed']} failed "
                 f"/ {summary['attempted']} attempted operations)")
    if not trace:
        for name, value in summary["metrics"].items():
            lines.append(f"  {name:<20s}{value:.6f} {UNITS[name]}")
        for name, value in summary["stage_metrics"].items():
            lines.append(f"  {name:<20s}{value:.6f} s")
        q = summary["quality"]
        if "ndcg10_lift" in q:
            lines.append(f"  ndcg10_lift         {q['ndcg10_lift']:.6f}  (student "
                         f"{q['ndcg10_student']:.6f} - bm25 {q['ndcg10_bm25']:.6f}, gate 0.05)")
        if "grid_ndcg10_mean" in q:
            lines.append(f"  grid_ndcg10_mean    {q['grid_ndcg10_mean']:.6f}  (over 90 cells)")
        for name, value in summary["as_measured"].items():
            lines.append(f"  {name:<20s}{value:.6f} s as measured, before rescaling to reference "
                         f"speed (host at {summary['metrics'][name] / value:.3f}x reference)")
        lines.append("  stages (median s at reference speed): " + ", ".join(
            f"{k} {v:.3f}" for k, v in summary["stage_s"].items()))
    else:
        m = summary["metrics"]
        for name, value in m.items():
            lines.append(f"  {name:<48s}{value:.6f} {UNITS[name]}")
        if "trace.overhead_s" in m:
            lines.append(f"  tracing overhead {m['trace.overhead_s']:.3f} s = traced wall_s "
                         f"{m['trace.wall_s']:.3f} - untraced wall_s {m['trace.untraced_wall_s']:.3f}")
    for problem in summary["problems"]:
        lines.append(f"  CHECK FAILED: {problem}")
    lines.append(f"  digests ({compare_digests(w, summary['seed'], summary['scale'], summary['digests'])}): "
                 + json.dumps(summary["digests"], sort_keys=True))
    lines.append("  env: " + json.dumps(summary["env"], sort_keys=True) + f" seed={summary['seed']}")
    return lines


def result_line(summary: dict) -> dict:
    return {
        "correct": summary["correct"],
        "attempted": max(summary["attempted"], 1),
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in summary["metrics"].items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="start no iteration that would end after this many seconds "
                             "(at least one always runs)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny runs every stage on toy inputs, for the smoke test")
    args = parser.parse_args()

    if not Path("src/distilrank/cli.py").is_file():
        print("error: run from the root of a distilrank checkout (no src/distilrank/cli.py)",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    try:
        for workload in workloads:
            run = measure(workload, args.seed, args.seconds, bool(args.trace), args.scale)
            summary = summarize(run)
            summaries.append(summary)
            out = Path(".perfbench") / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
            out.write_text(json.dumps({"summary": summary, "run": run}, indent=1), encoding="utf-8")
            print("\n".join(report(summary, bool(args.trace))), flush=True)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(summaries) == 1:
        line = result_line(summaries[0])
    else:
        lines = [result_line(s) for s in summaries]
        line = {
            "correct": all(x["correct"] for x in lines),
            "attempted": sum(x["attempted"] for x in lines),
            "failed": sum(x["failed"] for x in lines),
            "metrics": {f"{s['workload']}.{name}": v for s, x in zip(summaries, lines)
                        for name, v in x["metrics"].items()},
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

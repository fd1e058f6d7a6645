"""One benchmark process: set up a workload's inputs, run its CLI stages
through ``distilrank.cli.dispatch``, check the outputs, and print one JSON
result line. run.py starts a fresh process of this script for every set-up
probe and every iteration, from the root of the repository:

    PYTHONPATH=src python3 perfbench/worker.py --workload pipeline-small \
        --seed 7 --scale full --mode run --dir .perfbench/work/x --t0 "$(...)"

``--t0`` is the CLOCK_MONOTONIC reading taken just before the process was
started, so set-up time includes interpreter start and imports. Modes:
``setup`` stops after set-up, ``run`` times the stages, ``trace`` times them
with every distilrank function recording spans.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io as stdio
import json
import math
import os
import platform
import re
import resource
import time
from dataclasses import dataclass
from pathlib import Path

import hostspeed


@dataclass(frozen=True)
class Stage:
    name: str
    command: str  # the cli.<command> span and self-time metric
    group: str  # the end-to-end stage metric it counts toward, or "" for wall_s only
    argv: list[str]


class Context:
    """Paths, the seed, the operation counters and captured CLI output."""

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.output: dict[str, str] = {}

    def path(self, name: str) -> str:
        return str(self.root / name)

    def dispatch(self, name: str, argv: list[str]) -> int:
        from distilrank.cli import dispatch

        captured = stdio.StringIO()
        with contextlib.redirect_stdout(captured):
            rc = dispatch(argv)
        self.output[name] = captured.getvalue()
        self.attempted += 1
        if rc != 0:
            self.failed += 1
        return rc

    def setup_command(self, name: str, argv: list[str]) -> None:
        if self.dispatch(name, argv) != 0:
            raise SetupFailed(f"set-up command {name} exited non-zero: {argv}")

    def count_labeled(self, queries_file: str, distilled_file: str) -> list[str]:
        """Count a distill call's queries as operations; return the problems
        with its output: queries missing from it, or rankings that are not
        permutations of the pooled documents."""
        from distilrank import io

        requested = [q.query_id for q in io.load_queries(self.path(queries_file))]
        self.attempted += len(requested)
        problems = []
        try:
            examples = {ex.query_id: ex for ex in io.load_distilled(self.path(distilled_file))}
        except (OSError, ValueError) as exc:
            self.failed += len(requested)
            return [f"{distilled_file}: {exc}"]
        missing = [qid for qid in requested if qid not in examples]
        self.failed += len(missing)
        if missing:
            problems.append(f"{len(missing)} of {len(requested)} queries missing from {distilled_file}")
        for ex in examples.values():
            if not ex.doc_ids or sorted(ex.llm_ranking) != list(range(1, len(ex.doc_ids) + 1)):
                problems.append(f"{distilled_file}: ranking of {ex.query_id} is not a permutation")
        return problems


class SetupFailed(Exception):
    pass


_NDCG_RE = re.compile(r"ndcg@(\d+): ([0-9.]+) over (\d+) queries")
_DISTILL_RE = re.compile(r"distill: (\d+) examples \((\d+) newly labeled, (\d+) failures\)")


def _ndcg(ctx: Context, stage: str) -> float:
    match = _NDCG_RE.search(ctx.output.get(stage, ""))
    if not match:
        raise ValueError(f"no nDCG line in the output of {stage}")
    return float(match.group(2))


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _synth(ctx: Context, topics: int, docs: int, train: int, eval_: int) -> None:
    ctx.setup_command("synth", [
        "synth", "--topics", str(topics), "--docs", str(docs), "--train-queries", str(train),
        "--eval-queries", str(eval_), "--seed", str(ctx.seed), "--out-dir", str(ctx.root)])


def _bm25_retrieve(ctx, index, queries, out, k=30, tag=None) -> list[str]:
    argv = ["retrieve", "--method", "bm25", "--index", ctx.path(index),
            "--queries", ctx.path(queries), "--k", str(k), "--out", ctx.path(out)]
    return argv + (["--tag", tag] if tag else [])


# ------------------------------------------------------------ workloads


class PipelineSmall:
    """The criterion-9 chain with 256 evaluation queries: training and the
    scorer do the work, retrieval over 400 documents is trivial."""

    sizes = {
        "full": dict(topics=8, docs=400, train=64, eval=256, epochs=30, hash_dim=16384, hidden=64),
        "tiny": dict(topics=4, docs=80, train=16, eval=16, epochs=10, hash_dim=1024, hidden=16),
    }
    digested = ("distilled.jsonl", "history.tsv", "reranked.trec")

    def __init__(self, scale: str) -> None:
        self.p = self.sizes[scale]

    def setup(self, ctx: Context) -> None:
        p = self.p
        _synth(ctx, p["topics"], p["docs"], p["train"], p["eval"])

    def stages(self, ctx: Context) -> list[Stage]:
        p, path = self.p, ctx.path
        return [
            Stage("index_build", "index", "pooling",
                  ["index", "build", "--corpus", path("corpus.jsonl"), "--out", path("index.json")]),
            Stage("retrieve_train", "retrieve", "pooling",
                  _bm25_retrieve(ctx, "index.json", "queries-train.tsv", "run-train.trec")),
            Stage("retrieve_eval", "retrieve", "pooling",
                  _bm25_retrieve(ctx, "index.json", "queries-eval.tsv", "run-eval.trec")),
            Stage("distill", "distill", "labeling", [
                "distill", "--queries", path("queries-train.tsv"), "--corpus", path("corpus.jsonl"),
                "--bm25-index", path("index.json"), "--mock-qrels", path("qrels-train.txt"),
                "--k", "30", "--window", "30", "--max-in-flight", "2",
                "--journal", path("journal.log"), "--out", path("distilled.jsonl")]),
            Stage("train", "train", "training", [
                "train", "--train", path("distilled.jsonl"), "--corpus", path("corpus.jsonl"),
                "--epochs", str(p["epochs"]), "--batch", "8", "--docs", "30",
                "--strategy", "logit-difference", "--seed", str(ctx.seed),
                "--hash-dim", str(p["hash_dim"]), "--hidden", str(p["hidden"]),
                "--checkpoint", path("scorer.ckpt"), "--history", path("history.tsv")]),
            Stage("rerank", "rerank", "evaluation", [
                "rerank", "--run", path("run-eval.trec"), "--corpus", path("corpus.jsonl"),
                "--queries", path("queries-eval.tsv"), "--checkpoint", path("scorer.ckpt"),
                "--k-in", "30", "--k-out", "30", "--out", path("reranked.trec")]),
            Stage("eval_bm25", "eval", "evaluation", [
                "eval", "ndcg", "--run", path("run-eval.trec"), "--qrels", path("qrels-eval.txt"),
                "--k", "10"]),
            Stage("eval_student", "eval", "evaluation", [
                "eval", "ndcg", "--run", path("reranked.trec"), "--qrels", path("qrels-eval.txt"),
                "--k", "10"]),
        ]

    def check(self, ctx: Context) -> tuple[dict, list[str]]:
        problems = ctx.count_labeled("queries-train.tsv", "distilled.jsonl")
        bm25, student = _ndcg(ctx, "eval_bm25"), _ndcg(ctx, "eval_student")
        lift = student - bm25
        if not lift >= 0.05:
            problems.append(f"ndcg10_lift {lift:.6f} is below the criterion-9 gate 0.05")
        with open(ctx.path("history.tsv"), encoding="utf-8") as f:
            losses = [float(line.split("\t")[1]) for line in f.read().splitlines()[1:]]
        if not losses[-1] < losses[0]:
            problems.append(f"training loss did not fall: {losses[0]} -> {losses[-1]}")
        quality = {"ndcg10_lift": lift, "ndcg10_bm25": bm25, "ndcg10_student": student}
        return quality, problems


class PoolLarge:
    """Four-source pooling and labeling over 6,000 documents, then a resume
    over the complete journal; the scorer is never called."""

    sizes = {
        "full": dict(topics=16, docs=6000, train=128, dim=64),
        "tiny": dict(topics=4, docs=200, train=16, dim=8),
    }
    digested = ("distilled.jsonl",)

    def __init__(self, scale: str) -> None:
        self.p = self.sizes[scale]

    def setup(self, ctx: Context) -> None:
        import numpy as np
        from distilrank import io
        from distilrank.tokenization import tokenize

        p = self.p
        _synth(ctx, p["topics"], p["docs"], p["train"], 0)
        corpus = io.load_corpus(ctx.path("corpus.jsonl"))
        queries = io.load_queries(ctx.path("queries-train.tsv"))
        rng = np.random.default_rng([ctx.seed, 1])

        # the DRAGON stand-in: seeded random token embeddings, summed per text
        token_lists = [tokenize(d.text) for d in corpus] + [tokenize(q.text) for q in queries]
        vocab = {t: i for i, t in enumerate(sorted({t for toks in token_lists for t in toks}))}
        table = rng.standard_normal((len(vocab), p["dim"]))

        def write_vectors(name, ids, lists):
            with open(ctx.path(name), "w", encoding="utf-8") as f:
                for item_id, toks in zip(ids, lists):
                    vec = table[[vocab[t] for t in toks]].sum(axis=0)
                    vec /= np.linalg.norm(vec) or 1.0
                    f.write(json.dumps({"doc_id": item_id, "vector": [round(float(x), 6) for x in vec]})
                            + "\n")

        write_vectors("dense.jsonl", [d.doc_id for d in corpus], token_lists[:len(corpus)])
        write_vectors("query-vectors.jsonl", [q.query_id for q in queries], token_lists[len(corpus):])

        # the MonoT5 stand-in: a seeded score for every judged pair, graded
        # documents scoring higher on average; BM25 only retrieves same-topic
        # documents, and synth judges all of them
        qrels = io.load_qrels(ctx.path("qrels-train.txt"))
        noise = rng.random(len(qrels))
        with open(ctx.path("monot5-scores.tsv"), "w", encoding="utf-8") as f:
            for ((qid, doc_id), rel), r in zip(sorted(qrels.items()), noise):
                f.write(f"{qid}\t{doc_id}\t{rel + 2.0 * r:.6f}\n")

    def _distill(self, ctx: Context, out: str) -> list[str]:
        path = ctx.path
        return [
            "distill", "--queries", path("queries-train.tsv"), "--corpus", path("corpus.jsonl"),
            "--assignment", path("sources.tsv"), "--bm25-index", path("index.json"),
            "--run-splade", path("run-splade.trec"), "--run-dragon", path("run-dragon.trec"),
            "--monot5-scores", path("monot5-scores.tsv"), "--mock-qrels", path("qrels-train.txt"),
            "--k", "30", "--window", "10", "--step", "5", "--max-in-flight", "2",
            "--journal", path("journal.log"), "--out", path(out)]

    def stages(self, ctx: Context) -> list[Stage]:
        path = ctx.path
        return [
            Stage("index_build", "index", "pooling",
                  ["index", "build", "--corpus", path("corpus.jsonl"), "--out", path("index.json")]),
            Stage("index_build_splade", "index", "pooling",
                  ["index", "build", "--corpus", path("corpus.jsonl"), "--k1", "1.5", "--b", "0.75",
                   "--out", path("index-splade.json")]),
            Stage("retrieve_bm25", "retrieve", "pooling",
                  _bm25_retrieve(ctx, "index.json", "queries-train.tsv", "run-bm25.trec")),
            Stage("retrieve_splade", "retrieve", "pooling",
                  _bm25_retrieve(ctx, "index-splade.json", "queries-train.tsv", "run-splade.trec",
                                 tag="splade")),
            Stage("retrieve_dense", "retrieve", "pooling", [
                "retrieve", "--method", "dense", "--store", path("dense.jsonl"),
                "--query-vectors", path("query-vectors.jsonl"), "--queries", path("queries-train.tsv"),
                "--k", "30", "--tag", "dragon", "--out", path("run-dragon.trec")]),
            Stage("assign_sources", "assign_sources", "", [
                "assign-sources", "--queries", path("queries-train.tsv"), "--seed", str(ctx.seed),
                "--out", path("sources.tsv")]),
            Stage("distill", "distill", "labeling", self._distill(ctx, "distilled.jsonl")),
            Stage("distill_resume", "distill_resume", "resume",
                  self._distill(ctx, "distilled-resumed.jsonl")),
            Stage("eval_intersection", "eval", "", [
                "eval", "intersection", "--run", f"bm25={path('run-bm25.trec')}",
                "--run", f"splade={path('run-splade.trec')}",
                "--run", f"dragon={path('run-dragon.trec')}", "--n", "30"]),
        ]

    def check(self, ctx: Context) -> tuple[dict, list[str]]:
        problems = ctx.count_labeled("queries-train.tsv", "distilled.jsonl")
        problems += ctx.count_labeled("queries-train.tsv", "distilled-resumed.jsonl")
        resumed = _DISTILL_RE.search(ctx.output.get("distill_resume", ""))
        if not resumed or resumed.group(2) != "0":
            problems.append("the resume labeled new queries: "
                            + (ctx.output.get("distill_resume", "").strip() or "no output"))
        if os.path.exists(ctx.path("distilled-resumed.jsonl")) and \
                _sha256(ctx.path("distilled.jsonl")) != _sha256(ctx.path("distilled-resumed.jsonl")):
            problems.append("the resume wrote a distilled.jsonl that differs from the fresh one")
        return {}, problems


class AblateGrid:
    """The 90-cell ablation with the criterion-10 settings over the
    four-source distilled set that set-up builds, as the acceptance fixture
    builds it; featurize-bound rather than optimizer-bound."""

    sizes = {
        "full": dict(topics=8, docs=400, train=64, eval=16, hash_dim=4096, hidden=16),
        "tiny": dict(topics=4, docs=80, train=16, eval=8, hash_dim=256, hidden=4),
    }
    digested = ("distilled-4src.jsonl", "grid.tsv")
    cells = 90

    def __init__(self, scale: str) -> None:
        self.p = self.sizes[scale]

    def setup(self, ctx: Context) -> None:
        path = ctx.path
        p = self.p
        _synth(ctx, p["topics"], p["docs"], p["train"], p["eval"])
        ctx.setup_command("index_build", [
            "index", "build", "--corpus", path("corpus.jsonl"), "--out", path("index.json")])
        ctx.setup_command("retrieve_eval",
                          _bm25_retrieve(ctx, "index.json", "queries-eval.tsv", "run-eval.trec"))
        ctx.setup_command("assign_sources", [
            "assign-sources", "--queries", path("queries-train.tsv"), "--seed", str(ctx.seed),
            "--out", path("sources.tsv")])
        # differently parameterised lexical runs stand in for the three
        # external retrievers, as in the acceptance fixture
        for label, k1, b in (("splade", "1.5", "0.75"), ("dragon", "0.4", "0.1"),
                             ("monot5", "1.2", "0.2")):
            ctx.setup_command(f"index_build_{label}", [
                "index", "build", "--corpus", path("corpus.jsonl"), "--k1", k1, "--b", b,
                "--out", path(f"index-{label}.json")])
            ctx.setup_command(f"retrieve_{label}", _bm25_retrieve(
                ctx, f"index-{label}.json", "queries-train.tsv", f"run-{label}.trec", tag=label))
        ctx.setup_command("distill", [
            "distill", "--queries", path("queries-train.tsv"), "--corpus", path("corpus.jsonl"),
            "--bm25-index", path("index.json"), "--assignment", path("sources.tsv"),
            "--run-splade", path("run-splade.trec"), "--run-dragon", path("run-dragon.trec"),
            "--run-monot5", path("run-monot5.trec"), "--mock-qrels", path("qrels-train.txt"),
            "--k", "30", "--max-in-flight", "2", "--out", path("distilled-4src.jsonl")])
        problems = ctx.count_labeled("queries-train.tsv", "distilled-4src.jsonl")
        if problems:
            raise SetupFailed("; ".join(problems))

    def stages(self, ctx: Context) -> list[Stage]:
        path, p = ctx.path, self.p
        return [Stage("ablate", "ablate", "ablation", [
            "ablate", "--train", path("distilled-4src.jsonl"), "--corpus", path("corpus.jsonl"),
            "--queries", path("queries-eval.tsv"), "--qrels", path("qrels-eval.txt"),
            "--base-run", path("run-eval.trec"), "--epochs", "2", "--batch", "8",
            "--hash-dim", str(p["hash_dim"]), "--hidden", str(p["hidden"]), "--k-in", "30",
            "--seed", str(ctx.seed), "--out", path("grid.tsv")])]

    def check(self, ctx: Context) -> tuple[dict, list[str]]:
        from distilrank.training import KindFilter
        from distilrank.types import SOURCES

        expected = {
            (strategy, str(docs), kind.value, source.value if source else "none")
            for strategy in ("logit-difference", "single-logit")
            for docs in (10, 20, 30)
            for kind in KindFilter
            for source in (None,) + SOURCES
        }
        problems, ndcgs, cells = [], [], set()
        with open(ctx.path("grid.tsv"), encoding="utf-8") as f:
            lines = f.read().splitlines()
        if lines[:1] != ["strategy\tdocs\tkind\texcluded_source\tndcg\tfinal_train_loss"]:
            problems.append("grid.tsv has an unexpected header")
        for line in lines[1:]:
            strategy, docs, kind, source, ndcg, loss = line.split("\t")
            cells.add((strategy, docs, kind, source))
            ndcgs.append(float(ndcg))
            if not 0.0 <= float(ndcg) <= 1.0 or not math.isfinite(float(loss)):
                problems.append(f"grid cell out of range: {line}")
        if len(lines) - 1 != self.cells or cells != expected:
            problems.append(f"grid.tsv has {len(lines) - 1} rows, {len(cells & expected)} of the "
                            f"{self.cells} expected cells")
        return {"grid_ndcg10_mean": sum(ndcgs) / max(len(ndcgs), 1)}, problems


WORKLOADS = {"pipeline-small": PipelineSmall, "pool-large": PoolLarge, "ablate-grid": AblateGrid}


# ------------------------------------------------------------ the process

def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        # as found; the benchmark leaves the BLAS thread setting unchanged
        "blas_threads": {var: os.environ.get(var, "unset") for var in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run(args, sampler) -> dict:
    import distilrank.cli  # noqa: F401 - imports count toward set-up time

    workload = WORKLOADS[args.workload](args.scale)
    ctx = Context(Path(args.dir), args.seed)
    ctx.root.mkdir(parents=True, exist_ok=True)
    result: dict = {"workload": args.workload, "seed": args.seed, "mode": args.mode}
    try:
        workload.setup(ctx)
    except SetupFailed as exc:
        result.update(attempted=ctx.attempted, failed=max(ctx.failed, 1), problems=[str(exc)])
        return result
    setup = timed(sampler, args.t0, time.monotonic())
    result["setup_s"], result["setup_raw_s"] = setup["s"], setup["raw_s"]
    if args.mode == "setup":
        result.update(attempted=ctx.attempted, failed=ctx.failed, problems=[])
        return result

    tracer = None
    if args.mode == "trace":
        import spans

        tracer = spans.Tracer(f"{args.workload}-seed{args.seed}")
        spans.install(tracer)

    stage_times, intervals = [], []
    for stage in workload.stages(ctx):
        start, cpu_start = time.monotonic(), time.process_time()
        if tracer is None:
            rc = ctx.dispatch(stage.name, stage.argv)
        else:
            tracer.stage = stage.name
            with tracer.span(f"cli.{stage.command}"):
                rc = ctx.dispatch(stage.name, stage.argv)
        intervals.append((start, time.monotonic()))
        stage_times.append({"name": stage.name, "group": stage.group, "rc": rc,
                            "cpu_s": time.process_time() - cpu_start})
        if rc != 0:
            break
    if sampler is not None:
        sampler.stop()
    for stage, (start, end) in zip(stage_times, intervals):
        stage.update(timed(sampler, start, end))
    result["stages"] = stage_times
    result["wall_s"] = sum(s["s"] for s in stage_times)
    result["wall_raw_s"] = sum(s["raw_s"] for s in stage_times)
    if tracer is not None:
        # reduce the spans before the checks below call distilrank themselves
        journal = ctx.path("journal.log")
        if os.path.exists(journal):
            tracer.counts["distill.journal_bytes"] = os.path.getsize(journal)
        rows = tracer.rows()
        result["per_layer"] = spans.layer_metrics(tracer, rows)
        result["spans"] = len(rows)
        tracer.write(args.spans, rows)

    failed_stages = [s["name"] for s in stage_times if s["rc"] != 0]
    if failed_stages:
        quality, problems = {}, [f"stage {failed_stages[0]} exited non-zero"]
    else:
        try:
            quality, problems = workload.check(ctx)
        except (OSError, ValueError, IndexError) as exc:
            quality, problems = {}, [f"cannot check the outputs: {exc}"]
    result.update(quality=quality, problems=problems, attempted=ctx.attempted, failed=ctx.failed)
    result["digests"] = {name: _sha256(ctx.path(name)) for name in workload.digested
                         if os.path.exists(ctx.path(name))}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    return result


def timed(sampler, start: float, end: float) -> dict:
    """An interval's seconds: at reference speed when the host is sampled,
    as measured otherwise."""
    if sampler is None:
        return {"s": end - start, "raw_s": end - start}
    return sampler.normalize(start, end)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full")
    parser.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    parser.add_argument("--dir", required=True, help="scratch directory for the inputs and outputs")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--spans", help="trace mode: where to write the spans")
    parser.add_argument("--reference", type=int, choices=[0, 1], default=1,
                        help="1: sample the host's speed and report times at reference speed")
    args = parser.parse_args()
    sampler = None
    if args.reference:
        sampler = hostspeed.Sampler()
        sampler.start()
    try:
        result = run(args, sampler)
    finally:
        if sampler is not None:
            sampler.stop()
    print(json.dumps(result))


if __name__ == "__main__":
    main()

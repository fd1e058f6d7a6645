"""Span tracing for the benchmark's traced run, and the per-layer metrics.

`install` replaces distilrank's public functions, in every distilrank module
namespace where callers look them up (``cli.search_bm25``,
``training.adamw_step``, ``distill.window_rerank`` ...), with wrappers that
record one span per call. The program's source is not changed; a traced
process stays traced until it exits. Spans stay in memory until the run ends,
when `Tracer.write` saves them and `layer_metrics` reduces them.

A span is (id, parent id, name, start, end, thread). Spans opened on a worker
thread with nothing open on that thread are parented to the innermost open
span that adopts threads, which is ``distill.distill``: its thread pool runs
retrieval and the teacher.
"""

from __future__ import annotations

import array
import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class _ThreadBuffer:
    """The open-span stack and the finished spans of one thread."""

    def __init__(self) -> None:
        self.tid = threading.get_ident()
        self.is_main = threading.current_thread() is threading.main_thread()
        self.stack: list[int] = []
        self.ids = array.array("q")
        self.parents = array.array("q")
        self.names = array.array("q")
        self.starts = array.array("d")
        self.ends = array.array("d")


class Tracer:
    """Records spans and the counters the after-call hooks collect."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.origin = time.perf_counter()
        self._next_id = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._buffers_lock = threading.Lock()
        self._adopters: list[int] = []
        self._names: list[str] = []
        self._codes: dict[str, int] = {}
        self._lock = threading.Lock()
        self.counts: dict[str, float] = defaultdict(float)
        self.stage = ""

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer()
            self._local.buf = buf
            with self._buffers_lock:
                self._buffers.append(buf)
        return buf

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self._names)
            self._names.append(name)
        return self._codes[name]

    def _open(self, buf: _ThreadBuffer, adopts: bool) -> tuple[int, int]:
        if buf.stack:
            parent = buf.stack[-1]
        elif buf.is_main or not self._adopters:
            parent = 0
        else:
            parent = self._adopters[-1]
        span_id = next(self._next_id)
        buf.stack.append(span_id)
        if adopts:
            self._adopters.append(span_id)
        return span_id, parent

    def _close(self, buf, span_id, parent, code, t0, t1, adopts) -> None:
        buf.stack.pop()
        if adopts:
            self._adopters.pop()
        buf.ids.append(span_id)
        buf.parents.append(parent)
        buf.names.append(code)
        buf.starts.append(t0)
        buf.ends.append(t1)

    def wrap(self, name, fn, after=None, adopts_threads=False):
        """Return ``fn`` recording a span per call; ``after(args, kwargs,
        result, seconds)`` runs once the span has closed."""
        code = self._code(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = self._buffer()
            span_id, parent = self._open(buf, adopts_threads)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._close(buf, span_id, parent, code, t0, t1, adopts_threads)
            if after is not None:
                after(args, kwargs, result, t1 - t0)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        buf = self._buffer()
        code = self._code(name)
        span_id, parent = self._open(buf, False)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(buf, span_id, parent, code, t0, time.perf_counter(), False)

    def rows(self) -> list[tuple[int, int, str, float, float, int]]:
        """Finished spans as (id, parent, name, start, end, thread), by id."""
        out = []
        for buf in self._buffers:
            out.extend(
                (i, p, self._names[c], s - self.origin, e - self.origin, buf.tid)
                for i, p, c, s, e in zip(buf.ids, buf.parents, buf.names, buf.starts, buf.ends)
            )
        out.sort()
        return out

    def write(self, path: str | os.PathLike, rows) -> None:
        main = threading.main_thread().ident
        with open(path, "w", encoding="utf-8") as f:
            f.write("run_id\tspan_id\tparent_id\tname\tstart_s\tend_s\tthread\n")
            for i, p, name, s, e, tid in rows:
                thread = "main" if tid == main else f"t{tid}"
                f.write(f"{self.run_id}\t{i}\t{p}\t{name}\t{s:.9f}\t{e:.9f}\t{thread}\n")


def read_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split("\t")
        rows = [dict(zip(header, line.rstrip("\n").split("\t"))) for line in f]
    for r in rows:
        r["span_id"], r["parent_id"] = int(r["span_id"]), int(r["parent_id"])
        r["start_s"], r["end_s"] = float(r["start_s"]), float(r["end_s"])
    return rows


# ------------------------------------------------------------ installation

_IO_FORMATS = ("corpus", "queries", "run", "qrels", "distilled")


def install(tracer: Tracer) -> None:
    """Swap every traced distilrank function for its recording wrapper."""
    # cli is imported so that the namespace scan below finds its names too
    from distilrank import cli, evaluation, io, retrieval, scorer, tokenization, training  # noqa: F401

    distill = sys.modules["distilrank.distill"]
    tokenize = tokenization.tokenize  # the hooks' own calls stay unrecorded
    featurize_pairs: set = set()
    active_rows: dict[int, np.ndarray] = {}
    pending_writes: dict[int, str] = {}
    searchers: list = []
    add = tracer.add

    def bm25_postings(args, kwargs, result, dt):
        index, text = args[0], args[1]
        add("retrieval.postings_scanned",
            sum(len(index.postings.get(t, ())) for t in tokenize(text, index.tokenizer)))

    def index_bytes(args, kwargs, result, dt):
        add("retrieval.index_bytes", os.path.getsize(args[1]))

    def distill_result(args, kwargs, result, dt):
        add(f"distill.new_labels.{tracer.stage}", result.n_labeled)

    def window_result(args, kwargs, result, dt):
        add("distill.window_teacher_calls", result.n_calls)
        add("distill.repaired_queries", int(result.repaired))

    def featurize_pair(args, kwargs, result, dt):
        featurize_pairs.add((args[0], args[1]))
        tracer.counts["scorer.featurize.unique_pairs"] = len(featurize_pairs)

    def checkpoint_bytes(args, kwargs, result, dt):
        add("scorer.checkpoint_bytes", os.path.getsize(args[2]))

    def grad_rows(args, kwargs, result, dt):
        rows = np.any(result[1][0] != 0.0, axis=1)
        seen = active_rows.get(id(args[0]))
        if seen is None:
            active_rows[id(args[0])] = rows
        else:
            seen |= rows

    def fit_rows(args, kwargs, result, dt):
        params = result[0]
        rows = active_rows.pop(id(params), None)
        add("training.w1_active_rows", 0 if rows is None else int(rows.sum()))
        add("training.w1_rows", params.feature.hash_dim)

    def adamw_bytes(args, kwargs, result, dt):
        # read theta, g, m, v and write theta, m, v once each; temporaries excluded
        add("training.adamw_bytes", 7 * sum(a.nbytes for a in args[0]))

    def loaded(fmt):
        def hook(args, kwargs, result, dt):
            add(f"io.{fmt}.load_s", dt)
            add(f"io.{fmt}.load_bytes", os.path.getsize(args[0]))
        return hook

    def serialized(fmt):
        def hook(args, kwargs, result, dt):
            pending_writes[id(result)] = fmt
            add(f"io.{fmt}.write_s", dt)
        return hook

    def saved(args, kwargs, result, dt):
        fmt = pending_writes.pop(id(args[1]), None)
        if fmt is not None:
            add(f"io.{fmt}.write_s", dt)
            add(f"io.{fmt}.write_bytes", os.path.getsize(args[0]))

    traced = [
        (retrieval, "search_bm25", bm25_postings),
        (retrieval, "search_dense", None),
        (retrieval, "load_dense_store", None),
        (retrieval, "build_index", None),
        (retrieval, "save_index", index_bytes),
        (retrieval, "load_index", None),
        (retrieval, "compose_rerank", None),
        (distill, "distill", distill_result),
        (distill, "window_rerank", window_result),
        (distill, "read_journal", None),
        (scorer, "featurize", featurize_pair),
        (scorer, "forward", None),
        (scorer, "save_checkpoint", checkpoint_bytes),
        (scorer, "load_checkpoint", None),
        (tokenization, "tokenize", None),
        (training, "fit", fit_rows),
        (training, "prepare_example", None),
        (training, "batch_loss_and_grads", grad_rows),
        (training, "batch_loss", None),
        (training, "adamw_step", adamw_bytes),
        (evaluation, "rerank_run", None),
        (evaluation, "evaluate_run", None),
        (evaluation, "ndcg_at_k", None),
        (evaluation, "intersection_matrix", None),
        (io, "save_text", saved),
    ]
    traced += [(io, f"load_{fmt}", loaded(fmt)) for fmt in _IO_FORMATS]
    traced += [(io, f"write_{fmt}", serialized(fmt)) for fmt in _IO_FORMATS]
    wrap = tracer.wrap
    wrappers = []
    for module, attr, after in traced:
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        fn = getattr(module, attr)
        wrappers.append((fn, wrap(name, fn, after, adopts_threads=name == "distill.distill")))

    # factories whose products are traced: the teacher, the student's score
    # function, and run-file searchers (whose miss counters are summed at the end)
    mock_llm, model_score_fn, runfile_searcher = (
        distill.mock_llm, evaluation.model_score_fn, retrieval.RunfileSearcher)

    def traced_mock_llm(*args, **kwargs):
        return wrap("distill.teacher", mock_llm(*args, **kwargs))

    def traced_model_score_fn(*args, **kwargs):
        return wrap("evaluation.score_fn", model_score_fn(*args, **kwargs))

    def counted_searcher(*args, **kwargs):
        searcher = runfile_searcher(*args, **kwargs)
        searchers.append(searcher)
        return searcher

    tracer.runfile_misses = lambda: sum(s.misses for s in searchers)
    wrappers += [
        (mock_llm, traced_mock_llm),
        (model_score_fn, traced_model_score_fn),
        (runfile_searcher, counted_searcher),
    ]

    by_id = {id(original): (original, replacement) for original, replacement in wrappers}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "distilrank" or name.startswith("distilrank.")):
            continue
        for attr, value in list(vars(module).items()):
            entry = by_id.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])


# ------------------------------------------------------------ per-layer metrics

# Stage spans are named cli.<command>; one self-time metric per command.
CLI_COMMANDS = ("index", "retrieve", "assign_sources", "distill", "distill_resume",
                "train", "rerank", "eval", "ablate")

_SPAN_STATS = {
    # span name: the statistics reported for it
    "retrieval.search_bm25": ("calls", "s", "self_s", "p50_ms", "p95_ms"),
    "retrieval.search_dense": ("calls", "s", "p50_ms"),
    "retrieval.load_dense_store": ("s",),
    "retrieval.build_index": ("s", "self_s"),
    "retrieval.save_index": ("calls", "s"),
    "retrieval.load_index": ("calls", "s"),
    "retrieval.compose_rerank": ("s",),
    "distill.distill": ("calls", "s", "self_s"),
    "distill.window_rerank": ("calls", "s", "self_s"),
    "distill.teacher": ("calls", "s"),
    "distill.read_journal": ("s",),
    "scorer.featurize": ("calls", "s", "self_s"),
    "scorer.forward": ("calls", "s"),
    "scorer.save_checkpoint": ("s",),
    "scorer.load_checkpoint": ("s",),
    "tokenization.tokenize": ("calls", "s"),
    "training.fit": ("calls", "s", "self_s"),
    "training.prepare_example": ("calls", "s"),
    "training.batch_loss_and_grads": ("calls", "s"),
    "training.batch_loss": ("calls", "s"),
    "training.adamw_step": ("calls", "s", "p50_ms"),
    "evaluation.rerank_run": ("calls", "s", "self_s"),
    "evaluation.score_fn": ("calls", "s"),
    "evaluation.evaluate_run": ("calls", "s"),
    "evaluation.ndcg_at_k": ("calls", "s"),
    "evaluation.intersection_matrix": ("s",),
}
_STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s", "p50_ms": "ms", "p95_ms": "ms"}

# Derived counters, ratios (each next to its base) and sizes, by layer.
_DERIVED = {
    "retrieval": [
        ("retrieval.postings_scanned", "count"),
        ("retrieval.postings_per_query", "postings/query"),
        ("retrieval.index_bytes", "bytes"),
        ("retrieval.runfile_misses", "count"),
    ],
    "distill": [
        ("distill.teacher_calls_per_query", "calls/query"),
        ("distill.repaired_queries", "count"),
        ("distill.repaired_ratio", "ratio"),
        ("distill.journal_bytes", "bytes"),
        ("distill.resume_new_labels", "count"),
    ],
    "scorer": [
        ("scorer.featurize.unique_pairs", "count"),
        ("scorer.featurize.useful_ratio", "ratio"),
        ("scorer.checkpoint_bytes", "bytes"),
    ],
    "training": [
        ("training.adamw_bytes_per_step", "bytes"),
        ("training.w1_active_rows", "count"),
        ("training.w1_rows", "count"),
        ("training.w1_active_row_ratio", "ratio"),
    ],
}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names = []
    for layer in ("retrieval", "distill", "scorer", "tokenization", "training", "evaluation"):
        for span, stats in _SPAN_STATS.items():
            if span.startswith(layer + "."):
                names += [(f"{span}.{stat}", _STAT_UNITS[stat]) for stat in stats]
        names += _DERIVED.get(layer, [])
    for fmt in _IO_FORMATS:
        names += [(f"io.{fmt}.load_s", "s"), (f"io.{fmt}.load_bytes", "bytes"),
                  (f"io.{fmt}.write_s", "s"), (f"io.{fmt}.write_bytes", "bytes")]
    names += [(f"cli.{command}.self_s", "s") for command in CLI_COMMANDS]
    names += [("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
              ("trace.overhead_ratio", "ratio"), ("trace.spans", "count")]
    return names


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(rows) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end, _ in rows:
        if parent:
            children[parent].append((start, end))
    return {
        span_id: (end - start) - _covered(children.get(span_id, []), start, end)
        for span_id, _, _, start, end, _ in rows
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rows) -> dict[str, float]:
    """Reduce the spans and counters of one traced run to the per-layer
    metrics, all but the ``trace.*`` ones, which compare two processes."""
    selfs = self_times(rows)
    durations: dict[str, list[float]] = defaultdict(list)
    self_sum: dict[str, float] = defaultdict(float)
    for span_id, _, name, start, end, _ in rows:
        durations[name].append(end - start)
        self_sum[name] += selfs[span_id]

    values: dict[str, float] = {}
    for span, stats in _SPAN_STATS.items():
        d = np.asarray(durations.get(span, []), dtype=np.float64)
        for stat in stats:
            if stat == "calls":
                v = float(d.size)
            elif stat == "s":
                v = float(d.sum())
            elif stat == "self_s":
                v = self_sum.get(span, 0.0)
            else:
                v = float(np.percentile(d, int(stat[1:3]))) * 1e3 if d.size else 0.0
            values[f"{span}.{stat}"] = v

    c = tracer.counts
    bm25_calls = values["retrieval.search_bm25.calls"]
    windows = values["distill.window_rerank.calls"]
    featurize_calls = values["scorer.featurize.calls"]
    adamw_calls = values["training.adamw_step.calls"]
    values.update({
        "retrieval.postings_scanned": c["retrieval.postings_scanned"],
        "retrieval.postings_per_query": _ratio(c["retrieval.postings_scanned"], bm25_calls),
        "retrieval.index_bytes": c["retrieval.index_bytes"],
        "retrieval.runfile_misses": float(tracer.runfile_misses()),
        "distill.teacher_calls_per_query": _ratio(c["distill.window_teacher_calls"], windows),
        "distill.repaired_queries": c["distill.repaired_queries"],
        "distill.repaired_ratio": _ratio(c["distill.repaired_queries"], windows),
        "distill.journal_bytes": c["distill.journal_bytes"],
        "distill.resume_new_labels": c["distill.new_labels.distill_resume"],
        "scorer.featurize.unique_pairs": c["scorer.featurize.unique_pairs"],
        "scorer.featurize.useful_ratio": _ratio(c["scorer.featurize.unique_pairs"], featurize_calls),
        "scorer.checkpoint_bytes": c["scorer.checkpoint_bytes"],
        "training.adamw_bytes_per_step": _ratio(c["training.adamw_bytes"], adamw_calls),
        "training.w1_active_rows": c["training.w1_active_rows"],
        "training.w1_rows": c["training.w1_rows"],
        "training.w1_active_row_ratio": _ratio(c["training.w1_active_rows"], c["training.w1_rows"]),
    })
    for fmt in _IO_FORMATS:
        for key in ("load_s", "load_bytes", "write_s", "write_bytes"):
            values[f"io.{fmt}.{key}"] = c[f"io.{fmt}.{key}"]
    for command in CLI_COMMANDS:
        values[f"cli.{command}.self_s"] = self_sum.get(f"cli.{command}", 0.0)
    return {name: float(values[name]) for name, _ in per_layer_names()
            if not name.startswith("trace.")}

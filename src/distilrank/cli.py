"""Command-line interface: every pipeline stage as a subcommand of one binary.

Exit status: 0 success, 1 usage error, 2 data error, 3 transport or budget
error. Stages hand files to each other; all randomness is seeded from --seed.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import functools
import os
import sys
from pathlib import Path

from . import io
from .augment import (
    CropConfig,
    assign_sources,
    crop_sentences,
    load_generated,
    split_dataset,
    validation_per_kind,
)
from .config import OPTIONS, CliConfig, resolve
from .distill import (
    DEFAULT_TEMPLATE,
    WindowPlan,
    api_llm,
    distill,
    load_template,
    mock_llm,
    read_journal,
)
from .errors import BudgetError, DataError, NonFiniteError, TransportError
from .evaluation import (
    evaluate_run,
    external_logit_score_fn,
    format_intersection_tsv,
    intersection_matrix,
    model_score_fn,
    paired_t_test,
    rerank_depths,
    rerank_run,
)
from .llm import LlmClient, LlmConfig, RetryPolicy
from .retrieval import (
    RunfileSearcher,
    build_index,
    check_bm25_params,
    compose_rerank,
    load_dense_store,
    load_index,
    load_score_map,
    save_index,
    search_bm25,
    search_dense,
)
from .scorer import (
    FeatureConfig,
    FeatureStore,
    ScoreStrategy,
    forward,
    init_params,
    load_checkpoint,
    load_external_logits,
    save_checkpoint,
    score_batch,
)
from .training import KindFilter, TrainConfig, filter_examples, fit, prepare_fit, write_history
from .types import SOURCES, Query, Run, Source, is_id, validate_run
from .synthetic import synth_benchmark


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        kwargs.setdefault("formatter_class", argparse.ArgumentDefaultsHelpFormatter)
        super().__init__(*args, **kwargs)

    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _corpus_map(path: str) -> dict[str, str]:
    return {d.doc_id: d.text for d in io.load_corpus(path)}


def _choice(enum, name: str):
    try:
        return enum(name)
    except ValueError:
        raise DataError(
            f"unknown {enum.__name__} {name!r}; choose from " + ", ".join(e.value for e in enum)
        ) from None


def _source_or_none(name: str) -> Source | None:
    if name.lower() == "none":
        return None
    try:
        return Source(name)
    except ValueError:
        raise DataError(
            f"unknown source {name!r}; choose from none, "
            + ", ".join(s.value for s in SOURCES)
        ) from None


def _positive(name: str, value: int) -> int:
    """``value``, if it is at least 1; ``name`` words the error."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def _run_tag(tag: str) -> str:
    """``tag``, if a run file written with it reads back: one field, not empty."""
    if not is_id(tag):
        raise ValueError(f"--tag must be non-empty and hold no whitespace, got {tag!r}")
    return tag


def _train_config(opts: dict, seed: int, docs: int, strategy: ScoreStrategy, kind: KindFilter,
                  source: Source | None) -> TrainConfig:
    """The `TrainConfig` of the resolved ``train.*`` options, with the ablation
    axes (documents per query, strategy, kind, excluded source) given."""
    return TrainConfig(
        batch_queries=opts["train.batch"],
        docs_per_query=docs,
        learning_rate=opts["train.lr"],
        beta1=opts["train.beta1"],
        beta2=opts["train.beta2"],
        eps=opts["train.eps"],
        weight_decay=opts["train.weight_decay"],
        epochs=opts["train.epochs"],
        seed=seed,
        strategy=strategy,
        kind_filter=kind,
        excluded_source=source,
    )


# ---------------------------------------------------------------- handlers


def _cmd_synth(args, opts: dict) -> int:
    bench = synth_benchmark(
        n_topics=args.topics,
        n_docs=args.docs,
        n_train_queries=args.train_queries,
        n_eval_queries=args.eval_queries,
        seed=args.seed,
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    io.save_text(out / "corpus.jsonl", io.write_corpus(bench.corpus))
    io.save_text(out / "queries-train.tsv", io.write_queries(bench.train_queries))
    io.save_text(out / "queries-eval.tsv", io.write_queries(bench.eval_queries))
    io.save_text(out / "qrels.txt", io.write_qrels(bench.qrels))
    io.save_text(out / "qrels-train.txt", io.write_qrels(bench.train_qrels))
    io.save_text(out / "qrels-eval.txt", io.write_qrels(bench.eval_qrels))
    io.save_text(out / "genpool.tsv", io.write_generated_pool(bench.generated_pool))
    print(
        f"synth: {len(bench.corpus)} docs, {len(bench.train_queries)} train + "
        f"{len(bench.eval_queries)} eval queries, {len(bench.qrels)} qrels -> {out}"
    )
    return 0


def _cmd_index_build(args, opts: dict) -> int:
    k1, b = opts["bm25.k1"], opts["bm25.b"]
    check_bm25_params(k1, b)
    index = build_index(io.load_corpus(args.corpus), k1=k1, b=b)
    save_index(index, args.out)
    print(f"index: {index.n_docs} docs, {len(index.postings)} terms, k1={k1} b={b} -> {args.out}")
    return 0


def _bm25_search(index):
    return lambda query, k: search_bm25(index, query.text, k)


def _runfile_search(searcher):
    return lambda query, k: searcher.search(query.query_id, k)


def _search_run(search, queries, k: int) -> Run:
    """The run of a source's ``search(query, k)`` over the queries, less those without hits."""
    run: Run = {}
    for q in queries:
        hits = search(q, k)
        if hits:
            run[q.query_id] = hits
    validate_run(run)
    return run


def _cmd_retrieve(args, opts: dict) -> int:
    # the checks that need only flags, before any file is read
    needs = {"bm25": ("--index", args.index),
             "dense": ("--store and --query-vectors", args.store and args.query_vectors),
             "runfile": ("--run", args.run)}
    flags, given = needs[args.method]
    if not given:
        raise _UsageError(f"--method {args.method} requires {flags}")
    tag = _run_tag(args.method if args.tag is None else args.tag)
    k = _positive("--k", opts["retrieve.k"])
    queries = io.load_queries(args.queries)
    searcher = None
    if args.method == "bm25":
        search = _bm25_search(load_index(args.index))
    elif args.method == "dense":
        store = load_dense_store(io.lines_of(args.store))
        qvecs = load_dense_store(io.lines_of(args.query_vectors))
        qrow = {query_id: row for row, query_id in enumerate(qvecs.doc_ids)}

        def search(query, k):
            if query.query_id not in qrow:
                raise DataError(f"no vector for query {query.query_id!r}")
            return search_dense(store, qvecs.matrix[qrow[query.query_id]], k)
    else:  # runfile
        searcher = RunfileSearcher(io.load_run(args.run))
        search = _runfile_search(searcher)
    run = _search_run(search, queries, k)
    if searcher and searcher.misses:
        print(f"warning: {searcher.misses} queries missing from {args.run}", file=sys.stderr)
    io.save_text(args.out, io.write_run(run, tag))
    print(f"retrieve: {len(run)} queries with results -> {args.out}")
    return 0


def _cmd_augment_crop(args, opts: dict) -> int:
    config = CropConfig(
        n=args.n,
        min_tokens=opts["crop.min_tokens"],
        max_tokens=opts["crop.max_tokens"],
        seed=args.seed,
    )
    queries = crop_sentences(io.load_corpus(args.corpus), config)
    io.save_text(args.out, io.write_queries(queries))
    print(f"augment crop: {len(queries)} queries -> {args.out}")
    return 0


def _cmd_augment_load_generated(args, opts: dict) -> int:
    queries = load_generated(io.lines_of(args.pool), n=args.n, seed=args.seed)
    io.save_text(args.out, io.write_queries(queries))
    print(f"augment load-generated: {len(queries)} queries -> {args.out}")
    return 0


def _cmd_assign_sources(args, opts: dict) -> int:
    queries = io.load_queries(args.queries)
    assignment = assign_sources(queries, seed=args.seed)
    io.save_text(args.out, io.write_assignment(assignment))
    counts: dict[str, int] = {}
    for q in queries:
        key = f"{q.kind.value}/{assignment[q.query_id].value}"
        counts[key] = counts.get(key, 0) + 1
    print("assign-sources: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return 0


def _cmd_split(args, opts: dict) -> int:
    validation_per_kind(args.n_val)
    examples = io.load_distilled(args.distilled)
    train, val = split_dataset(examples, n_val=args.n_val, seed=args.seed)
    io.save_text(args.out_train, io.write_distilled(train))
    io.save_text(args.out_val, io.write_distilled(val))
    print(f"split: {len(train)} train / {len(val)} validation")
    return 0


def _distill_backends(args, opts: dict, pending: list[Query], llm_config: LlmConfig | None):
    """The retrieve and teacher callables of `distill`, built from every input
    given; the composed MonoT5 run covers the MonoT5 queries among ``pending``."""
    corpus = _corpus_map(args.corpus)
    assignment = io.parse_assignment(io.lines_of(args.assignment)) if args.assignment else {}
    k = opts["retrieve.k"]

    searches = {}  # Source -> search(query, k)
    if args.bm25_index:
        searches[Source.BM25] = _bm25_search(load_index(args.bm25_index))
    for source, path in [
        (Source.SPLADE, args.run_splade),
        (Source.DRAGON, args.run_dragon),
        (Source.MONOT5, None if args.monot5_scores else args.run_monot5),
    ]:
        if path:
            searches[source] = _runfile_search(RunfileSearcher(io.load_run(path)))
    if args.monot5_scores:
        k_pool = opts["compose.k_pool"]
        score_map = load_score_map(io.lines_of(args.monot5_scores))
        monot5 = [q for q in pending if assignment.get(q.query_id, Source.BM25) is Source.MONOT5]
        base = _search_run(searches[Source.BM25], monot5, k_pool)
        searches[Source.MONOT5] = _runfile_search(
            RunfileSearcher(compose_rerank(base, score_map, k_pool, k)))

    def retrieve(query: Query) -> tuple[Source, list[tuple[str, str]]]:
        source = assignment.get(query.query_id, Source.BM25)
        if source not in searches:
            missing = {Source.BM25: "--bm25-index"}.get(source, "run")
            raise DataError(f"a query is assigned to {source.value} but no {missing} was given")
        docs = []
        for hit in searches[source](query, k):
            if hit.doc_id not in corpus:
                raise DataError(f"document {hit.doc_id!r} missing from corpus")
            docs.append((hit.doc_id, corpus[hit.doc_id]))
        return source, docs

    if llm_config is None:
        return retrieve, mock_llm(io.load_qrels(args.mock_qrels))
    client = LlmClient(llm_config, log_path=args.llm_log)
    template = load_template(args.prompt_template) if args.prompt_template else DEFAULT_TEMPLATE
    return retrieve, api_llm(client, template, opts["prompt.passage_word_budget"])


def _nothing_pending(*_args):
    raise AssertionError("distill called a source or the teacher with no query pending")


def _cmd_distill(args, opts: dict) -> int:
    # 1. the checks that need only flags and option values, before any file is read
    k = _positive("--k", opts["retrieve.k"])
    max_in_flight = _positive("--max-in-flight", opts["llm.max_in_flight"])
    _positive("--passage-words", opts["prompt.passage_word_budget"])
    plan = WindowPlan(window=opts["window.size"], step=opts["window.step"])
    if args.monot5_scores:
        if args.run_monot5:
            print("warning: --monot5-scores overrides --run-monot5", file=sys.stderr)
        if not args.bm25_index:
            raise _UsageError("--monot5-scores needs --bm25-index to build the base run")
        if k > opts["compose.k_pool"]:
            raise ValueError(f"--k {k} must not exceed --k-pool {opts['compose.k_pool']}")
    llm_config = None
    if not args.mock_qrels:
        if not opts["llm.endpoint"]:
            raise _UsageError("either --mock-qrels or --endpoint is required")
        llm_config = LlmConfig(
            endpoint=opts["llm.endpoint"],
            model=opts["llm.model"],
            temperature=opts["llm.temperature"],
            retry=RetryPolicy(
                max_attempts=opts["llm.retry_max_attempts"],
                backoff_base=opts["llm.backoff_base"],
                backoff_factor=opts["llm.backoff_factor"],
            ),
            budget_usd=opts["llm.budget_usd"],
            prompt_price_per_1k=opts["llm.prompt_price_per_1k"],
            completion_price_per_1k=opts["llm.completion_price_per_1k"],
            timeout_s=opts["llm.timeout_s"],
        )

    # 2. the queries and the journal tell which queries are pending
    queries = io.load_queries(args.queries)
    completed = {}
    if args.journal and Path(args.journal).exists():
        completed = read_journal(args.journal)
    pending = [q for q in queries if q.query_id not in completed]

    # 3. the corpus, the sources and the teacher only if some query still needs them
    retrieve, llm = _nothing_pending, _nothing_pending
    if pending:
        retrieve, llm = _distill_backends(args, opts, pending, llm_config)
    result = distill(queries, retrieve, llm, journal_path=args.journal, plan=plan,
                     max_in_flight=max_in_flight, completed=completed)
    io.save_text(args.out, io.write_distilled(result.examples))
    print(
        f"distill: {len(result.examples)} examples ({result.n_labeled} newly labeled, "
        f"{len(result.failures)} failures) -> {args.out}"
    )
    for query_id, message in result.failures:
        print(f"  failed {query_id}: {message}", file=sys.stderr)
    return 0


def _cmd_train(args, opts: dict) -> int:
    feature = FeatureConfig(hash_dim=opts["feature.hash_dim"],
                            interaction_cap=opts["feature.interaction_cap"])
    config = _train_config(opts, args.seed, opts["train.docs"],
                           _choice(ScoreStrategy, opts["train.strategy"]),
                           _choice(KindFilter, opts["train.kind"]),
                           _source_or_none(opts["train.exclude_source"]))
    params = init_params(feature, hidden=opts["feature.hidden"], seed=args.init_seed)
    train_examples = io.load_distilled(args.train)
    val_examples = io.load_distilled(args.val) if args.val else []
    corpus = _corpus_map(args.corpus)
    # no name holds the store or the preparation, so each is freed once it is done with
    params, history = fit(config, prepare_fit(config, train_examples, val_examples, corpus,
                                              FeatureStore(feature)), params)
    save_checkpoint(params, config.strategy, args.checkpoint)
    if args.history:
        io.save_text(args.history, write_history(history))
    print(
        f"train: loss {history[0].train_loss:.4f} -> {history[-1].train_loss:.4f} "
        f"over {config.epochs} epochs; checkpoint -> {args.checkpoint}"
    )
    return 0


def _cmd_rerank(args, opts: dict) -> int:
    # the checks that need only flags, before any file is read
    if args.checkpoint and args.external_logits:
        raise _UsageError("rerank takes --checkpoint or --external-logits, not both")
    if not args.checkpoint and not args.external_logits:
        raise _UsageError("rerank needs --checkpoint or --external-logits")
    if args.checkpoint and not args.queries:
        raise _UsageError("reranking with a checkpoint requires --queries for query texts")
    tag = _run_tag(args.tag)
    strategy = _choice(ScoreStrategy, args.strategy) if args.strategy else None
    k_in, k_out = rerank_depths(opts["rerank.k_in"], opts["rerank.k_out"])
    run = io.load_run(args.run)
    if args.checkpoint:
        params, ckpt_strategy = load_checkpoint(args.checkpoint)
        queries = {q.query_id: q.text for q in io.load_queries(args.queries)}
        score_fn = model_score_fn(params, strategy or ckpt_strategy, queries,
                                  _corpus_map(args.corpus))
    else:
        logits = load_external_logits(io.lines_of(args.external_logits))
        score_fn = external_logit_score_fn(logits, strategy or ScoreStrategy.LOGIT_DIFFERENCE)
    reranked = rerank_run(run, score_fn, k_in=k_in, k_out=k_out)
    io.save_text(args.out, io.write_run(reranked, tag))
    print(f"rerank: {len(reranked)} queries, top {k_in} -> top {k_out} -> {args.out}")
    return 0


def _cmd_eval_ndcg(args, opts: dict) -> int:
    k = _positive("k", opts["eval.k"])
    report = evaluate_run(io.load_run(args.run), io.load_qrels(args.qrels), k)
    if args.per_query:
        io.save_text(args.per_query, io.write_per_query(report.per_query))
    print(f"ndcg@{k}: {report.mean:.6f} over {report.n_queries} queries")
    return 0


def _labeled_paths(pairs: list[str]) -> dict[str, str]:
    paths: dict[str, str] = {}
    for pair in pairs:
        label, sep, path = pair.partition("=")
        if not sep:
            raise _UsageError(f"expected label=path, got {pair!r}")
        if label in paths:
            raise _UsageError(f"run label {label!r} given twice")
        paths[label] = path
    return paths


def _load_runs(paths: dict[str, str]) -> dict[str, Run]:
    return {label: io.load_run(path) for label, path in paths.items()}


def _cmd_eval_intersection(args, opts: dict) -> int:
    n = _positive("n", opts["eval.n"])
    paths = _labeled_paths(args.run)
    if len(paths) < 2:
        raise _UsageError("eval intersection needs at least two --run")
    lower_paths = _labeled_paths(args.run_lower) if args.run_lower else None
    if lower_paths is not None and list(lower_paths) != list(paths):
        raise DataError("upper and lower run sets must use the same labels in the same order")
    labels, upper = intersection_matrix(_load_runs(paths), n)
    lower = None
    if lower_paths is not None:
        _, lower = intersection_matrix(_load_runs(lower_paths), n)
    text = format_intersection_tsv(labels, upper, lower)
    if args.out:
        io.save_text(args.out, text)
    print(text, end="")
    return 0


def _cmd_eval_ttest(args, opts: dict) -> int:
    a = io.read_per_query(io.lines_of(args.a), args.a)
    b = io.read_per_query(io.lines_of(args.b), args.b)
    p = paired_t_test(a, b)
    print(f"paired t-test two-sided p = {p:.6g}")
    return 0


_ABLATION_STRATEGIES = (ScoreStrategy.LOGIT_DIFFERENCE, ScoreStrategy.SINGLE_LOGIT)
_ABLATION_DOCS = (10, 20, 30)
_ABLATION_KINDS = (KindFilter.MIXED, KindFilter.CROPPED_ONLY, KindFilter.GENERATED_ONLY)
_ABLATION_SOURCES = (None,) + SOURCES


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork workers."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


_task = None  # the function a forked worker runs, set by its initializer


def _set_task(task) -> None:
    global _task
    _task = task


def _call_task(item):
    return _task(item)


@contextlib.contextmanager
def _mapper(task, workers: int):
    """A ``map`` of ``task`` that yields results in item order: over
    ``workers`` forked workers when that is two or more, else in this
    process. Workers inherit ``task`` and all it reads, so only the items and
    the results cross the pipe. Every worker has exited when the block ends,
    on any path."""
    if workers < 2:
        yield functools.partial(map, task)
        return
    # imported here, so that a command that forks no worker does not pay for it
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    pool = ProcessPoolExecutor(workers, mp_context=get_context("fork"),
                               initializer=_set_task, initargs=(task,))
    try:
        yield functools.partial(pool.map, _call_task)
    finally:
        pool.shutdown(cancel_futures=True)


def _cmd_ablate(args, opts: dict) -> int:
    # the checks that need only option values, before any file is read: one
    # config checks the train.* values every cell shares
    _train_config(opts, args.seed, _ABLATION_DOCS[0], _ABLATION_STRATEGIES[0],
                  _ABLATION_KINDS[0], None)
    k_in, _ = rerank_depths(opts["rerank.k_in"])
    k = _positive("k", opts["eval.k"])
    feature = FeatureConfig(hash_dim=opts["feature.hash_dim"],
                            interaction_cap=opts["feature.interaction_cap"])
    # every cell starts from the same draw; fit updates it in place, so each cell copies it
    initial = init_params(feature, hidden=opts["feature.hidden"], seed=args.init_seed)
    train_examples = io.load_distilled(args.train)
    corpus = _corpus_map(args.corpus)
    queries = {q.query_id: q.text for q in io.load_queries(args.queries)}
    qrels = io.load_qrels(args.qrels)
    base_run = io.load_run(args.base_run)

    groups = [(docs, kind, source) for docs in _ABLATION_DOCS for kind in _ABLATION_KINDS
              for source in _ABLATION_SOURCES]
    n_cells = len(_ABLATION_STRATEGIES) * len(groups)
    trainable = [bool(filter_examples(train_examples, kind, source)) for _, kind, source in groups]
    # every trained cell reranks each ranked query's top k_in, so a query with no
    # text is refused before any cell trains
    ranked = base_run if any(trainable) else {}
    for query_id in ranked:
        if query_id not in queries:
            raise DataError(f"query {query_id!r} has no text available for scoring")
    # the cells train and rerank on the same pairs: featurize each once, before any
    # cell runs, so that the cells, here or in forked workers, only read what the
    # fill made
    store = FeatureStore(feature)
    for example in train_examples:
        store.ids(example.query_text, example.doc_ids, corpus)
    # the evaluation lists join the fill and are gathered once the store is trimmed,
    # as in prepare_fit, so that their matrices never sit beside a growth of the store
    ids = {query_id: store.ids(queries[query_id], [e.doc_id for e in entries[:k_in]], corpus)
           for query_id, entries in ranked.items()}
    store.trim()  # the workers inherit the store as it is at the fork
    evaluation = {query_id: store.take(row_ids) for query_id, row_ids in ids.items()}

    def run_group(group_no: int) -> tuple[list[tuple[int, str, str, str]], Exception | None]:
        """Each strategy's cell of one (documents, kind, source) group as
        (cell number, grid row, status, stderr line), and the error other
        than a divergence that ended the group, if one did."""
        docs, kind, source = groups[group_no]
        cells, prepared = [], None
        try:
            for i, strategy in enumerate(_ABLATION_STRATEGIES):
                cell_no = 1 + i * len(groups) + group_no
                cell = f"{strategy.value}\t{docs}\t{kind.value}\t{source.value if source else 'none'}"
                # a filter that leaves no training examples skips its cell, not the grid
                if not trainable[group_no]:
                    cells.append((cell_no, f"{cell}\tnan\tnan\n", "skipped",
                                  f"[{cell_no}/{n_cells}] skipped, no training examples left "
                                  f"after kind/source filtering: {cell}\n"))
                    continue
                config = _train_config(opts, args.seed, docs, strategy, kind, source)
                prepared = prepared or prepare_fit(config, train_examples, [], corpus, store)
                stage = ""
                try:
                    # the grid reads the final loss only, so fit evaluates no other epoch
                    params, history = fit(config, prepared, copy.deepcopy(initial), False)
                    stage = "in the rerank, "
                    # the rerank of `rerank`, over the lists gathered before the fork: one
                    # forward per list, so every score has the bits of a per-list forward
                    reranked = rerank_run(base_run, lambda query_id, _: score_batch(
                        forward(params, evaluation[query_id])[2], strategy), k_in=k_in, k_out=k_in)
                except NonFiniteError as exc:  # a diverged cell fails alone, like a skipped one
                    cells.append((cell_no, f"{cell}\tnan\tnan\n", "failed",
                                  f"[{cell_no}/{n_cells}] failed, {stage}{exc}: {cell}\n"))
                    continue
                report = evaluate_run(reranked, qrels, k)
                row = f"{cell}\t{report.mean:.6f}\t{history[-1].train_loss:.6f}\n"
                cells.append((cell_no, row, "trained",
                              f"[{cell_no}/{n_cells}] {row}" if args.verbose else ""))
        except Exception as exc:  # raised once the group's earlier cells are reported
            return cells, exc
        return cells, None

    rows = ["strategy\tdocs\tkind\texcluded_source\tndcg\tfinal_train_loss\n"] + [""] * n_cells
    trained = failed = 0
    # grid.tsv lists the cells strategy by strategy, but they run group by group, so
    # that the strategies of a (documents, kind, source) group share one preparation,
    # and the groups are handed out from the most documents down, the slowest first
    order = sorted(range(len(groups)), key=lambda g: -groups[g][0])
    with _mapper(run_group, min(_usable_cpus(), sum(trainable))) as run:
        for cells, error in run(order):
            for cell_no, row, status, line in cells:
                rows[cell_no] = row
                trained += status != "skipped"
                failed += status == "failed"
                print(line, end="", file=sys.stderr)
            if error is not None:
                raise error
    io.save_text(args.out, "".join(rows))
    print(f"ablate: {n_cells} cells -> {args.out}")
    if failed and failed == trained:
        raise DataError(f"all {failed} trained cells failed, {n_cells - failed} skipped")
    return 0


# ---------------------------------------------------------------- parser


def _add_options(p: argparse.ArgumentParser, keys: list[str], overrides: dict | None = None) -> None:
    """Attach option-table keys, with ``overrides`` of their defaults, to a subcommand."""
    defaults = {key: OPTIONS[key].default for key in keys} | (overrides or {})
    file_only = []
    for key, default in defaults.items():
        option = OPTIONS[key]
        flag = "--" + key.rpartition(".")[2].replace("_", "-") if option.flag == "" else option.flag
        shown = f"{option.help} [{key}] (default: {default})"
        if flag is None:
            file_only.append(shown)
            continue
        # a flag not given sets no attribute, so resolve() falls through to the file
        p.add_argument(flag, dest=key, default=argparse.SUPPRESS, help=shown, type=option.type,
                       metavar=flag[2:].upper().replace("-", "_"))
    if file_only:
        p.epilog = "set only in the --config file: " + "; ".join(file_only)
    p.set_defaults(options=defaults)


def build_parser() -> _Parser:
    parser = _Parser(prog="distilrank", description=__doc__)
    parser.add_argument("--config", help="key = value configuration file", default=None)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("synth", help="generate the seeded synthetic benchmark")
    p.add_argument("--topics", type=int, default=8)
    p.add_argument("--docs", type=int, default=400)
    p.add_argument("--train-queries", type=int, default=64)
    p.add_argument("--eval-queries", type=int, default=16)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_synth)

    p_index = sub.add_parser("index", help="inverted index operations")
    sub_index = p_index.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    p = sub_index.add_parser("build", help="build and save a BM25 index")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    _add_options(p, ["bm25.k1", "bm25.b"])
    p.set_defaults(func=_cmd_index_build)

    p = sub.add_parser("retrieve", help="run a first-stage retriever over queries")
    p.add_argument("--method", choices=["bm25", "dense", "runfile"], required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tag", default=None)
    p.add_argument("--index", help="bm25: saved index file")
    p.add_argument("--store", help="dense: document vectors jsonl")
    p.add_argument("--query-vectors", help="dense: query vectors jsonl (doc_id field holds the query_id)")
    p.add_argument("--run", help="runfile: precomputed TREC run")
    _add_options(p, ["retrieve.k"])
    p.set_defaults(func=_cmd_retrieve)

    p_augment = sub.add_parser("augment", help="build training queries")
    sub_augment = p_augment.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    p = sub_augment.add_parser("crop", help="crop sentences from the corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_options(p, ["crop.min_tokens", "crop.max_tokens"])
    p.set_defaults(func=_cmd_augment_crop)
    p = sub_augment.add_parser("load-generated", help="sample from a generated-query pool")
    p.add_argument("--pool", required=True, help="TSV doc_id<TAB>query_text")
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_augment_load_generated)

    p = sub.add_parser("assign-sources", help="deal queries round-robin across the four sources")
    p.add_argument("--queries", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_assign_sources)

    p = sub.add_parser("distill", help="label pooled documents with the teacher")
    p.add_argument("--queries", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--assignment", help="TSV query_id<TAB>source; default assigns BM25")
    p.add_argument("--bm25-index")
    p.add_argument("--run-splade")
    p.add_argument("--run-dragon")
    p.add_argument("--run-monot5")
    p.add_argument("--monot5-scores", help="TSV qid/docid/score to compose BM25+scorer on the fly")
    p.add_argument("--mock-qrels", help="use the deterministic oracle teacher over these qrels")
    p.add_argument("--prompt-template", help="JSON template file")
    p.add_argument("--journal", help="resumable completion journal")
    p.add_argument("--llm-log", help="request/response log file")
    p.add_argument("--out", required=True)
    _add_options(p, ["retrieve.k", "compose.k_pool", "prompt.passage_word_budget",
                     "window.size", "window.step", *(k for k in OPTIONS if k.startswith("llm."))])
    p.set_defaults(func=_cmd_distill)

    p = sub.add_parser("split", help="stratified train/validation split")
    p.add_argument("--distilled", required=True)
    p.add_argument("--n-val", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-val", required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", help="train the scorer with RankNet + AdamW")
    p.add_argument("--train", required=True)
    p.add_argument("--val")
    p.add_argument("--corpus", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init-seed", type=int, default=0)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--history")
    _add_options(p, [k for k in OPTIONS if k.startswith(("train.", "feature."))])
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("rerank", help="rerank a run with a checkpoint or external logits")
    p.add_argument("--run", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", help="query texts (needed with --checkpoint)")
    p.add_argument("--checkpoint")
    p.add_argument("--external-logits")
    p.add_argument("--strategy", default=None)
    p.add_argument("--tag", default="reranked")
    p.add_argument("--out", required=True)
    _add_options(p, ["rerank.k_in", "rerank.k_out"])
    p.set_defaults(func=_cmd_rerank)

    p_eval = sub.add_parser("eval", help="evaluation statistics")
    sub_eval = p_eval.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    p = sub_eval.add_parser("ndcg", help="nDCG@k of a run against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--per-query", help="write per-query TSV here")
    _add_options(p, ["eval.k"])
    p.set_defaults(func=_cmd_eval_ndcg)
    p = sub_eval.add_parser("intersection", help="pairwise top-n intersection rates")
    p.add_argument("--run", action="append", required=True, metavar="LABEL=PATH")
    p.add_argument("--run-lower", action="append", metavar="LABEL=PATH",
                   help="second query kind for the lower triangle")
    p.add_argument("--out")
    _add_options(p, ["eval.n"])
    p.set_defaults(func=_cmd_eval_intersection)
    p = sub_eval.add_parser("ttest", help="two-sided paired t-test over per-query TSVs")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=_cmd_eval_ttest)

    p = sub.add_parser("ablate", help="train/evaluate the full ablation grid")
    p.add_argument("--train", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True, help="evaluation queries")
    p.add_argument("--qrels", required=True)
    p.add_argument("--base-run", required=True, help="first-stage run to rerank")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init-seed", type=int, default=0)
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--out", required=True)
    # smaller defaults than train and rerank: the grid runs 90 fits
    _add_options(p, ["eval.k", "rerank.k_in", "train.batch", "train.lr", "train.epochs",
                     "train.beta1", "train.beta2", "train.eps", "train.weight_decay",
                     "feature.hash_dim", "feature.hidden", "feature.interaction_cap"],
                 {"train.batch": 8, "train.epochs": 5, "feature.hash_dim": 1 << 14,
                  "feature.hidden": 32, "rerank.k_in": 30})
    p.set_defaults(func=_cmd_ablate)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser tree, built on the first dispatch and reused by every later
    one: argparse keeps no state between parses, and every parse starts from
    a new namespace filled with the declared defaults. The tree holds each
    subcommand's handler as it was when the tree was built."""
    return build_parser()


def dispatch(argv: list[str] | None = None) -> int:
    """Run one subcommand; returns the process exit status."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    if not getattr(args, "func", None):
        parser.print_help()
        return 1
    try:
        opts = resolve(getattr(args, "options", {}), vars(args), CliConfig.load(args.config))
        return args.func(args, opts)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (BudgetError, TransportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()

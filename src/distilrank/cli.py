"""Command-line interface: every pipeline stage as a subcommand of one binary.

Exit status: 0 success, 1 usage error, 2 data error, 3 transport or budget
error. Stages hand files to each other; all randomness is seeded from --seed.
"""

from __future__ import annotations

import argparse
import copy
import sys
from pathlib import Path

from . import io
from .augment import (
    CropConfig,
    assign_sources,
    crop_sentences,
    load_generated,
    parse_assignment,
    split_dataset,
    write_assignment,
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
    rerank_run,
    write_per_query,
)
from .llm import LlmClient, LlmConfig, RetryPolicy
from .retrieval import (
    RunfileSearcher,
    build_index,
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
    init_params,
    load_checkpoint,
    load_external_logits,
    save_checkpoint,
)
from .training import KindFilter, TrainConfig, filter_examples, fit, prepare_fit, write_history
from .types import SOURCES, Query, Run, Source, validate_run
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


def _load_per_query_tsv(path: str) -> dict[str, float]:
    values: dict[str, float] = {}
    line_of: dict[str, int] = {}
    for lineno, (query_id, raw) in io.records(io.lines_of(path), path, 2):
        io.require_new(line_of, query_id, lineno, path, "query")
        values[query_id] = io.number(raw, path, lineno, "value")
    return values


def _run_tag(tag: str) -> str:
    """``tag``, if a run file written with it reads back: one field, not empty."""
    if tag.split() != [tag]:
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
    io.save_text(
        out / "genpool.tsv",
        "".join(f"{doc_id}\t{text}\n" for doc_id, text in bench.generated_pool),
    )
    print(
        f"synth: {len(bench.corpus)} docs, {len(bench.train_queries)} train + "
        f"{len(bench.eval_queries)} eval queries, {len(bench.qrels)} qrels -> {out}"
    )
    return 0


def _cmd_index_build(args, opts: dict) -> int:
    k1, b = opts["bm25.k1"], opts["bm25.b"]
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
    tag = _run_tag(args.method if args.tag is None else args.tag)
    queries = io.load_queries(args.queries)
    searcher = None
    if args.method == "bm25":
        if not args.index:
            raise _UsageError("--method bm25 requires --index")
        search = _bm25_search(load_index(args.index))
    elif args.method == "dense":
        if not args.store or not args.query_vectors:
            raise _UsageError("--method dense requires --store and --query-vectors")
        store = load_dense_store(io.lines_of(args.store))
        qvecs = load_dense_store(io.lines_of(args.query_vectors))
        qrow = {query_id: row for row, query_id in enumerate(qvecs.doc_ids)}

        def search(query, k):
            if query.query_id not in qrow:
                raise DataError(f"no vector for query {query.query_id!r}")
            return search_dense(store, qvecs.matrix[qrow[query.query_id]], k)
    else:  # runfile
        if not args.run:
            raise _UsageError("--method runfile requires --run")
        searcher = RunfileSearcher(io.load_run(args.run))
        search = _runfile_search(searcher)
    run = _search_run(search, queries, opts["retrieve.k"])
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
    io.save_text(args.out, write_assignment(assignment))
    counts: dict[str, int] = {}
    for q in queries:
        key = f"{q.kind.value}/{assignment[q.query_id].value}"
        counts[key] = counts.get(key, 0) + 1
    print("assign-sources: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return 0


def _cmd_split(args, opts: dict) -> int:
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
    assignment = parse_assignment(io.lines_of(args.assignment)) if args.assignment else {}
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
    k, max_in_flight = opts["retrieve.k"], opts["llm.max_in_flight"]
    if k < 1:
        raise ValueError(f"--k must be >= 1, got {k}")
    if max_in_flight < 1:
        raise ValueError(f"--max-in-flight must be >= 1, got {max_in_flight}")
    if opts["prompt.passage_word_budget"] < 1:
        raise ValueError(f"--passage-words must be >= 1, got {opts['prompt.passage_word_budget']}")
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
    train_examples = io.load_distilled(args.train)
    val_examples = io.load_distilled(args.val) if args.val else []
    corpus = _corpus_map(args.corpus)
    feature = FeatureConfig(hash_dim=opts["feature.hash_dim"],
                            interaction_cap=opts["feature.interaction_cap"])
    config = _train_config(opts, args.seed, opts["train.docs"],
                           _choice(ScoreStrategy, opts["train.strategy"]),
                           _choice(KindFilter, opts["train.kind"]),
                           _source_or_none(opts["train.exclude_source"]))
    params = init_params(feature, hidden=opts["feature.hidden"], seed=args.init_seed)
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
    tag = _run_tag(args.tag)
    run = io.load_run(args.run)
    k_in = opts["rerank.k_in"]
    k_out = k_in if opts["rerank.k_out"] is None else opts["rerank.k_out"]
    if args.checkpoint:
        params, ckpt_strategy = load_checkpoint(args.checkpoint)
        strategy = _choice(ScoreStrategy, args.strategy) if args.strategy else ckpt_strategy
        if not args.queries:
            raise _UsageError("reranking with a checkpoint requires --queries for query texts")
        queries = {q.query_id: q.text for q in io.load_queries(args.queries)}
        score_fn = model_score_fn(params, strategy, queries, _corpus_map(args.corpus))
    elif args.external_logits:
        strategy = (_choice(ScoreStrategy, args.strategy) if args.strategy
                    else ScoreStrategy.LOGIT_DIFFERENCE)
        logits = load_external_logits(io.lines_of(args.external_logits))
        score_fn = external_logit_score_fn(logits, strategy)
    else:
        raise _UsageError("rerank needs --checkpoint or --external-logits")
    reranked = rerank_run(run, score_fn, k_in=k_in, k_out=k_out)
    io.save_text(args.out, io.write_run(reranked, tag))
    print(f"rerank: {len(reranked)} queries, top {k_in} -> top {k_out} -> {args.out}")
    return 0


def _cmd_eval_ndcg(args, opts: dict) -> int:
    k = opts["eval.k"]
    report = evaluate_run(io.load_run(args.run), io.load_qrels(args.qrels), k)
    if args.per_query:
        io.save_text(args.per_query, write_per_query(report))
    print(f"ndcg@{k}: {report.mean:.6f} over {report.n_queries} queries")
    return 0


def _parse_labeled_runs(pairs: list[str]) -> dict[str, Run]:
    runs: dict[str, Run] = {}
    for pair in pairs:
        label, sep, path = pair.partition("=")
        if not sep:
            raise _UsageError(f"expected label=path, got {pair!r}")
        if label in runs:
            raise _UsageError(f"run label {label!r} given twice")
        runs[label] = io.load_run(path)
    return runs


def _cmd_eval_intersection(args, opts: dict) -> int:
    n = opts["eval.n"]
    runs = _parse_labeled_runs(args.run)
    labels, upper = intersection_matrix(runs, n)
    lower = None
    if args.run_lower:
        lower_runs = _parse_labeled_runs(args.run_lower)
        lower_labels, lower = intersection_matrix(lower_runs, n)
        if lower_labels != labels:
            raise DataError("upper and lower run sets must use the same labels in the same order")
    text = format_intersection_tsv(labels, upper, lower)
    if args.out:
        io.save_text(args.out, text)
    print(text, end="")
    return 0


def _cmd_eval_ttest(args, opts: dict) -> int:
    a = _load_per_query_tsv(args.a)
    b = _load_per_query_tsv(args.b)
    p = paired_t_test(a, b)
    print(f"paired t-test two-sided p = {p:.6g}")
    return 0


_ABLATION_STRATEGIES = (ScoreStrategy.LOGIT_DIFFERENCE, ScoreStrategy.SINGLE_LOGIT)
_ABLATION_DOCS = (10, 20, 30)
_ABLATION_KINDS = (KindFilter.MIXED, KindFilter.CROPPED_ONLY, KindFilter.GENERATED_ONLY)
_ABLATION_SOURCES = (None,) + SOURCES


def _cmd_ablate(args, opts: dict) -> int:
    train_examples = io.load_distilled(args.train)
    corpus = _corpus_map(args.corpus)
    queries = {q.query_id: q.text for q in io.load_queries(args.queries)}
    qrels = io.load_qrels(args.qrels)
    base_run = io.load_run(args.base_run)
    k_in = opts["rerank.k_in"]
    feature = FeatureConfig(hash_dim=opts["feature.hash_dim"],
                            interaction_cap=opts["feature.interaction_cap"])
    # every cell trains and reranks on the same pairs: featurize each once
    store = FeatureStore(feature)
    # and starts from the same draw; fit updates it in place, so each cell copies it
    initial = init_params(feature, hidden=opts["feature.hidden"], seed=args.init_seed)

    groups = [(docs, kind, source) for docs in _ABLATION_DOCS for kind in _ABLATION_KINDS
              for source in _ABLATION_SOURCES]
    n_cells = len(_ABLATION_STRATEGIES) * len(groups)
    rows = ["strategy\tdocs\tkind\texcluded_source\tndcg\tfinal_train_loss\n"] + [""] * n_cells
    trained = failed = 0
    # grid.tsv lists the cells strategy by strategy, but they run group by group, so
    # that the strategies of a (documents, kind, source) group share one preparation,
    # and from the most documents down, so that the first group featurizes each pool
    # whole and the smaller subsets find their pairs in the store
    for group_no, (docs, kind, source) in sorted(enumerate(groups), key=lambda g: -g[1][0]):
        prepared = None  # frees the previous group's before this one's is made
        for i, strategy in enumerate(_ABLATION_STRATEGIES):
            cell_no = 1 + i * len(groups) + group_no
            cell = f"{strategy.value}\t{docs}\t{kind.value}\t{source.value if source else 'none'}"
            rows[cell_no] = f"{cell}\tnan\tnan\n"  # unless the cell trains
            # a filter that leaves no training examples skips its cell, not the grid
            if not filter_examples(train_examples, kind, source):
                print(f"[{cell_no}/{n_cells}] skipped, no training examples left after "
                      f"kind/source filtering: {cell}", file=sys.stderr)
                continue
            trained += 1
            config = _train_config(opts, args.seed, docs, strategy, kind, source)
            prepared = prepared or prepare_fit(config, train_examples, [], corpus, store)
            stage = ""
            try:
                # the grid reads the final loss only, so fit evaluates no other epoch
                params, history = fit(config, prepared, copy.deepcopy(initial), False)
                stage = "in the rerank, "
                score_fn = model_score_fn(params, strategy, queries, corpus, store)
                reranked = rerank_run(base_run, score_fn, k_in=k_in, k_out=k_in)
            except NonFiniteError as exc:  # a diverged cell fails alone, like a skipped one
                failed += 1
                print(f"[{cell_no}/{n_cells}] failed, {stage}{exc}: {cell}", file=sys.stderr)
                continue
            report = evaluate_run(reranked, qrels, opts["eval.k"])
            rows[cell_no] = f"{cell}\t{report.mean:.6f}\t{history[-1].train_loss:.6f}\n"
            if args.verbose:
                print(f"[{cell_no}/{n_cells}] {rows[cell_no]}", end="", file=sys.stderr)
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


def dispatch(argv: list[str] | None = None) -> int:
    """Run one subcommand; returns the process exit status."""
    parser = build_parser()
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

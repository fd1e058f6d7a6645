"""Evaluation: nDCG@k with trec_eval conventions, run-level reports, the
pairwise intersection-rate diversity statistic, a paired two-sided t-test,
and model-based reranking of runs.

nDCG uses exponential gains (2^rel - 1) and log2(p + 1) discounts; the ideal
DCG comes from all judged documents of the query, not just retrieved ones.
Queries with no positive grade score 0 and still count toward the mean.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy import special

from .errors import DataError
from .io import pair_lookup
from .scorer import (
    ScorerParams,
    ScoreStrategy,
    TermTable,
    featurize_batch,
    forward,
    score_batch,
)
from .types import Qrels, Run, ScoredDoc, validate_run

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EvalReport:
    per_query: dict[str, float]
    mean: float
    k: int
    n_queries: int


def ndcg_at_k(ranked_doc_ids: Sequence[str], query_qrels: Mapping[str, int], k: int,
              query_id: str = "?") -> float:
    """nDCG@k of one ranking against the grades of query ``query_id``; unjudged
    docs count 0. A grade whose gain, DCG or ideal DCG is not a finite float
    is a DataError."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    dcg = 0.0
    # float gains equal the integer 2^rel - 1 rounded to a float, and a grade of
    # 1024 or more overflows at once rather than building a huge integer first
    try:
        for pos, doc_id in enumerate(ranked_doc_ids[:k], 1):
            dcg += (2.0 ** query_qrels.get(doc_id, 0) - 1.0) / math.log2(pos + 1)
        idcg = 0.0
        for pos, g in enumerate(sorted(query_qrels.values(), reverse=True)[:k], 1):
            idcg += (2.0 ** g - 1.0) / math.log2(pos + 1)
    except OverflowError:
        dcg = idcg = math.inf
    if not (math.isfinite(dcg) and math.isfinite(idcg)):
        raise DataError(f"query {query_id}: nDCG over relevance grades up to "
                        f"{max(query_qrels.values())} is not a finite float")
    if idcg == 0.0:
        return 0.0
    return dcg / idcg


def evaluate_run(run: Run, qrels: Qrels, k: int = 10) -> EvalReport:
    """nDCG@k per judged query; queries missing from the run contribute 0."""
    per_query: dict[str, float] = {}
    for qid, grades in qrels.by_query.items():
        per_query[qid] = ndcg_at_k([doc_id for doc_id, _ in run.get(qid, [])], grades, k, qid)
    total = 0.0
    for value in per_query.values():  # left to right, not compensated as sum is on 3.12+
        total += value
    mean = total / len(per_query) if per_query else 0.0
    return EvalReport(per_query=per_query, mean=mean, k=k, n_queries=len(per_query))


def intersection_rate(run_a: Run, run_b: Run, n: int = 30) -> float:
    """Mean over shared queries of |top-n(a) set intersect top-n(b) set| / n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    shared = sorted(set(run_a) & set(run_b))
    if not shared:
        raise DataError("the two runs share no queries")
    if len(shared) != len(run_a) or len(shared) != len(run_b):
        logger.warning(
            "runs have asymmetric query sets (%d and %d, %d shared); averaging over the shared set",
            len(run_a), len(run_b), len(shared),
        )
    total = 0.0
    for qid in shared:
        set_a = {doc_id for doc_id, _ in run_a[qid][:n]}
        set_b = {doc_id for doc_id, _ in run_b[qid][:n]}
        total += len(set_a & set_b) / n
    return total / len(shared)


def intersection_matrix(runs: Mapping[str, Run], n: int = 30) -> tuple[list[str], np.ndarray]:
    """Symmetric pairwise intersection-rate matrix; the diagonal is NaN."""
    labels = list(runs)
    if len(labels) < 2:
        raise DataError("need at least two runs for an intersection matrix")
    size = len(labels)
    matrix = np.full((size, size), np.nan)
    for i in range(size):
        for j in range(i + 1, size):
            rate = intersection_rate(runs[labels[i]], runs[labels[j]], n)
            matrix[i, j] = rate
            matrix[j, i] = rate
    return labels, matrix


def format_intersection_tsv(
    labels: Sequence[str],
    upper: np.ndarray,
    lower: np.ndarray | None = None,
) -> str:
    """Render a matrix as TSV; with two matrices, the upper triangle comes from
    ``upper`` and the lower triangle from ``lower`` (the two query kinds)."""
    if lower is None:
        lower = upper
    out = ["\t".join([""] + list(labels)) + "\n"]
    for i, row_label in enumerate(labels):
        cells = [row_label]
        for j in range(len(labels)):
            if i == j:
                cells.append("-")
            elif i < j:
                cells.append(f"{upper[i, j]:.3f}")
            else:
                cells.append(f"{lower[i, j]:.3f}")
        out.append("\t".join(cells) + "\n")
    return "".join(out)


def paired_t_test(per_query_a: Mapping[str, float], per_query_b: Mapping[str, float]) -> float:
    """Two-sided paired t-test p-value over matched per-query scores.

    Degenerate case: all differences zero gives p = 1.0; zero spread with a
    nonzero mean gives p = 0.0.
    """
    if set(per_query_a) != set(per_query_b):
        raise DataError("paired t-test requires identical query keys")
    keys = sorted(per_query_a)
    if len(keys) < 2:
        raise DataError(f"paired t-test needs at least 2 queries, got {len(keys)}")
    d = np.array([per_query_a[k] - per_query_b[k] for k in keys])
    sd = d.std(ddof=1)
    if sd == 0.0:
        return 1.0 if np.all(d == 0.0) else 0.0
    t = d.mean() / (sd / math.sqrt(len(d)))
    # Student's t survival function, sf(|t|, df) = stdtr(df, -|t|), without the
    # cost of importing scipy.stats
    return float(2.0 * special.stdtr(len(d) - 1, -abs(t)))


# scores a query's candidates in one call: (query_id, doc_ids) -> one score per doc_id
ScoreFn = Callable[[str, Sequence[str]], Sequence[float]]


def rerank_depths(k_in: int, k_out: int | None = None) -> tuple[int, int]:
    """``(k_in, k_out)`` of a rerank, k_out defaulting to k_in, once both are checked."""
    if k_out is None:
        k_out = k_in
    if k_in < 1 or k_out < 1:
        raise ValueError(f"k_in and k_out must be >= 1, got k_in={k_in}, k_out={k_out}")
    if k_out > k_in:
        raise ValueError(f"k_out={k_out} must not exceed k_in={k_in}")
    return k_in, k_out


def rerank_run(
    run: Run,
    score_fn: ScoreFn,
    k_in: int = 100,
    k_out: int | None = None,
) -> Run:
    """Re-score the top-k_in of each query with one ``score_fn(query_id, doc_ids)``
    call and emit the top-k_out, ties broken by ascending doc_id."""
    k_in, k_out = rerank_depths(k_in, k_out)
    reranked: Run = {}
    for qid, docs in run.items():
        doc_ids = [doc_id for doc_id, _ in docs[:k_in]]
        scores = score_fn(qid, doc_ids)
        rescored = [ScoredDoc(doc_id, float(s)) for doc_id, s in zip(doc_ids, scores, strict=True)]
        rescored.sort(key=lambda d: (-d.score, d.doc_id))
        reranked[qid] = rescored[:k_out]
    validate_run(reranked)
    return reranked


def model_score_fn(
    params: ScorerParams,
    strategy: ScoreStrategy,
    queries: Mapping[str, str],
    corpus: Mapping[str, str],
) -> ScoreFn:
    """Score function that featurizes a query's documents and forwards them
    through the trained scorer as one batch: float32 rows through the float32
    parameters of a checkpoint, so no product widens, then float64 scores
    (`score_batch`).

    The function keeps a `TermTable` for its whole life, so each term and
    document is resolved once across queries, but it keeps no pair rows: its
    memory is bounded by the corpus, not by the number of pairs scored.
    """
    table = TermTable(params.feature)

    def fn(query_id: str, doc_ids: Sequence[str]) -> np.ndarray:
        if query_id not in queries:
            raise DataError(f"query {query_id!r} has no text available for scoring")
        _, _, z = forward(params, featurize_batch(queries[query_id], doc_ids, corpus, table))
        return score_batch(z, strategy)

    return fn


def external_logit_score_fn(
    logit_map: Mapping[str, Mapping[str, tuple[float, float]]],
    strategy: ScoreStrategy,
) -> ScoreFn:
    """Score function over externally computed ``{qid: {docid: (z_true,
    z_false)}}``, scored as one (n, 2) array per query like the student's."""

    lookup = pair_lookup(logit_map, "external logits")

    def fn(query_id: str, doc_ids: Sequence[str]) -> np.ndarray:
        return score_batch(np.reshape(lookup(query_id, doc_ids), (-1, 2)), strategy)

    return fn

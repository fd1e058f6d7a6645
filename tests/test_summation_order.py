"""Float sums that give the same bits on every CPython version.

From CPython 3.12 on, builtin ``sum`` of floats is compensated, so it can
differ from adding left to right in the last bits. Each test runs a function
once as it is and once with ``sum`` in its module's namespace shadowed by
``math.fsum`` (an exactly rounded sum, which differs from left to right on
these inputs), and asserts that the output does not change: the function adds
its floats with an explicit loop.
"""

import math

import numpy as np
import scipy.sparse as sp

from distilrank import evaluation, training
from distilrank.evaluation import evaluate_run, ndcg_at_k
from distilrank.scorer import FeatureConfig, ScoreStrategy, forward, init_params, score_batch
from distilrank.training import ExampleStack, batch_loss, ranknet_loss
from distilrank.types import Qrels, ScoredDoc


def left_to_right(values):
    total = 0.0
    for value in values:
        total += value
    return total


def differ(values):
    return math.fsum(values) != left_to_right(values)


def test_batch_loss_adds_losses_left_to_right(monkeypatch):
    rng = np.random.default_rng(5)
    doc_counts = [5, 9, 3, 7, 4, 8]
    params = init_params(FeatureConfig(hash_dim=64), hidden=8, seed=0)
    # the float64 draws that init_params rounds to float32, on which these
    # losses are known to add differently left to right and exactly rounded
    draws = np.random.default_rng(0)
    params.w1 = draws.normal(0.0, 0.05, size=(64, 8))
    params.w2 = draws.normal(0.0, 1.0 / np.sqrt(8), size=(8, 2))
    rows = sp.random_array((sum(doc_counts), 64), density=0.2, format="csr", rng=rng,
                           data_sampler=lambda size: rng.integers(-3, 4, size).astype(float))
    batch = ExampleStack(sp.csr_array(rows), np.cumsum([0] + doc_counts),
                         np.concatenate([rng.permutation(m) + 1 for m in doc_counts]))
    strategy = ScoreStrategy.LOGIT_DIFFERENCE
    scores = score_batch(forward(params, batch.rows)[2], strategy)
    losses = [ranknet_loss(scores[lo:hi], batch.ranks[lo:hi])
              for lo, hi in zip(batch.bounds[:-1], batch.bounds[1:])]
    assert differ(losses)
    want = batch_loss(params, batch, strategy)
    monkeypatch.setattr(training, "sum", math.fsum, raising=False)
    assert batch_loss(params, batch, strategy) == want == left_to_right(losses) / len(batch)


def test_ideal_dcg_adds_gains_left_to_right(monkeypatch):
    grades = {f"d{i}": g for i, g in enumerate([3, 2, 2, 1, 1, 1, 1, 1, 1, 1])}
    assert differ([(2.0 ** g - 1.0) / math.log2(pos + 1)
                   for pos, g in enumerate(sorted(grades.values(), reverse=True), 1)])
    ranking = ["d9", "d0", "d8", "d1"]
    want = ndcg_at_k(ranking, grades, 10)
    monkeypatch.setattr(evaluation, "sum", math.fsum, raising=False)
    assert ndcg_at_k(ranking, grades, 10) == want


def test_mean_ndcg_adds_queries_left_to_right(monkeypatch):
    grades = {"d1": 1, "d2": 1, "d3": 1}
    run = {f"q{i}": [ScoredDoc(doc, float(-rank)) for rank, doc in enumerate(order)]
           for i, order in enumerate([["d1", "x"], ["x", "y", "z", "d2"], ["x", "y", "d1"]])}
    qrels = Qrels({qid: dict(grades) for qid in run})
    report = evaluate_run(run, qrels, 10)
    assert differ(list(report.per_query.values()))
    monkeypatch.setattr(evaluation, "sum", math.fsum, raising=False)
    assert evaluate_run(run, qrels, 10).mean == report.mean

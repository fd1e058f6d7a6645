"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing one pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

The end-to-end gate (criterion 9) was frozen after validating, on the same
seed, that the oracle-reranked pool reaches nDCG@10 = 1.0 and the raw BM25
ordering sits near 0.80, leaving the trained scorer ample headroom over the
required +0.05.
"""

import hashlib
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from distilrank import io
from distilrank.augment import assign_sources, split_dataset
from distilrank.cli import dispatch
from distilrank.distill import (
    WindowPlan,
    distill,
    format_order,
    mock_llm,
    order_from_ranks,
    parse_permutation,
)
from distilrank.evaluation import evaluate_run, intersection_matrix, intersection_rate, ndcg_at_k
from distilrank.io import read_run, write_run
from distilrank.retrieval import bm25_score, build_index, search_bm25
from distilrank.scorer import ScoreStrategy, score_batch
from distilrank.tokenization import tokenize
from distilrank.training import TrainConfig, adamw_step, init_adam_state, ranknet_grad, ranknet_loss
from distilrank.types import SOURCES, DistilledExample, Document, Query, QueryKind, ScoredDoc, Source


def _report(number: int, text: str) -> None:
    print(f"\nPASS criterion {number}: {text}")


def test_criterion_1_scoring_strategy_faithfulness():
    start = time.perf_counter()
    fixture = np.array([[1.0, -1.0]])
    assert score_batch(fixture, ScoreStrategy.SOFTMAX_TRUE_FALSE)[0] == pytest.approx(
        0.880797, abs=1e-6
    )
    assert score_batch(fixture, ScoreStrategy.LOGIT_DIFFERENCE)[0] == 2.0
    rng = np.random.default_rng(0)
    for _ in range(1000):
        # |z_true - z_false| stays below ~36, where float64 sigmoid is still
        # strictly increasing; beyond that softmax saturates to exact ties
        z = rng.normal(size=(int(rng.integers(2, 40)), 2)) * 4
        soft = np.argsort(-score_batch(z, ScoreStrategy.SOFTMAX_TRUE_FALSE), kind="stable")
        diff = np.argsort(-score_batch(z, ScoreStrategy.LOGIT_DIFFERENCE), kind="stable")
        np.testing.assert_array_equal(soft, diff)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"softmax fixture, difference fixture, 1000 argsort equalities ({elapsed:.2f}s)")


def test_criterion_2_ranknet_numerics():
    start = time.perf_counter()
    loss30 = ranknet_loss([0.0] * 30, list(range(1, 31)))
    assert loss30 == pytest.approx(435 * math.log(2), rel=1e-9)
    assert ranknet_loss([2.0, 0.0], [1, 2]) == pytest.approx(0.126928, abs=1e-5)
    rng = np.random.default_rng(1)
    step = 1e-5
    for _ in range(100):
        m = int(rng.integers(2, 31))
        s = rng.normal(size=m) * 4
        r = list(rng.permutation(m) + 1)
        grad = ranknet_grad(s, r)
        assert abs(grad.sum()) < 1e-12
        for k in rng.choice(m, size=min(m, 3), replace=False):
            bumped = s.copy()
            bumped[k] += step
            up = ranknet_loss(bumped, r)
            bumped[k] -= 2 * step
            down = ranknet_loss(bumped, r)
            fd = (up - down) / (2 * step)
            if abs(fd) > 1e-12:
                assert abs(grad[k] - fd) / abs(fd) < 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, f"435*ln2, pair fixture, zero-sum grads, finite differences ({elapsed:.2f}s)")


def test_criterion_3_bm25_desk_check():
    index = build_index([Document("d0", "apple")], k1=0.9, b=0.4)
    assert bm25_score(index, ["apple"], 0) == pytest.approx(0.287682, abs=1e-6)

    rng = random.Random(99)
    vocab = [f"w{i}" for i in range(80)]
    corpus = [
        Document(f"d{i:03d}", " ".join(rng.choices(vocab, k=rng.randint(2, 50))))
        for i in range(200)
    ]
    index = build_index(corpus)
    for _ in range(50):
        query = " ".join(rng.choices(vocab, k=rng.randint(1, 6)))
        tokens = tokenize(query)
        oracle = sorted(
            ((index.doc_ids[o], bm25_score(index, tokens, o)) for o in range(200)),
            key=lambda t: (-t[1], t[0]),
        )
        oracle_ids = [d for d, s in oracle if s > 0][:30]
        got_ids = [h.doc_id for h in search_bm25(index, query, 30)]
        assert got_ids == oracle_ids
    _report(3, "ln(4/3) fixture and 50 brute-force-oracle agreements over 200 docs")


def test_criterion_4_ndcg_fixture_and_run_round_trip():
    qrels = {"d1": 3, "d2": 2, "d3": 0}
    assert ndcg_at_k(["d2", "d1", "d3"], qrels, 3) == pytest.approx(0.834009, abs=1e-4)
    assert ndcg_at_k(["d1", "d2", "d3"], qrels, 3) == 1.0
    assert ndcg_at_k(["d1", "d2"], {"d1": 2, "d2": 1}, 10) == 1.0

    canonical = (
        "q1 Q0 d1 1 2.500000 tag\n"
        "q1 Q0 d2 2 1.250000 tag\n"
        "q2 Q0 d9 1 0.000000 tag\n"
    )
    assert write_run(read_run(canonical.splitlines(keepends=True)), "tag") == canonical
    _report(4, "0.834009 fixture, ideal orderings exact 1.0, bit-exact run round-trip")


def test_criterion_5_intersection_statistic():
    def run_of(docs):
        return {"q1": [ScoredDoc(d, float(len(docs) - i)) for i, d in enumerate(docs)]}

    identical = run_of([f"d{i}" for i in range(30)])
    assert intersection_rate(identical, identical, 30) == 1.0
    disjoint_a = run_of([f"a{i}" for i in range(30)])
    disjoint_b = run_of([f"b{i}" for i in range(30)])
    assert intersection_rate(disjoint_a, disjoint_b, 30) == 0.0
    shared = [f"s{i}" for i in range(15)]
    half_a = run_of(shared + [f"a{i}" for i in range(15)])
    half_b = run_of(shared + [f"b{i}" for i in range(15)])
    assert intersection_rate(half_a, half_b, 30) == 0.5

    runs = {
        "bm25": run_of([f"d{i}" for i in range(30)]),
        "splade": run_of([f"d{i}" for i in range(10, 40)]),
        "dragon": run_of([f"d{i}" for i in range(20, 50)]),
        "monot5": run_of([f"x{i}" for i in range(30)]),
    }
    labels, matrix = intersection_matrix(runs, 30)
    np.testing.assert_array_equal(matrix, matrix.T)
    assert len(labels) == 4
    upper = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    assert len(upper) == 6 and all(np.isfinite(matrix[i, j]) for i, j in upper)
    _report(5, "1.0 / 0.0 / 0.5 rates, symmetric matrix, 6 distinct pairs for 4 sources")


MALFORMED_RESPONSES = [
    "[3] > [3] > [1]",                       # duplicate
    "[9] > [2] > [1]",                       # out of range
    "I cannot rank these passages.",         # prose only
    "[5] > [4] > [3] > [2] > [1]",           # reversed
    "[2]",                                   # partial
    "",                                      # empty
    "ranking: 4 4 4 4",                      # all duplicates
    "[0] > [1]",                             # zero index
    "first [2], then [2], then [6]",         # mixed junk
    "1 2 3 4 5 6 7 8 9",                     # too many
    "[-1] > [2]",                            # negative digits parse as bare 1, 2
    "The best is [3]. The worst is [3].",    # duplicate with prose
    "Sure! [4] > [1] > [2] > [3] > [5]",     # clean with preamble
    "[5] [5] [5] [5] [5] [5]",               # single value repeated
    "no digits here at all",                 # prose, no ints
    "[1]>[2]>[3]>[4]>[5]",                   # no spaces
    "100 200 300",                           # all out of range
    "[2] > [1] > [2] > [1]",                 # alternating duplicates
    "3,1,4,1,5,9,2,6",                       # constant-like digits
    "rank=[4];[2];[甲];[1]",                 # unicode noise
]


def test_criterion_6_permutation_labeling():
    m = 5
    for text in MALFORMED_RESPONSES:
        ranks, _repaired = parse_permutation(text, m)
        assert sorted(ranks) == list(range(1, m + 1))
        # repair is idempotent: serializing and reparsing is a clean fixed point
        again, repaired_again = parse_permutation(format_order(order_from_ranks(ranks)), m)
        assert again == ranks
        assert not repaired_again
    assert len(MALFORMED_RESPONSES) == 20

    qrels = {("q1", f"d{i}"): (i * 7) % 4 for i in range(30)}
    llm = mock_llm(qrels)
    query = Query("q1", "text", QueryKind.CROPPED)
    passages = [(f"d{i}", "body") for i in range(30)]
    _, repaired = parse_permutation(llm(query, passages), 30)
    assert not repaired
    _report(6, "20 malformed responses repaired to valid permutations, idempotently")


def test_criterion_7_dataset_arithmetic_at_full_scale():
    start = time.perf_counter()
    queries = [
        Query(f"c{i:05d}", f"crop {i}", QueryKind.CROPPED) for i in range(10_000)
    ] + [
        Query(f"g{i:05d}", f"gen {i}", QueryKind.GENERATED) for i in range(10_000)
    ]
    assignment = assign_sources(queries, seed=0)
    for kind in QueryKind:
        for source in SOURCES:
            n = sum(
                1 for q in queries if q.kind is kind and assignment[q.query_id] is source
            )
            assert n == 2_500

    examples = [
        DistilledExample(
            query_id=q.query_id,
            query_text=q.text,
            kind=q.kind,
            source_retriever=assignment[q.query_id],
            doc_ids=("a", "b"),
            llm_ranking=(1, 2),
        )
        for q in queries
    ]
    train, val = split_dataset(examples, n_val=1_000, seed=0)
    assert len(train) == 19_000 and len(val) == 1_000
    assert sum(1 for ex in val if ex.kind is QueryKind.CROPPED) == 500
    assert sum(1 for ex in val if ex.kind is QueryKind.GENERATED) == 500
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(7, f"2500 per (kind, source) and 19000/1000 split with 500+500 ({elapsed:.2f}s)")


def test_criterion_8_adamw():
    theta = [np.array([1.0, -2.0])]
    adamw_step(theta, [np.zeros(2)], init_adam_state(theta),
               TrainConfig(weight_decay=0.0))
    np.testing.assert_array_equal(theta[0], [1.0, -2.0])

    for g in (1e-3, 0.5, -2.0, -1e-3):
        theta = [np.array([0.0])]
        config = TrainConfig(learning_rate=0.05, weight_decay=0.0)
        adamw_step(theta, [np.array([g])], init_adam_state(theta), config)
        expected = -config.learning_rate * np.sign(g)
        assert abs(theta[0][0] - expected) / abs(expected) < 1e-6 + config.eps / abs(g)

    theta = [np.array([3.0])]
    config = TrainConfig(learning_rate=0.2, weight_decay=0.25)
    adamw_step(theta, [np.zeros(1)], init_adam_state(theta), config)
    assert theta[0][0] == 3.0 * (1 - 0.2 * 0.25)
    _report(8, "zero-grad no-op, first-step sign property, exact decoupled decay")


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    """Criterion 9 pipeline, driven through the CLI; artifacts shared with 10."""
    root = tmp_path_factory.mktemp("e2e")
    t0 = time.perf_counter()

    def run(argv):
        assert dispatch(argv) == 0, f"command failed: {argv}"

    run(["synth", "--topics", "8", "--docs", "400", "--train-queries", "64",
         "--eval-queries", "16", "--seed", "7", "--out-dir", str(root)])
    run(["index", "build", "--corpus", f"{root}/corpus.jsonl", "--out", f"{root}/index.json"])
    run(["retrieve", "--method", "bm25", "--index", f"{root}/index.json",
         "--queries", f"{root}/queries-train.tsv", "--k", "30",
         "--out", f"{root}/run-train.trec"])
    run(["retrieve", "--method", "bm25", "--index", f"{root}/index.json",
         "--queries", f"{root}/queries-eval.tsv", "--k", "30",
         "--out", f"{root}/run-eval.trec"])
    run(["distill", "--queries", f"{root}/queries-train.tsv",
         "--corpus", f"{root}/corpus.jsonl", "--bm25-index", f"{root}/index.json",
         "--mock-qrels", f"{root}/qrels-train.txt", "--k", "30",
         "--journal", f"{root}/journal.log", "--out", f"{root}/distilled.jsonl"])

    # a second training set pooled from all four sources, for the ablation
    # grid: differently parameterized lexical runs stand in for the three
    # external retrievers, flowing through the run-file adapters
    run(["assign-sources", "--queries", f"{root}/queries-train.tsv",
         "--seed", "7", "--out", f"{root}/sources.tsv"])
    for label, k1, b in [("splade", "1.5", "0.75"), ("dragon", "0.4", "0.1"),
                         ("monot5", "1.2", "0.2")]:
        run(["index", "build", "--corpus", f"{root}/corpus.jsonl",
             "--k1", k1, "--b", b, "--out", f"{root}/index-{label}.json"])
        run(["retrieve", "--method", "bm25", "--index", f"{root}/index-{label}.json",
             "--queries", f"{root}/queries-train.tsv", "--k", "30",
             "--tag", label, "--out", f"{root}/run-{label}.trec"])
    run(["distill", "--queries", f"{root}/queries-train.tsv",
         "--corpus", f"{root}/corpus.jsonl", "--bm25-index", f"{root}/index.json",
         "--assignment", f"{root}/sources.tsv",
         "--run-splade", f"{root}/run-splade.trec",
         "--run-dragon", f"{root}/run-dragon.trec",
         "--run-monot5", f"{root}/run-monot5.trec",
         "--mock-qrels", f"{root}/qrels-train.txt", "--k", "30",
         "--out", f"{root}/distilled-4src.jsonl"])
    run(["train", "--train", f"{root}/distilled.jsonl",
         "--corpus", f"{root}/corpus.jsonl",
         "--epochs", "30", "--batch", "8", "--docs", "30",
         "--strategy", "logit-difference", "--seed", "7",
         "--hash-dim", "16384", "--hidden", "64",
         "--checkpoint", f"{root}/scorer.ckpt", "--history", f"{root}/history.tsv"])
    run(["rerank", "--run", f"{root}/run-eval.trec", "--corpus", f"{root}/corpus.jsonl",
         "--queries", f"{root}/queries-eval.tsv", "--checkpoint", f"{root}/scorer.ckpt",
         "--k-in", "30", "--k-out", "30", "--out", f"{root}/reranked.trec"])
    elapsed = time.perf_counter() - t0
    # criterion 10's grid, built here so the golden pins can read it too
    run(["ablate", "--train", f"{root}/distilled-4src.jsonl",
         "--corpus", f"{root}/corpus.jsonl",
         "--queries", f"{root}/queries-eval.tsv",
         "--qrels", f"{root}/qrels-eval.txt",
         "--base-run", f"{root}/run-eval.trec",
         "--epochs", "2", "--batch", "8", "--hash-dim", "4096", "--hidden", "16",
         "--k-in", "30", "--seed", "7",
         "--out", f"{root}/grid.tsv"])
    return {"root": root, "elapsed": elapsed}


def test_criterion_9_end_to_end_distillation(e2e):
    root = e2e["root"]
    qrels = io.load_qrels(f"{root}/qrels-eval.txt")
    base = evaluate_run(io.load_run(f"{root}/run-eval.trec"), qrels, 10)
    student = evaluate_run(io.load_run(f"{root}/reranked.trec"), qrels, 10)

    history = [line.split("\t") for line in
               Path(f"{root}/history.tsv").read_text().splitlines()[1:]]
    initial_loss = float(history[0][1])
    final_loss = float(history[-1][1])

    assert student.mean >= base.mean + 0.05
    assert final_loss < initial_loss
    assert e2e["elapsed"] < 300.0
    _report(
        9,
        f"nDCG@10 {base.mean:.4f} -> {student.mean:.4f} (gate +0.05), "
        f"loss {initial_loss:.1f} -> {final_loss:.1f} ({e2e['elapsed']:.0f}s)",
    )


def test_criterion_10_ablation_harness(e2e):
    lines = (e2e["root"] / "grid.tsv").read_text().splitlines()
    assert lines[0] == "strategy\tdocs\tkind\texcluded_source\tndcg\tfinal_train_loss"
    cells = set()
    for line in lines[1:]:
        strategy, docs, kind, source, ndcg, loss = line.split("\t")
        cells.add((strategy, docs, kind, source))
        assert 0.0 <= float(ndcg) <= 1.0
        assert np.isfinite(float(loss))
    expected = {
        (strategy.value, str(docs), kind, source.value if source else "none")
        for strategy in (ScoreStrategy.LOGIT_DIFFERENCE, ScoreStrategy.SINGLE_LOGIT)
        for docs in (10, 20, 30)
        for kind in ("mixed", "cropped-only", "generated-only")
        for source in (None,) + SOURCES
    }
    assert cells == expected
    assert len(cells) == 90
    _report(10, "ablation grid complete: 2 strategies x 3 doc counts x 3 kinds x 5 sources")


def test_criterion_11_resume_safety(e2e):
    root = e2e["root"]
    bench_corpus = {d.doc_id: d.text for d in io.load_corpus(f"{root}/corpus.jsonl")}
    queries = io.load_queries(f"{root}/queries-train.tsv")[:20]
    qrels = io.load_qrels(f"{root}/qrels-train.txt")
    index = build_index(io.load_corpus(f"{root}/corpus.jsonl"))

    def retrieve(query):
        hits = search_bm25(index, query.text, 30)
        return Source.BM25, [(h.doc_id, bench_corpus[h.doc_id]) for h in hits]

    oracle = mock_llm(qrels)
    reference = distill(queries, retrieve, oracle, plan=WindowPlan(30, 30))

    journal = f"{root}/resume-journal.log"
    calls = []

    def killing_llm(query, passages):
        if len(calls) >= 10:
            raise KeyboardInterrupt  # simulates killing the process mid-run
        calls.append(query.query_id)
        return oracle(query, passages)

    with pytest.raises(KeyboardInterrupt):
        distill(queries, retrieve, killing_llm, journal_path=journal,
                plan=WindowPlan(30, 30), max_in_flight=1)

    requested = []

    def counting_llm(query, passages):
        requested.append(query.query_id)
        return oracle(query, passages)

    result = distill(queries, retrieve, counting_llm, journal_path=journal,
                     plan=WindowPlan(30, 30), max_in_flight=1)
    assert result.examples == reference.examples
    assert sorted(requested) == sorted(
        q.query_id for q in queries if q.query_id not in calls
    )
    assert len(requested) == 10
    _report(11, "kill at 50% then rerun: identical dataset, exactly 10 queries re-requested")


def noisy_teacher(qrels, seed: int):
    """The oracle teacher's order with 0.5·m seeded random swaps of two
    positions per list of m documents, so the labels are imperfect."""
    oracle = mock_llm(qrels)

    def fn(query, passages):
        ranks, _ = parse_permutation(oracle(query, passages), len(passages))
        order = order_from_ranks(ranks)
        rng = random.Random(f"{seed}:{query.query_id}")
        for _ in range(len(order) // 2):
            i, j = rng.randrange(len(order)), rng.randrange(len(order))
            order[i], order[j] = order[j], order[i]
        return format_order(order)

    return fn


# the student's nDCG@10 under the noisy teacher, measured with the
# criterion-9 settings; BM25 reads 0.799926 (seed 7) and 0.846499 (seed 3)
NOISY_STUDENT_NDCG = {7: 0.907539, 3: 0.964972}


@pytest.mark.parametrize("seed", sorted(NOISY_STUDENT_NDCG))
def test_student_beats_bm25_under_a_noisy_teacher(tmp_path, seed):
    """Criterion 9 with a teacher that errs, where the oracle's labels would
    saturate the student. The pin's tolerance of 0.02 allows a changed last
    bit of BLAS output to flip a near-tie in one query's top ten, and no more."""
    root = tmp_path

    def run(argv):
        assert dispatch(argv) == 0, f"command failed: {argv}"

    run(["synth", "--topics", "8", "--docs", "400", "--train-queries", "64",
         "--eval-queries", "16", "--seed", str(seed), "--out-dir", str(root)])
    run(["index", "build", "--corpus", f"{root}/corpus.jsonl", "--out", f"{root}/index.json"])
    run(["retrieve", "--method", "bm25", "--index", f"{root}/index.json",
         "--queries", f"{root}/queries-eval.tsv", "--k", "30",
         "--out", f"{root}/run-eval.trec"])
    corpus = {d.doc_id: d.text for d in io.load_corpus(f"{root}/corpus.jsonl")}
    index = build_index(io.load_corpus(f"{root}/corpus.jsonl"))

    def retrieve(query):
        hits = search_bm25(index, query.text, 30)
        return Source.BM25, [(h.doc_id, corpus[h.doc_id]) for h in hits]

    labeled = distill(io.load_queries(f"{root}/queries-train.tsv"), retrieve,
                      noisy_teacher(io.load_qrels(f"{root}/qrels-train.txt"), seed),
                      plan=WindowPlan(30, 30))
    io.save_text(root / "distilled.jsonl", io.write_distilled(labeled.examples))
    run(["train", "--train", f"{root}/distilled.jsonl", "--corpus", f"{root}/corpus.jsonl",
         "--epochs", "30", "--batch", "8", "--docs", "30",
         "--strategy", "logit-difference", "--seed", str(seed),
         "--hash-dim", "16384", "--hidden", "64", "--checkpoint", f"{root}/scorer.ckpt"])
    run(["rerank", "--run", f"{root}/run-eval.trec", "--corpus", f"{root}/corpus.jsonl",
         "--queries", f"{root}/queries-eval.tsv", "--checkpoint", f"{root}/scorer.ckpt",
         "--k-in", "30", "--k-out", "30", "--out", f"{root}/reranked.trec"])

    qrels = io.load_qrels(f"{root}/qrels-eval.txt")
    base = evaluate_run(io.load_run(f"{root}/run-eval.trec"), qrels, 10).mean
    student = evaluate_run(io.load_run(f"{root}/reranked.trec"), qrels, 10).mean
    assert student >= base + 0.05
    assert student == pytest.approx(NOISY_STUDENT_NDCG[seed], abs=0.02)
    print(f"\nPASS noisy teacher, seed {seed}: nDCG@10 {base:.4f} -> {student:.4f} "
          f"(gate +0.05, pinned {NOISY_STUDENT_NDCG[seed]:.4f} +- 0.02)")


GOLDEN = Path(__file__).resolve().parent / "golden"
# sha256 of the criterion-9 distilled.jsonl: the mock teacher is exact, so
# any change in pooling, labeling or serialization moves these bytes
DISTILLED_SHA256 = "c2fd3dc8d3ae2e57e6de2f08bf66e6b5842803b54819ccd0246de62e5d3330de"


def _tsv(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text().splitlines()]


def test_golden_outputs(e2e):
    """Pin the e2e outputs, so a refactor that claims identical output shows it.

    Ranks and labels are exact. Scores and losses get a tolerance because a
    change in summation order moves them in the last digits (under
    logit-difference, AdamW moves zero-gradient parameters by rounding noise).
    """
    root = e2e["root"]
    distilled = (root / "distilled.jsonl").read_bytes()
    assert hashlib.sha256(distilled).hexdigest() == DISTILLED_SHA256

    history, want = _tsv(root / "history.tsv"), _tsv(GOLDEN / "e2e-history.tsv")
    assert history[0] == want[0] and len(history) == len(want)
    np.testing.assert_allclose(np.array([row[1:] for row in history[1:]], dtype=float),
                               np.array([row[1:] for row in want[1:]], dtype=float),
                               rtol=1e-9, atol=0)

    reranked = io.load_run(root / "reranked.trec")
    golden = io.load_run(GOLDEN / "e2e-reranked.trec")
    triples = [(q, d.doc_id, rank) for q in sorted(reranked)
               for rank, d in enumerate(reranked[q], 1)]
    assert triples == [(q, d.doc_id, rank) for q in sorted(golden)
                       for rank, d in enumerate(golden[q], 1)]
    np.testing.assert_allclose([e.score for q in sorted(reranked) for e in reranked[q]],
                               [e.score for q in sorted(golden) for e in golden[q]],
                               rtol=0, atol=1e-6)

    grid, want = _tsv(root / "grid.tsv"), _tsv(GOLDEN / "e2e-grid.tsv")
    assert [row[:4] for row in grid] == [row[:4] for row in want]
    np.testing.assert_allclose(np.array([row[4:] for row in grid[1:]], dtype=float),
                               np.array([row[4:] for row in want[1:]], dtype=float),
                               rtol=1e-6, atol=1e-6)

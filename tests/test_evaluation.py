import math

import numpy as np
import pytest

from distilrank.errors import DataError
from distilrank.evaluation import (
    evaluate_run,
    external_logit_score_fn,
    format_intersection_tsv,
    intersection_matrix,
    intersection_rate,
    model_score_fn,
    ndcg_at_k,
    paired_t_test,
    rerank_run,
)
from distilrank.io import write_per_query
from distilrank.scorer import (
    FeatureConfig,
    FeatureStore,
    ScoreStrategy,
    featurize,
    forward,
    init_params,
    score_batch,
    stack_rows,
)
from distilrank.types import Qrels, ScoredDoc


class TestNdcg:
    def test_ideal_ordering_scores_one(self):
        qrels = {"d1": 3, "d2": 2, "d3": 1}
        assert ndcg_at_k(["d1", "d2", "d3"], qrels, 10) == pytest.approx(1.0)

    def test_three_doc_fixture(self):
        # DCG = 3/1 + 7/log2(3); IDCG = 7 + 3/log2(3)
        qrels = {"d1": 3, "d2": 2, "d3": 0}
        dcg = 3 / 1 + 7 / math.log2(3)
        idcg = 7 + 3 / math.log2(3)
        got = ndcg_at_k(["d2", "d1", "d3"], qrels, 3)
        assert got == pytest.approx(dcg / idcg, abs=1e-12)
        assert got == pytest.approx(0.8339912323981488, abs=1e-12)

    def test_all_zero_grades(self):
        assert ndcg_at_k(["d1", "d2"], {"d1": 0, "d2": 0}, 10) == 0.0

    def test_unjudged_docs_count_zero(self):
        qrels = {"d1": 1}
        with_noise = ndcg_at_k(["unjudged", "d1"], qrels, 10)
        assert with_noise < 1.0

    def test_invariant_below_cutoff_permutation(self):
        qrels = {"d1": 3, "d2": 2, "d3": 1, "d4": 1}
        a = ndcg_at_k(["d1", "d2", "d3", "d4"], qrels, 2)
        b = ndcg_at_k(["d1", "d2", "d4", "d3"], qrels, 2)
        assert a == b

    def test_ideal_uses_all_judged_docs(self):
        # d9 is judged but never retrieved; it still raises the ideal
        qrels = {"d1": 1, "d9": 3}
        assert ndcg_at_k(["d1"], qrels, 10) < 1.0


class TestEvaluateRun:
    def test_mean_over_judged_queries(self):
        run = {"q1": [ScoredDoc("d1", 2.0)], "q2": [ScoredDoc("x", 1.0)]}
        qrels = Qrels({"q1": {"d1": 1}, "q2": {"d2": 1}})
        report = evaluate_run(run, qrels, 10)
        assert report.per_query["q1"] == pytest.approx(1.0)
        assert report.per_query["q2"] == 0.0
        assert report.mean == pytest.approx(0.5)

    def test_query_missing_from_run_scores_zero(self):
        run = {"q1": [ScoredDoc("d1", 1.0)]}
        qrels = Qrels({"q1": {"d1": 1}, "q9": {"d1": 2}})
        report = evaluate_run(run, qrels, 10)
        assert report.per_query["q9"] == 0.0
        assert report.n_queries == 2

    def test_per_query_tsv(self):
        run = {"q1": [ScoredDoc("d1", 1.0)]}
        report = evaluate_run(run, Qrels({"q1": {"d1": 1}}), 10)
        assert write_per_query(report.per_query) == "q1\t1.000000\n"


def run_of(docs_by_query):
    return {
        qid: [ScoredDoc(doc, float(len(docs) - i)) for i, doc in enumerate(docs)]
        for qid, docs in docs_by_query.items()
    }


class TestIntersection:
    def test_identical_runs(self):
        run = run_of({"q1": [f"d{i}" for i in range(30)]})
        assert intersection_rate(run, run, 30) == pytest.approx(1.0)

    def test_disjoint_runs(self):
        a = run_of({"q1": [f"a{i}" for i in range(30)]})
        b = run_of({"q1": [f"b{i}" for i in range(30)]})
        assert intersection_rate(a, b, 30) == 0.0

    def test_half_overlap_exact(self):
        shared = [f"s{i}" for i in range(15)]
        a = run_of({"q1": shared + [f"a{i}" for i in range(15)]})
        b = run_of({"q1": shared + [f"b{i}" for i in range(15)]})
        assert intersection_rate(a, b, 30) == 0.5

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        docs = [f"d{i}" for i in range(50)]
        a = run_of({"q1": list(rng.permutation(docs))[:30]})
        b = run_of({"q1": list(rng.permutation(docs))[:30]})
        assert intersection_rate(a, b, 30) == intersection_rate(b, a, 30)

    def test_no_shared_queries_rejected(self):
        a = run_of({"q1": ["d1"]})
        b = run_of({"q2": ["d1"]})
        with pytest.raises(DataError):
            intersection_rate(a, b, 30)

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_below_one_rejected(self, n):
        run = run_of({"q1": ["d1", "d2"]})
        with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
            intersection_rate(run, run, n)

    def test_matrix_symmetric_with_nan_diagonal(self):
        runs = {
            "s1": run_of({"q1": [f"d{i}" for i in range(30)]}),
            "s2": run_of({"q1": [f"d{i}" for i in range(15, 45)]}),
            "s3": run_of({"q1": [f"x{i}" for i in range(30)]}),
        }
        labels, matrix = intersection_matrix(runs, 30)
        assert labels == ["s1", "s2", "s3"]
        np.testing.assert_array_equal(matrix, matrix.T)
        assert np.all(np.isnan(np.diag(matrix)))

    def test_four_sources_have_six_pairs(self):
        base = [f"d{i}" for i in range(40)]
        runs = {f"s{k}": run_of({"q1": base[k: k + 30]}) for k in range(4)}
        labels, matrix = intersection_matrix(runs, 30)
        off_diagonal = matrix[~np.isnan(matrix)]
        assert off_diagonal.size == 12  # 6 distinct pairs mirrored
        unique_pairs = {
            (i, j) for i in range(4) for j in range(i + 1, 4)
        }
        assert len(unique_pairs) == 6

    def test_tsv_layout_two_kinds(self):
        runs = {
            "a": run_of({"q1": ["d1", "d2"]}),
            "b": run_of({"q1": ["d1", "d3"]}),
        }
        labels, upper = intersection_matrix(runs, 2)
        text = format_intersection_tsv(labels, upper, upper * 0.0)
        lines = text.splitlines()
        assert lines[0] == "\ta\tb"
        assert lines[1].startswith("a\t-\t0.500")
        assert lines[2].startswith("b\t0.000\t-")


class TestPairedTTest:
    def test_identical_vectors(self):
        a = {"q1": 0.5, "q2": 0.7}
        assert paired_t_test(a, dict(a)) == 1.0

    def test_textbook_fixture(self):
        # differences (1..5): t = 3/sqrt(0.5) = 4.242640687...
        # oracle p computed independently via the regularized incomplete beta
        # (mpmath.betainc(2, 0.5, 0, v/(v+t^2))) = 0.013235599563682695
        a = {f"q{i}": float(i) for i in range(1, 6)}
        b = {f"q{i}": 0.0 for i in range(1, 6)}
        assert paired_t_test(a, b) == pytest.approx(0.013235599563682695, rel=1e-9)

    def test_sign_flip_invariance(self):
        a = {f"q{i}": v for i, v in enumerate([0.3, 0.1, 0.4, 0.15])}
        b = {f"q{i}": v for i, v in enumerate([0.25, 0.2, 0.3, 0.3])}
        assert paired_t_test(a, b) == pytest.approx(paired_t_test(b, a))

    def test_mismatched_keys_rejected(self):
        with pytest.raises(DataError):
            paired_t_test({"q1": 1.0, "q2": 0.5}, {"q1": 1.0, "q3": 0.5})

    def test_constant_nonzero_difference(self):
        a = {"q1": 1.0, "q2": 2.0}
        b = {"q1": 0.0, "q2": 1.0}
        assert paired_t_test(a, b) == 0.0

    def test_equals_scipy_stats_formula(self):
        from scipy import stats

        rng = np.random.default_rng(11)
        for n in [2, 3, 5, 8, 30, 200]:
            for _ in range(25):
                a = {f"q{i}": v for i, v in enumerate(rng.random(n))}
                b = {f"q{i}": v for i, v in enumerate(rng.random(n) * rng.uniform(0.2, 2.0))}
                d = np.array([a[k] - b[k] for k in sorted(a)])
                t = d.mean() / (d.std(ddof=1) / math.sqrt(n))
                assert paired_t_test(a, b) == float(2.0 * stats.t.sf(abs(t), df=n - 1))


class TestRerankRun:
    def corpus(self):
        return {f"d{i}": f"document body {i}" for i in range(5)}

    def test_equal_scores_fall_back_to_doc_id_order(self):
        run = run_of({"q1": ["d3", "d0", "d4", "d1"]})
        out = rerank_run(run, lambda q, ds: [1.0] * len(ds), k_in=4, k_out=4)
        assert [e.doc_id for e in out["q1"]] == ["d0", "d1", "d3", "d4"]

    def test_oracle_logits_give_perfect_ndcg(self):
        run = run_of({"q1": ["d0", "d1", "d2"]})
        qrels = Qrels({"q1": {"d0": 0, "d1": 3, "d2": 1}})
        logits = {"q1": {doc_id: (float(rel), 0.0) for doc_id, rel in qrels.by_query["q1"].items()}}
        out = rerank_run(
            run, external_logit_score_fn(logits, ScoreStrategy.LOGIT_DIFFERENCE),
            k_in=3, k_out=3,
        )
        assert evaluate_run(out, qrels, 10).mean == pytest.approx(1.0)

    def test_same_ranking_under_softmax_and_difference(self):
        params = init_params(FeatureConfig(hash_dim=1 << 10), hidden=8, seed=2)
        run = run_of({"q1": [f"d{i}" for i in range(5)]})
        queries = {"q1": "document body"}
        outs = []
        for strategy in (ScoreStrategy.SOFTMAX_TRUE_FALSE, ScoreStrategy.LOGIT_DIFFERENCE):
            fn = model_score_fn(params, strategy, queries, self.corpus())
            out = rerank_run(run, fn, k_in=5, k_out=5)
            outs.append([e.doc_id for e in out["q1"]])
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("strategy", list(ScoreStrategy))
    def test_batched_scores_match_per_pair_forward(self, strategy):
        params = init_params(FeatureConfig(hash_dim=1 << 10), hidden=8, seed=2)
        # float64, the precision of the per-pair oracle; the forward follows the parameters
        params.w1, params.w2 = params.w1.astype(np.float64), params.w2.astype(np.float64)
        rng = np.random.default_rng(6)
        params.b1 = rng.normal(0.0, 0.1, size=8)
        params.b2 = rng.normal(0.0, 0.1, size=2)
        corpus = self.corpus() | {"empty": ""}
        queries = {"q1": "document body 3", "q2": "body"}
        doc_ids = ["d3", "empty", "d0", "d4", "d1", "d2"]
        store = FeatureStore(params.feature)
        for fn in (model_score_fn(params, strategy, queries, corpus),
                   model_score_fn(params, strategy, queries, corpus, store)):
            for qid, text in queries.items():
                batched = fn(qid, doc_ids)
                per_pair = score_batch(np.array([
                    forward(params, stack_rows([featurize(text, corpus[d], params.feature)],
                                               params.feature.hash_dim))[2][0]
                    for d in doc_ids
                ]), strategy)
                # equal up to BLAS rounding: the head's dense product sums in
                # an order that depends on the number of rows
                np.testing.assert_allclose(batched, per_pair, rtol=1e-12, atol=1e-15)

    def test_missing_document_named(self):
        run = run_of({"q1": ["d0", "nope"]})
        fn = model_score_fn(
            init_params(FeatureConfig(hash_dim=1 << 10), hidden=4, seed=0),
            ScoreStrategy.LOGIT_DIFFERENCE,
            {"q1": "text"},
            self.corpus(),
        )
        with pytest.raises(DataError, match="nope"):
            rerank_run(run, fn, k_in=2, k_out=2)

    @pytest.mark.parametrize("k_in, k_out", [(-1, None), (0, None), (3, 0), (3, -2)])
    def test_k_below_one_rejected(self, k_in, k_out):
        run = run_of({"q1": ["d0", "d1", "d2"]})
        with pytest.raises(ValueError, match="must be >= 1"):
            rerank_run(run, lambda q, ds: [0.0] * len(ds), k_in=k_in, k_out=k_out)

    def test_k_out_truncates(self):
        run = run_of({"q1": [f"d{i}" for i in range(5)]})
        out = rerank_run(
            run, lambda q, ds: [float(d[-1]) for d in ds], k_in=5, k_out=2
        )
        assert len(out["q1"]) == 2
        assert out["q1"][0].doc_id == "d4"

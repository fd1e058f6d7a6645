import pytest

from distilrank.distill import mock_llm, parse_permutation
from distilrank.errors import DataError
from distilrank.evaluation import ndcg_at_k
from distilrank.synthetic import synth_benchmark
from distilrank.tokenization import tokenize
from distilrank.types import QueryKind


@pytest.fixture(scope="module")
def bench():
    return synth_benchmark(4, 60, 12, 6, seed=13)


class TestSynthBenchmark:
    def test_deterministic(self, bench):
        again = synth_benchmark(4, 60, 12, 6, seed=13)
        assert again.corpus == bench.corpus
        assert again.train_queries == bench.train_queries
        assert again.qrels == bench.qrels
        assert again.generated_pool == bench.generated_pool

    def test_sizes(self, bench):
        assert len(bench.corpus) == 60
        assert len(bench.train_queries) == 12
        assert len(bench.eval_queries) == 6
        assert len(bench.generated_pool) == 60

    def test_every_query_has_a_positive(self, bench):
        for q in bench.train_queries + bench.eval_queries:
            positives = [rel for (qid, _), rel in bench.qrels.items() if qid == q.query_id and rel > 0]
            assert positives

    def test_grades_in_range_with_spread(self, bench):
        grades = set(bench.qrels.values())
        assert grades <= {0, 1, 2, 3}
        assert 3 in grades and 0 in grades

    def test_query_words_never_markers(self, bench):
        # marker vocabulary must not leak into any query text
        query_tokens = set()
        for q in bench.train_queries + bench.eval_queries:
            query_tokens.update(tokenize(q.text))
        assert all(not t.startswith("m") for t in query_tokens)

    def test_both_kinds_present(self, bench):
        kinds = {q.kind for q in bench.train_queries}
        assert kinds == {QueryKind.CROPPED, QueryKind.GENERATED}

    def test_qrels_split_by_query_set(self, bench):
        train_ids = {q.query_id for q in bench.train_queries}
        assert set(k[0] for k in bench.train_qrels) <= train_ids
        assert not set(k[0] for k in bench.eval_qrels) & train_ids

    def test_oracle_teacher_is_perfect_by_definition(self, bench):
        # rank all judged docs of a query by the oracle: nDCG@10 is exactly 1
        llm = mock_llm(bench.qrels)
        for q in bench.eval_queries:
            judged = [(doc, rel) for (qid, doc), rel in bench.qrels.items() if qid == q.query_id]
            passages = [(doc, "body") for doc, _ in judged]
            ranks, repaired = parse_permutation(llm(q, passages), len(passages))
            assert not repaired
            by_rank = [doc for _, doc in sorted(zip(ranks, [d for d, _ in judged]))]
            grades = {doc: rel for doc, rel in judged}
            assert ndcg_at_k(by_rank, grades, 10) == pytest.approx(1.0)

    def test_preconditions(self):
        with pytest.raises(DataError):
            synth_benchmark(1, 100, 4, 2)
        with pytest.raises(DataError):
            synth_benchmark(4, 39, 4, 2)

    @pytest.mark.parametrize("train, eval_", [(-1, 16), (4, -3)])
    def test_negative_query_count_rejected(self, train, eval_):
        with pytest.raises(DataError, match="query counts must be >= 0"):
            synth_benchmark(4, 40, train, eval_)

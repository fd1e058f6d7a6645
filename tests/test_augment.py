import pytest

from distilrank.augment import (
    CropConfig,
    assign_sources,
    crop_sentences,
    load_generated,
    split_dataset,
    split_sentences,
)
from distilrank.errors import DataError
from distilrank.io import parse_assignment, write_assignment
from distilrank.types import SOURCES, DistilledExample, Document, Query, QueryKind, Source


class TestCropSentences:
    def test_n_zero(self):
        assert crop_sentences([Document("d1", "One two three four five.")], CropConfig(0)) == []

    def test_deterministic(self):
        corpus = [
            Document(f"d{i}", f"Sentence number {i} has exactly six words. Short one.")
            for i in range(20)
        ]
        a = crop_sentences(corpus, CropConfig(5, seed=3))
        b = crop_sentences(corpus, CropConfig(5, seed=3))
        assert a == b
        assert all(q.kind is QueryKind.CROPPED for q in a)

    def test_length_filter(self):
        # only the first sentence satisfies min_tokens=5
        corpus = [Document("d1", "A b c d e f. Hi.")]
        queries = crop_sentences(corpus, CropConfig(1, min_tokens=5))
        assert queries[0].text == "A b c d e f."

    def test_splitter(self):
        assert split_sentences("A b. C d! E f? G") == ["A b.", "C d!", "E f?", "G"]

    def test_no_eligible_sentences(self):
        with pytest.raises(DataError):
            crop_sentences([Document("d1", "Hi.")], CropConfig(1, min_tokens=5))

    def test_with_replacement_when_short(self, caplog):
        corpus = [Document("d1", "One two three four five six.")]
        queries = crop_sentences(corpus, CropConfig(3))
        assert len(queries) == 3

    def test_query_id_scheme(self):
        corpus = [Document("d1", "One two three four five six.")]
        (q,) = crop_sentences(corpus, CropConfig(1))
        assert q.query_id == "crop-000001"

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            CropConfig(1, min_tokens=0)
        with pytest.raises(ValueError):
            CropConfig(1, min_tokens=10, max_tokens=5)


class TestLoadGenerated:
    def pool_lines(self, n):
        return [f"d{i}\tgenerated query {i}\n" for i in range(n)]

    def test_all_of_pool(self):
        queries = load_generated(self.pool_lines(5), n=5, seed=1)
        assert len(queries) == 5
        assert {q.text for q in queries} == {f"generated query {i}" for i in range(5)}
        assert all(q.kind is QueryKind.GENERATED for q in queries)

    def test_pool_too_small(self):
        with pytest.raises(DataError, match="6.*5|5.*6"):
            load_generated(self.pool_lines(5), n=6, seed=1)

    def test_deterministic(self):
        assert load_generated(self.pool_lines(50), 10, seed=9) == load_generated(
            self.pool_lines(50), 10, seed=9
        )

    def test_bad_line(self):
        with pytest.raises(DataError, match="line 1"):
            load_generated(["no-tab-here\n"], n=1)


def make_queries(n_cropped, n_generated):
    queries = [
        Query(f"c{i:05d}", f"cropped {i}", QueryKind.CROPPED) for i in range(n_cropped)
    ]
    queries += [
        Query(f"g{i:05d}", f"generated {i}", QueryKind.GENERATED) for i in range(n_generated)
    ]
    return queries


class TestAssignSources:
    def test_exact_quarters_at_full_scale(self):
        queries = make_queries(10_000, 10_000)
        assignment = assign_sources(queries, seed=0)
        for kind in QueryKind:
            for source in SOURCES:
                count = sum(
                    1
                    for q in queries
                    if q.kind is kind and assignment[q.query_id] is source
                )
                assert count == 2_500

    def test_round_robin_remainders(self):
        queries = make_queries(5, 0)
        assignment = assign_sources(queries, seed=1)
        sizes = sorted(
            sum(1 for s in assignment.values() if s is source) for source in SOURCES
        )
        assert sizes == [1, 1, 1, 2]

    def test_deterministic(self):
        queries = make_queries(40, 40)
        assert assign_sources(queries, seed=5) == assign_sources(queries, seed=5)

    def test_round_trip_tsv(self):
        queries = make_queries(8, 8)
        assignment = assign_sources(queries, seed=2)
        text = write_assignment(assignment)
        assert parse_assignment(text.splitlines(keepends=True)) == assignment

    def test_repeated_query_names_both_lines(self):
        with pytest.raises(DataError, match=r"line 3: query 'q1' already assigned on line 1"):
            parse_assignment(["q1\tBM25\n", "q2\tSPLADE\n", "q1\tDRAGON\n"])

    def test_unknown_source_names_line(self):
        with pytest.raises(DataError, match="line 1: unknown source 'ColBERT'"):
            parse_assignment(["q1\tColBERT\n"])


def make_examples(n_cropped, n_generated):
    out = []
    for i in range(n_cropped + n_generated):
        kind = QueryKind.CROPPED if i < n_cropped else QueryKind.GENERATED
        out.append(
            DistilledExample(
                query_id=f"q{i:05d}",
                query_text=f"query {i}",
                kind=kind,
                source_retriever=Source.BM25,
                doc_ids=("a", "b"),
                llm_ranking=(1, 2),
            )
        )
    return out


class TestSplitDataset:
    def test_full_scale_split(self):
        examples = make_examples(10_000, 10_000)
        train, val = split_dataset(examples, n_val=1_000, seed=0)
        assert len(train) == 19_000 and len(val) == 1_000
        assert sum(1 for ex in val if ex.kind is QueryKind.CROPPED) == 500
        assert sum(1 for ex in val if ex.kind is QueryKind.GENERATED) == 500

    def test_n_val_zero(self):
        examples = make_examples(4, 4)
        train, val = split_dataset(examples, n_val=0)
        assert val == [] and len(train) == 8

    def test_disjoint_and_partition(self):
        examples = make_examples(30, 30)
        train, val = split_dataset(examples, n_val=10, seed=3)
        train_ids = {ex.query_id for ex in train}
        val_ids = {ex.query_id for ex in val}
        assert not train_ids & val_ids
        assert len(train) + len(val) == len(examples)

    def test_insufficient_kind(self):
        with pytest.raises(DataError, match="cropped"):
            split_dataset(make_examples(1, 50), n_val=10)

    def test_odd_n_val_rejected(self):
        with pytest.raises(ValueError):
            split_dataset(make_examples(5, 5), n_val=3)

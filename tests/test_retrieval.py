import json
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from distilrank.errors import DataError
from distilrank.retrieval import (
    DenseStore,
    RunfileSearcher,
    ScoredDoc,
    bm25_score,
    build_index,
    compose_rerank,
    load_dense_store,
    load_index,
    load_score_map,
    save_index,
    search_bm25,
    search_dense,
)
from distilrank import retrieval
from distilrank.tokenization import tokenize
from distilrank.types import Document


def docs(*texts):
    return [Document(f"d{i}", t) for i, t in enumerate(texts)]


class TestBuildIndex:
    def test_counts_and_avgdl(self):
        index = build_index(docs("a b", "a b c d", "a b c d e f"))
        assert index.n_docs == 3
        assert index.avgdl == 4.0

    def test_empty_corpus(self):
        index = build_index([])
        assert index.n_docs == 0
        assert search_bm25(index, "anything", 5) == []

    def test_rebuild_identical(self):
        corpus = docs("alpha beta", "beta gamma", "gamma alpha")
        assert build_index(corpus).postings == build_index(corpus).postings

    def test_bad_params_rejected(self):
        with pytest.raises(DataError):
            build_index(docs("a"), k1=-1.0)
        for k1 in (math.nan, math.inf):  # would score every document nan or drop it
            with pytest.raises(DataError):
                build_index(docs("a"), k1=k1)

    @given(st.lists(st.one_of(
        st.text(max_size=40),
        st.lists(st.sampled_from(["a", "A", "b", "c d", "", "é", "Ä"]), max_size=12).map(" ".join),
    ), max_size=12))
    @example([])
    @example(["", "a a a", "", "b a", "é É e"])
    def test_matches_counting_oracle(self, texts):
        corpus = docs(*texts)
        with mock.patch.object(retrieval, "tokenize", wraps=tokenize) as spy:
            index = build_index(corpus)
        assert spy.call_count == len(corpus)
        # the reference: count each document's tokens, then sort the
        # postings stably by term row
        rows, term_rows, ordinals, tfs, doc_lengths = {}, [], [], [], []
        for ordinal, doc in enumerate(corpus):
            tokens = tokenize(doc.text)
            doc_lengths.append(len(tokens))
            counts = {}
            for t in tokens:
                counts[t] = counts.get(t, 0) + 1
            for token, tf in counts.items():
                term_rows.append(rows.setdefault(token, len(rows)))
                ordinals.append(ordinal)
                tfs.append(tf)
        by_row = np.argsort(np.array(term_rows, dtype=np.int64), kind="stable")
        offsets = np.concatenate([[0], np.cumsum(np.bincount(term_rows, minlength=len(rows)))])
        postings = index.postings
        assert list(postings.rows.items()) == list(rows.items())
        np.testing.assert_array_equal(postings.offsets, offsets)
        np.testing.assert_array_equal(postings.ordinals, np.array(ordinals, dtype=np.int32)[by_row])
        np.testing.assert_array_equal(postings.tfs, np.array(tfs, dtype=np.int32)[by_row])
        np.testing.assert_array_equal(index.doc_lengths, doc_lengths)
        assert index.doc_ids == [d.doc_id for d in corpus]


class TestBm25Score:
    def test_absent_token_scores_zero(self):
        index = build_index(docs("apple pie"), k1=0.9, b=0.4)
        assert bm25_score(index, ["zebra"], 0) == 0.0

    def test_single_doc_fixture(self):
        # |d| = avgdl and tf = 1 make the tf term exactly 1, leaving idf = ln(4/3)
        index = build_index(docs("apple"), k1=0.9, b=0.4)
        assert bm25_score(index, ["apple"], 0) == pytest.approx(math.log(4 / 3), abs=1e-12)

    def test_duplicate_query_token_doubles(self):
        index = build_index(docs("apple", "banana"), k1=0.9, b=0.4)
        once = bm25_score(index, ["apple"], 0)
        twice = bm25_score(index, ["apple", "apple"], 0)
        assert twice == pytest.approx(2 * once)

    def test_ordinal_out_of_range(self):
        index = build_index(docs("apple"))
        with pytest.raises(DataError):
            bm25_score(index, ["apple"], 1)

    def test_tf_monotonicity(self):
        # appending one more occurrence of a query term never decreases the score
        base = "apple pie crust"
        for extra in range(1, 6):
            a = build_index(docs(base + " apple" * (extra - 1), "filler words here"))
            b = build_index(docs(base + " apple" * extra, "filler words here"))
            assert bm25_score(b, ["apple"], 0) >= bm25_score(a, ["apple"], 0)


class TestSearchBm25:
    def test_no_match_empty(self):
        index = build_index(docs("apple", "banana"))
        assert search_bm25(index, "zebra", 10) == []

    def test_tie_broken_by_doc_id(self):
        index = build_index(docs("apple", "apple"))
        hits = search_bm25(index, "apple", 10)
        assert [h.doc_id for h in hits] == ["d0", "d1"]
        assert hits[0].score == hits[1].score

    def test_k_zero_rejected(self):
        index = build_index(docs("apple"))
        with pytest.raises(ValueError):
            search_bm25(index, "apple", 0)

    def test_matches_brute_force_oracle(self):
        # oracle: score every document directly and sort with the same tie rule
        rng = random.Random(42)
        vocab = [f"w{i}" for i in range(60)]
        corpus = [
            Document(f"d{i:03d}", " ".join(rng.choices(vocab, k=rng.randint(3, 40))))
            for i in range(200)
        ]
        index = build_index(corpus)
        for _ in range(50):
            query = " ".join(rng.choices(vocab, k=rng.randint(1, 5)))
            tokens = tokenize(query)
            oracle = sorted(
                (
                    (index.doc_ids[o], bm25_score(index, tokens, o))
                    for o in range(index.n_docs)
                ),
                key=lambda t: (-t[1], t[0]),
            )
            oracle = [(d, s) for d, s in oracle if s > 0][:30]
            got = [(h.doc_id, h.score) for h in search_bm25(index, query, 30)]
            assert [d for d, _ in got] == [d for d, _ in oracle]
            for (_, gs), (_, os_) in zip(got, oracle):
                assert gs == pytest.approx(os_, rel=1e-12)


def reference_bm25(corpus, query, k, k1, b):
    """The per-posting dict accumulator, computed from the corpus text alone."""
    counts = [{} for _ in corpus]
    for c, doc in zip(counts, corpus):
        for t in tokenize(doc.text):
            c[t] = c.get(t, 0) + 1
    lengths = [sum(c.values()) for c in counts]
    avgdl = sum(lengths) / len(lengths) if lengths else 0.0
    n = len(corpus)
    acc = {}
    for token in tokenize(query):
        plist = [(o, c[token]) for o, c in enumerate(counts) if token in c]
        if not plist:
            continue
        df = len(plist)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        for o, tf in plist:
            norm = 1.0 - b + b * lengths[o] / avgdl
            acc[o] = acc.get(o, 0.0) + idf * (tf * (k1 + 1.0) / (tf + k1 * norm))
    hits = [ScoredDoc(corpus[o].doc_id, s) for o, s in acc.items() if s > 0.0]
    hits.sort(key=lambda h: (-h.score, h.doc_id))
    return hits[:k]


# the default and the three settings ablate-grid indexes with
BM25_SETTINGS = [(0.9, 0.4), (1.5, 0.75), (0.4, 0.1), (1.2, 0.2)]


class TestImpactSearch:
    @staticmethod
    def corpus():
        rng = random.Random(7)
        vocab = [f"w{i}" for i in range(50)]
        texts = [" ".join(rng.choices(vocab, k=rng.randint(1, 30))) for _ in range(120)]
        texts += texts[:12]  # identical documents tie at every score
        ids = rng.sample(range(10_000), len(texts))  # doc_id order differs from corpus order
        return [Document(f"d{i:05d}", t) for i, t in zip(ids, texts)], vocab, rng

    @pytest.mark.parametrize("k1,b", BM25_SETTINGS)
    def test_bit_identical_to_accumulator(self, k1, b):
        corpus, vocab, rng = self.corpus()
        index = build_index(corpus, k1=k1, b=b)
        for _ in range(40):
            words = rng.choices(vocab, k=rng.randint(1, 6))
            query = " ".join(words + words[:2])  # repeated query tokens
            for k in (1, 3, 10, 1000):  # cuts through ties; more than the hits
                assert search_bm25(index, query, k) == reference_bm25(corpus, query, k, k1, b)

    def test_ties_at_kth_score_keep_doc_id_order(self):
        corpus = [Document(d, "apple pie") for d in ("d5", "d2", "d9", "d1")]
        corpus.append(Document("d0", "apple apple pie"))
        hits = search_bm25(build_index(corpus), "apple", 3)
        assert [h.doc_id for h in hits] == ["d0", "d1", "d2"]
        assert hits[1].score == hits[2].score

    def test_empty_corpus_and_unknown_tokens(self):
        assert search_bm25(build_index([]), "apple apple", 5) == []
        index = build_index(docs("apple"))
        assert search_bm25(index, "zebra zebra", 5) == reference_bm25(docs("apple"), "zebra", 5,
                                                                       0.9, 0.4) == []


class TestIndexFile:
    def test_writes_exactly_the_given_path(self, tmp_path):
        save_index(build_index(docs("apple pie")), tmp_path / "index.json")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["index.json"]

    def test_document_frequency_survives_round_trip(self, tmp_path):
        corpus, vocab, _ = TestImpactSearch.corpus()
        save_index(build_index(corpus), tmp_path / "index.npz")
        loaded = load_index(tmp_path / "index.npz")
        for token in vocab + ["absent"]:
            df = sum(token in tokenize(d.text) for d in corpus)
            assert len(loaded.postings.get(token, ())) == df

    def test_index_with_the_old_tokenizer_members_loads(self, tmp_path):
        # indexes of older versions also hold the tokenizer settings every one
        # of them was built with; the loader leaves them unread
        corpus, vocab, rng = TestImpactSearch.corpus()
        index = build_index(corpus)
        path = tmp_path / "index.npz"
        save_index(index, path)
        with np.load(path) as z:
            members = {name: z[name] for name in z.files}
        with open(path, "wb") as f:
            np.savez(f, **members, lowercase=np.bool_(True), min_token_len=np.int64(1))
        loaded = load_index(path)
        assert loaded.postings == index.postings and loaded.doc_ids == index.doc_ids
        for _ in range(20):
            query = " ".join(rng.choices(vocab, k=rng.randint(1, 6)))
            assert search_bm25(loaded, query, 30) == search_bm25(index, query, 30)

    def test_legacy_json_index_refused(self, tmp_path):
        path = tmp_path / "index.json"
        path.write_text(json.dumps({"k1": 0.9, "b": 0.4, "lowercase": True, "min_token_len": 1,
                                    "doc_ids": ["d0"], "doc_lengths": [1],
                                    "postings": {"apple": [[0, 1]]}}))
        with pytest.raises(DataError, match=r"index\.json.*index build"):
            load_index(path)

    @pytest.mark.parametrize("damage", ["truncated", "flipped", "empty", "member-missing"])
    def test_corrupt_npz_refused(self, tmp_path, damage):
        path = tmp_path / "index.npz"
        save_index(build_index(docs("apple pie", "banana split", "apple banana")), path)
        data = path.read_bytes()
        if damage == "truncated":
            path.write_bytes(data[: len(data) // 2])
        elif damage == "flipped":
            mid = len(data) // 2
            path.write_bytes(data[:mid] + bytes(b ^ 0xFF for b in data[mid:mid + 64])
                             + data[mid + 64:])
        elif damage == "empty":
            path.write_bytes(b"")
        else:
            with open(path, "wb") as f:
                np.savez(f, k1=np.float64(0.9))
        with pytest.raises(DataError, match=r"index\.npz.*index build"):
            load_index(path)

    def test_inconsistent_arrays_refused(self, tmp_path):
        path = tmp_path / "index.npz"
        index = build_index(docs("apple pie", "banana split"))
        index.postings.ordinals[0] = 7  # a document that does not exist
        save_index(index, path)
        with pytest.raises(DataError, match="ordinal"):
            load_index(path)


class TestIndexPersistence:
    def test_save_load_round_trip(self, tmp_path):
        index = build_index(docs("apple pie", "banana split", "apple banana"))
        path = tmp_path / "index.json"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.postings == index.postings
        assert loaded.doc_ids == index.doc_ids
        assert search_bm25(loaded, "apple", 5) == search_bm25(index, "apple", 5)


class TestDense:
    def store(self):
        import numpy as np

        return DenseStore(["d1", "d2"], np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_dot_product_order(self):
        hits = search_dense(self.store(), [1.0, 0.0], 2)
        assert [(h.doc_id, h.score) for h in hits] == [("d1", 1.0), ("d2", 0.0)]

    def test_zero_query_doc_id_order(self):
        hits = search_dense(self.store(), [0.0, 0.0], 2)
        assert [h.doc_id for h in hits] == ["d1", "d2"]
        assert all(h.score == 0.0 for h in hits)

    def test_k_larger_than_store(self):
        assert len(search_dense(self.store(), [1.0, 1.0], 10)) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            search_dense(self.store(), [1.0, 0.0, 0.0], 2)

    def test_load_store(self):
        store = load_dense_store([
            '{"doc_id": "d1", "vector": [1.0, 2.0]}\n',
            '{"doc_id": "d2", "vector": [0.5, 0.5]}\n',
        ])
        assert store.dimension == 2 and set(store.doc_ids) == {"d1", "d2"}

    def test_matches_per_row_brute_force(self):
        rng = np.random.default_rng(11)
        for n, d in ((1001, 33), (850, 16), (6, 3)):
            # nonnegative entries keep the sums well conditioned for rtol 1e-12
            matrix = rng.random((n, d)).round(4)
            matrix[n // 2:n // 2 * 2] = matrix[:n // 2]  # identical rows at other positions
            ids = [f"d{i:05d}" for i in rng.permutation(n)]
            store = DenseStore(ids, matrix)
            for _ in range(5):
                q = rng.random(d).round(3)
                brute = sorted(((doc_id, float(vec @ q)) for doc_id, vec in zip(ids, matrix)),
                               key=lambda t: (-t[1], t[0]))
                for k in (1, 7, n + 5):
                    got = search_dense(store, q, k)
                    assert [h.doc_id for h in got] == [doc_id for doc_id, _ in brute[:k]]
                    np.testing.assert_allclose([h.score for h in got],
                                               [s for _, s in brute[:k]], rtol=1e-12)

    def test_load_store_repeated_doc_id(self):
        with pytest.raises(DataError, match=r"line 3.*'a'.*line 1"):
            load_dense_store(['{"doc_id": "a", "vector": [1]}\n', '{"doc_id": "b", "vector": [2]}\n',
                              '{"doc_id": "a", "vector": [3]}\n'])

    def test_load_store_non_string_doc_id(self):
        with pytest.raises(DataError, match="line 1.*not a string"):
            load_dense_store(['{"doc_id": ["a"], "vector": [1]}\n'])

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_load_store_non_finite(self, bad):
        with pytest.raises(DataError, match="line 2.*non-finite"):
            load_dense_store(['{"doc_id": "a", "vector": [1, 2]}\n',
                              f'{{"doc_id": "b", "vector": [1, {bad}]}}\n'])

    def test_load_store_dimension_mismatch(self):
        with pytest.raises(DataError, match="line 2"):
            load_dense_store(['{"doc_id": "a", "vector": [1]}\n',
                              '{"doc_id": "b", "vector": [1, 2]}\n'])

    @pytest.mark.parametrize("later", [
        '{"doc_id": "a", "vector": [3, 4]}\n', '{"doc_id": "c", "vector": [5]}\n', '{oops\n',
    ], ids=["repeated-doc-id", "dimension", "bad-json"])
    @pytest.mark.parametrize("bad, error", [
        ('{"doc_id": "b", "vector": [1, NaN]}\n', "non-finite component"),
        ('{"doc_id": "b", "vector": [[1, 2]]}\n', "not one-dimensional"),
        ('{"doc_id": "b", "vector": ["x", 2]}\n', "could not convert"),
    ], ids=["nan", "nested", "text"])
    def test_load_store_names_first_bad_line(self, bad, error, later):
        # the vectors are converted in one batch, yet the first bad line is named
        with pytest.raises(DataError, match=f"dense store line 2: malformed record .*{error}"):
            load_dense_store(['{"doc_id": "a", "vector": [1, 2]}\n', bad, "\n", later])

    @pytest.mark.parametrize("later", [
        '{"doc_id": "a", "vector": [3, 4]}\n', '{"doc_id": "c", "vector": [5]}\n',
        '{"doc_id": "c", "vector": [1, NaN]}\n', '{"doc_id": "c", "vector": [1, 2]}\n',
    ], ids=["repeated-doc-id", "dimension", "nan", "valid"])
    @pytest.mark.parametrize("doc_id", ["b 1", "", "b\t1"], ids=["space", "empty", "tab"])
    def test_load_store_names_first_doc_id_no_run_file_holds(self, doc_id, later):
        # a store's doc_ids become run lines, which split on whitespace
        bad = json.dumps({"doc_id": doc_id, "vector": [1, 2]}) + "\n"
        with pytest.raises(DataError, match="dense store line 2: malformed record .*non-empty "
                                            "with no whitespace"):
            load_dense_store(['{"doc_id": "a", "vector": [1, 2]}\n', bad, "\n", later])


class TestRunfile:
    def run(self, n=100):
        return {"q1": [ScoredDoc(f"d{i:03d}", float(n - i)) for i in range(n)]}

    def test_truncates_at_k(self):
        hits = RunfileSearcher(self.run(100)).search("q1", 30)
        assert len(hits) == 30 and hits[0].doc_id == "d000"

    def test_unknown_query_counts_miss(self):
        searcher = RunfileSearcher(self.run())
        assert searcher.search("nope", 30) == []
        assert searcher.misses == 1

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            RunfileSearcher(self.run()).search("q1", 0)


class TestLoadScoreMap:
    def test_parses_pairs(self):
        assert load_score_map(["q1\td1\t0.5\n", "\n", "q1\td2\t-1\n", "q2\td1\t2\n"]) == {
            "q1": {"d1": 0.5, "d2": -1.0}, "q2": {"d1": 2.0}}

    def test_repeated_pair_names_both_lines(self):
        with pytest.raises(DataError, match=r"line 3.*'q1', 'd1'.*line 1"):
            load_score_map(["q1\td1\t0.5\n", "q1\td2\t0.4\n", "q1\td1\t0.7\n"])

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_score_names_line(self, bad):
        with pytest.raises(DataError, match=f"line 2: non-finite score '{bad}'"):
            load_score_map(["q1\td1\t0.5\n", f"q1\td2\t{bad}\n"])

    def test_non_numeric_score_names_line(self):
        with pytest.raises(DataError, match="line 1: non-numeric"):
            load_score_map(["q1\td1\thigh\n"])


class TestComposeRerank:
    def base(self):
        return {"q1": [ScoredDoc("d1", 3.0), ScoredDoc("d2", 2.0), ScoredDoc("d3", 1.0)]}

    def test_reorders_by_external_scores(self):
        score_map = {"q1": {"d1": 0.1, "d2": 0.9, "d3": 0.5}}
        out = compose_rerank(self.base(), score_map, k_pool=3, k_out=3)
        assert [e.doc_id for e in out["q1"]] == ["d2", "d3", "d1"]

    def test_identity_when_scores_equal_base(self):
        score_map = {"q1": {"d1": 3.0, "d2": 2.0, "d3": 1.0}}
        out = compose_rerank(self.base(), score_map, k_pool=3, k_out=3)
        assert [e.doc_id for e in out["q1"]] == ["d1", "d2", "d3"]

    def test_missing_score_names_pair(self):
        with pytest.raises(DataError, match=r"q1.*d3"):
            compose_rerank(self.base(), {"q1": {"d1": 1.0, "d2": 0.5}}, 3, 3)

    def test_pool_and_output_depths(self):
        base = {"q1": [ScoredDoc(f"d{i:03d}", float(100 - i)) for i in range(100)]}
        score_map = {"q1": {f"d{i:03d}": float(i) for i in range(100)}}
        out = compose_rerank(base, score_map, k_pool=100, k_out=30)
        assert len(out["q1"]) == 30
        # highest external score (the deepest base doc) comes first
        assert out["q1"][0].doc_id == "d099"

    def test_k_out_exceeding_pool_rejected(self):
        with pytest.raises(ValueError):
            compose_rerank(self.base(), {}, k_pool=2, k_out=3)

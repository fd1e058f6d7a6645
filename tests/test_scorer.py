import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from distilrank import scorer
from distilrank.errors import DataError
from distilrank.scorer import (
    FeatureConfig,
    FeatureStore,
    ScorerParams,
    ScoreStrategy,
    SparseVector,
    TermTable,
    featurize,
    featurize_batch,
    forward,
    init_params,
    load_checkpoint,
    load_external_logits,
    save_checkpoint,
    score_batch,
    stack_rows,
)

SMALL = FeatureConfig(hash_dim=1 << 12)

# repeated and case-varied words, and multibyte ones whose utf-8 length is not
# their character length, which is what the batched qxd hashes key on
WORDS = ["a", "bb", "ccc", "Cat", "cat", "é", "café", "日本", "日本語", "straße", "Ω", "x9"]
TEXTS = st.one_of(st.lists(st.sampled_from(WORDS), max_size=24).map(" ".join),
                  st.text(max_size=40))


class TestFeaturize:
    def test_empty_pair(self):
        vec = featurize("", "", SMALL)
        assert vec.nnz == 0

    def test_deterministic(self):
        a = featurize("what is bm25", "bm25 is a ranking function", SMALL)
        b = featurize("what is bm25", "bm25 is a ranking function", SMALL)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.values, b.values)

    def test_all_namespaces_active_on_overlap(self):
        # "a" vs "a": q:, d:, x: and qxd: each contribute one hashed feature
        vec = featurize("a", "a", SMALL)
        assert vec.nnz >= 1
        assert np.abs(vec.values).sum() >= 1.0
        # with four distinct keys and no collisions there are exactly 4 buckets
        assert vec.nnz <= 4

    def test_strictly_increasing_indices(self):
        vec = featurize("alpha beta gamma", "gamma delta epsilon zeta", SMALL)
        assert np.all(np.diff(vec.indices) > 0)

    def test_interaction_cap(self):
        no_cross = FeatureConfig(hash_dim=1 << 12, interaction_cap=0)
        with_cross = FeatureConfig(hash_dim=1 << 12, interaction_cap=16)
        a = featurize("alpha", "beta", no_cross)
        b = featurize("alpha", "beta", with_cross)
        assert b.nnz > a.nnz

    def test_hash_dim_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            FeatureConfig(hash_dim=1000)


def tiny_params(w1_fill=0.0, b2=(0.0, 0.0)):
    config = FeatureConfig(hash_dim=4, interaction_cap=0)
    return ScorerParams(
        w1=np.full((4, 3), w1_fill),
        b1=np.zeros(3),
        w2=np.ones((3, 2)),
        b2=np.array(b2, dtype=float),
        feature=config,
    )


class TestForward:
    def test_all_zero_params(self):
        params = tiny_params()
        params.w2 = np.zeros((3, 2))
        vec = SparseVector(np.array([0, 1]), np.array([1.0, 2.0]))
        _, _, z = forward(params, stack_rows([vec], 4))
        assert z[0].tolist() == [0.0, 0.0]

    def test_bias_path(self):
        params = tiny_params(b2=(1.0, -1.0))
        params.w2 = np.zeros((3, 2))
        empty = SparseVector(np.empty(0, dtype=np.int64), np.empty(0))
        _, _, z = forward(params, stack_rows([empty], 4))
        assert z[0].tolist() == [1.0, -1.0]

    def test_doubling_w2_doubles_logits(self):
        # relu stays active everywhere on this instance, so the map is linear in w2
        params = tiny_params(w1_fill=0.5)
        vec = SparseVector(np.array([1, 3]), np.array([1.0, 1.0]))
        base = forward(params, stack_rows([vec], 4))[2][0]
        params.w2 = params.w2 * 2.0
        doubled = forward(params, stack_rows([vec], 4))[2][0]
        assert doubled[0] == pytest.approx(2 * base[0])
        assert doubled[1] == pytest.approx(2 * base[1])

    def test_non_finite_rejected(self):
        params = tiny_params(w1_fill=np.inf)
        vec = SparseVector(np.array([0]), np.array([1.0]))
        with pytest.raises(DataError):
            forward(params, stack_rows([vec], 4))

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            stack_rows([SparseVector(np.array([1, 4]), np.array([1.0, 1.0]))], 4)
        with pytest.raises(ValueError):
            stack_rows([SparseVector(np.array([-1]), np.array([1.0]))], 4)

    @pytest.mark.parametrize("strategy", list(ScoreStrategy))
    def test_matches_row_of_batched_forward(self, strategy):
        params = init_params(FeatureConfig(hash_dim=1 << 8), hidden=8, seed=3)
        rng = np.random.default_rng(4)
        params.b1 = rng.normal(0.0, 0.1, size=8)
        params.b2 = rng.normal(0.0, 0.1, size=2)
        vectors = [
            featurize("alpha beta", "beta gamma delta", params.feature),
            featurize("", "", params.feature),
            featurize("gamma", "alpha alpha gamma epsilon zeta", params.feature),
        ]
        _, _, z = forward(params, stack_rows(vectors, params.feature.hash_dim))
        batched = score_batch(z, strategy)
        for i, vec in enumerate(vectors):
            _, _, z_one = forward(params, stack_rows([vec], params.feature.hash_dim))
            one = score_one(*z_one[0], strategy)
            assert one == pytest.approx(batched[i], rel=1e-12)

    def test_positive_homogeneity_with_zero_biases(self):
        # scaling features by c > 0 cannot flip relu signs, so logits scale by c
        params = init_params(FeatureConfig(hash_dim=1 << 8), hidden=8, seed=3)
        vec = featurize("alpha beta", "beta gamma delta", params.feature)
        for c in (0.5, 2.0, 10.0):
            scaled = SparseVector(vec.indices, vec.values * c)
            base = forward(params, stack_rows([vec], params.feature.hash_dim))[2][0]
            out = forward(params, stack_rows([scaled], params.feature.hash_dim))[2][0]
            assert out[0] == pytest.approx(c * base[0], rel=1e-12)
            assert out[1] == pytest.approx(c * base[1], rel=1e-12)


def score_one(z_true: float, z_false: float, strategy: ScoreStrategy) -> float:
    """`score_batch` of the single row (z_true, z_false)."""
    return score_batch(np.array([[z_true, z_false]]), strategy)[0]


class TestScore:
    def test_softmax_fixture(self):
        assert score_one(1.0, -1.0, ScoreStrategy.SOFTMAX_TRUE_FALSE) == pytest.approx(
            0.8807970779778823, abs=1e-12
        )

    def test_difference_fixture(self):
        assert score_one(1.0, -1.0, ScoreStrategy.LOGIT_DIFFERENCE) == 2.0

    def test_softmax_symmetry_at_zero(self):
        assert score_one(0.0, 0.0, ScoreStrategy.SOFTMAX_TRUE_FALSE) == 0.5

    def test_single_logit(self):
        assert score_one(3.5, -100.0, ScoreStrategy.SINGLE_LOGIT) == 3.5

    def test_softmax_complement_sums_to_one(self):
        rng = np.random.default_rng(0)
        for z_t, z_f in rng.normal(size=(200, 2)) * 5:
            a = score_one(z_t, z_f, ScoreStrategy.SOFTMAX_TRUE_FALSE)
            b = score_one(z_f, z_t, ScoreStrategy.SOFTMAX_TRUE_FALSE)
            assert a + b == pytest.approx(1.0, abs=1e-15)

    def test_ordering_equivalence_softmax_vs_difference(self):
        # scale keeps |z_t - z_f| below float64 sigmoid saturation (~36)
        rng = np.random.default_rng(123)
        for _ in range(100):
            z = rng.normal(size=(30, 2)) * 4
            soft = score_batch(z, ScoreStrategy.SOFTMAX_TRUE_FALSE)
            diff = score_batch(z, ScoreStrategy.LOGIT_DIFFERENCE)
            np.testing.assert_array_equal(np.argsort(-soft), np.argsort(-diff))
            np.testing.assert_allclose(soft, expit(diff), atol=1e-15)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_params(FeatureConfig(hash_dim=1 << 8), hidden=16, seed=1)
        path = tmp_path / "scorer.ckpt"
        save_checkpoint(params, ScoreStrategy.LOGIT_DIFFERENCE, path)
        loaded, strategy = load_checkpoint(path)
        assert strategy is ScoreStrategy.LOGIT_DIFFERENCE
        assert loaded.feature == params.feature
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scorer.ckpt"]
        # float32 from end to end: the loader gives back the saved bits, unwidened
        for saved, read in zip(params.arrays(), loaded.arrays()):
            assert saved.dtype == read.dtype == np.float32
            np.testing.assert_array_equal(read.view(np.uint32), saved.view(np.uint32))

    def test_checkpoint_with_the_old_tokenizer_members_loads(self, tmp_path):
        # checkpoints of older versions also hold the tokenizer settings every
        # one of them was trained with; the loader leaves them unread
        params = init_params(FeatureConfig(hash_dim=1 << 8, interaction_cap=4), hidden=16,
                             seed=1)
        path = tmp_path / "scorer.ckpt"
        save_checkpoint(params, ScoreStrategy.SOFTMAX_TRUE_FALSE, path)
        want, _ = load_checkpoint(path)
        with np.load(path) as z:
            members = {name: z[name] for name in z.files}
        with open(path, "wb") as f:
            np.savez(f, **members, lowercase=np.bool_(True), min_token_len=np.int64(1))
        loaded, strategy = load_checkpoint(path)
        assert strategy is ScoreStrategy.SOFTMAX_TRUE_FALSE
        assert loaded.feature == want.feature
        rows = stack_rows([featurize("cat bb", doc, loaded.feature)
                           for doc in ["a bb cat", "日本 cat cat", ""]], 1 << 8)
        np.testing.assert_array_equal(score_batch(forward(loaded, rows)[2], strategy),
                                      score_batch(forward(want, rows)[2], strategy))

    def test_truncated_payload_rejected(self, tmp_path):
        params = init_params(FeatureConfig(hash_dim=1 << 8), hidden=16, seed=1)
        path = tmp_path / "scorer.ckpt"
        save_checkpoint(params, ScoreStrategy.SINGLE_LOGIT, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(DataError):
            load_checkpoint(path)


@settings(max_examples=200, deadline=None)
@given(
    queries=st.lists(TEXTS, min_size=1, max_size=3),
    documents=st.lists(TEXTS, min_size=1, max_size=6),
    hash_dim=st.sampled_from([1 << 10, 1 << 14, 1 << 18]),
    interaction_cap=st.sampled_from([0, 1, 4, 16]),
)
@example(queries=[""], documents=["", "a bb"], hash_dim=1 << 10, interaction_cap=16)
@example(queries=["cat Cat cat 日本 é é", " ".join(WORDS * 2)], documents=["", "日本語 日本 cat"],
         hash_dim=1 << 18, interaction_cap=4)
def test_batch_matches_per_pair_rows(queries, documents, hash_dim, interaction_cap):
    config = FeatureConfig(hash_dim, interaction_cap)
    corpus = {f"d{i}": text for i, text in enumerate(documents)}
    doc_ids = list(corpus) + ["d0"]
    table = TermTable(config)  # shared, so later requests meet known terms and documents
    for query in queries:
        for ids in (doc_ids, doc_ids[::-1]):
            got = featurize_batch(query, ids, corpus, table)
            want = stack_rows([featurize(query, corpus[d], config) for d in ids], hash_dim)
            assert got.shape == want.shape
            np.testing.assert_array_equal(got.indptr, want.indptr)
            np.testing.assert_array_equal(got.indices, want.indices)
            np.testing.assert_array_equal(got.data, want.data)
            np.testing.assert_array_equal(np.signbit(got.data), np.signbit(want.data))


class TestFloat32Features:
    def test_a_sum_that_float32_cannot_hold_exactly_is_refused(self):
        # each of the ``cap`` copies of the query token crosses with the document
        # term of tf 2**14 in one qxd bucket, which then sums to cap * 2**14
        corpus = {"d": " ".join(["a"] * (1 << 14))}
        for cap in (1023, 1024):
            config = FeatureConfig(hash_dim=1 << 18, interaction_cap=cap)
            query = " ".join(["a"] * cap)
            want = stack_rows([featurize(query, corpus["d"], config)], config.hash_dim)
            assert np.abs(want.data).max() == cap << 14
            if cap << 14 < 1 << 24:
                got = featurize_batch(query, ["d"], corpus, TermTable(config))
                assert got.data.dtype == np.float32
                np.testing.assert_array_equal(got.data, want.data)
            else:
                with pytest.raises(DataError, match=r"reaches 2\*\*24 in magnitude"):
                    featurize_batch(query, ["d"], corpus, TermTable(config))
                store = FeatureStore(config)
                with pytest.raises(DataError, match=r"reaches 2\*\*24 in magnitude"):
                    store.rows(query, ["d"], corpus)
                assert len(store) == 0

    # one block of w1 rows, and four
    @pytest.mark.parametrize("hash_dim", [1 << 8, 4 * scorer.INIT_BLOCK_ROWS])
    def test_init_params_rounds_the_float64_draws(self, hash_dim):
        # the draws of earlier versions, which trained in float64, rounded to float32
        params = init_params(FeatureConfig(hash_dim=hash_dim), hidden=5, seed=3)
        rng = np.random.default_rng(3)
        w1 = rng.normal(0.0, 0.05, size=(hash_dim, 5))
        w2 = rng.normal(0.0, 1.0 / np.sqrt(5), size=(5, 2))
        for got, want in zip(params.arrays(), [w1, np.zeros(5), w2, np.zeros(2)]):
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got, want.astype(np.float32))


class TestFeatureStore:
    def test_featurizes_each_pair_once(self, monkeypatch):
        calls = []

        def counted(query, doc_ids, corpus, table):
            calls.extend((query, corpus[d]) for d in doc_ids)
            return featurize_batch(query, doc_ids, corpus, table)

        featurize_batch = scorer.featurize_batch
        monkeypatch.setattr(scorer, "featurize_batch", counted)
        corpus = {"d1": "beta gamma", "d2": "gamma delta epsilon", "d3": ""}
        store = FeatureStore(SMALL)
        first = store.rows("alpha gamma", ["d1", "d2", "d1"], corpus)
        again = store.rows("alpha gamma", ["d3", "d2"], corpus)
        store.rows("other query", ["d1"], corpus)
        assert calls == [("alpha gamma", "beta gamma"), ("alpha gamma", "gamma delta epsilon"),
                         ("alpha gamma", ""), ("other query", "beta gamma")]
        expected = stack_rows(
            [featurize("alpha gamma", corpus[d], SMALL) for d in ("d1", "d2", "d1")],
            SMALL.hash_dim,
        )
        assert first.shape == (3, SMALL.hash_dim) and again.shape == (2, SMALL.hash_dim)
        np.testing.assert_array_equal(first.toarray(), expected.toarray())

    def test_missing_document_named(self):
        with pytest.raises(DataError, match="nope"):
            FeatureStore(SMALL).rows("q", ["nope"], {})

    def test_missing_document_leaves_the_store_unchanged(self):
        corpus = {"d1": "beta gamma", "d2": "gamma delta epsilon", "d3": "alpha"}
        store = FeatureStore(SMALL)
        store.rows("alpha gamma", ["d1"], corpus)
        with pytest.raises(DataError, match="nope"):
            store.rows("alpha gamma", ["d2", "nope", "d1"], corpus)
        assert len(store) == 1
        # the pair made before the failure and the pairs the failed request held back
        assert_rows_match_per_pair(store, "alpha gamma", ["d2", "d1", "d3"], corpus, SMALL)
        assert len(store) == 3

    def test_growth_past_the_initial_capacity(self):
        corpus = {f"d{i}": " ".join(WORDS[i % 7:] + WORDS[: i % 5]) for i in range(40)}
        store = FeatureStore(SMALL)
        queries = ["cat café bb", "日本 x9 Ω straße", "a"]
        for query in queries:
            assert_rows_match_per_pair(store, query, list(corpus), corpus, SMALL)
        assert len(store) == 120 > FeatureStore.INITIAL_ROWS
        nnz = sum(store.rows(query, list(corpus), corpus).nnz for query in queries)
        assert nnz > FeatureStore.INITIAL_NNZ
        for query in queries:  # the rows made before each growth, read back after it
            assert_rows_match_per_pair(store, query, list(corpus)[::-1], corpus, SMALL)

    def test_take_nothing(self):
        rows = FeatureStore(SMALL).take(np.empty(0, dtype=np.int64))
        assert rows.shape == (0, SMALL.hash_dim) and rows.nnz == 0

    def test_repeated_request_gathers_nothing(self, monkeypatch):
        # ablate's cells all request the same evaluation lists through model_score_fn
        corpus = {"d1": "beta gamma", "d2": "gamma delta epsilon", "d3": "alpha"}
        store = FeatureStore(SMALL)
        first = store.rows("alpha gamma", ["d1", "d2", "d3"], corpus)
        store.rows("other query", ["d2"], corpus)  # grows the store between the requests
        takes = []
        monkeypatch.setattr(store, "take", lambda ids: takes.append(ids))
        again = store.rows("alpha gamma", ("d1", "d2", "d3"), corpus)
        assert takes == []
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(again, name), getattr(first, name))

    def test_other_document_order_gets_its_own_rows(self):
        corpus = {"d1": "beta gamma", "d2": "gamma delta epsilon", "d3": "alpha"}
        store = FeatureStore(SMALL)
        store.rows("alpha gamma", ["d1", "d2", "d3"], corpus)
        assert_rows_match_per_pair(store, "alpha gamma", ["d3", "d1", "d2"], corpus, SMALL)
        assert_rows_match_per_pair(store, "alpha gamma", ["d3", "d1"], corpus, SMALL)
        assert len(store) == 3


def assert_rows_match_per_pair(store, query, doc_ids, corpus, config):
    """``store.rows`` equals the stacked per-pair `featurize` rows: the same
    structure and the same values, held as float32 where the per-pair rows
    hold float64."""
    got = store.rows(query, doc_ids, corpus)
    want = stack_rows([featurize(query, corpus[d], config) for d in doc_ids], config.hash_dim)
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert got.indptr.dtype == want.indptr.dtype and got.indices.dtype == want.indices.dtype
    assert got.data.dtype == np.float32 and want.data.dtype == np.float64
    np.testing.assert_array_equal(np.signbit(got.data), np.signbit(want.data))


class _TinyStore(FeatureStore):
    """A store that starts with room for one row and one entry, so that every
    request grows it."""

    INITIAL_ROWS = 1
    INITIAL_NNZ = 1


STORE_CORPUS = {f"d{i}": text for i, text in enumerate(
    ["cat bb a", "", "日本語 日本 cat café", "straße Ω Ω x9", "a a a bb ccc", "é"])}


@settings(max_examples=150, deadline=None)
@given(
    requests=st.lists(
        st.tuples(st.sampled_from(["cat a", "Cat café 日本", "", "bb bb ccc x9 straße"]),
                  st.lists(st.sampled_from(sorted(STORE_CORPUS)), max_size=8)),
        max_size=8,
    ),
    store_type=st.sampled_from([FeatureStore, _TinyStore]),
)
@example(requests=[("cat a", [])], store_type=_TinyStore)
@example(requests=[("cat a", ["d2", "d0", "d2"]), ("", ["d2"]), ("cat a", ["d0", "d1"])],
         store_type=_TinyStore)
def test_store_rows_match_per_pair_rows(requests, store_type):
    """Requests interleaved across queries, repeating a doc_id within one
    request, naming one document under several queries, or naming none."""
    config = FeatureConfig(hash_dim=1 << 10, interaction_cap=4)
    store = store_type(config)
    for query, doc_ids in requests:
        assert_rows_match_per_pair(store, query, doc_ids, STORE_CORPUS, config)
    assert len(store) == len({(q, d) for q, doc_ids in requests for d in doc_ids})
    for query, doc_ids in requests:  # every row again, after all the growth
        assert_rows_match_per_pair(store, query, doc_ids, STORE_CORPUS, config)


class TestExternalLogits:
    def test_single_line(self):
        logits = load_external_logits(["q1\td1\t2.5\t-1.0\n"])
        assert logits == {"q1": {"d1": (2.5, -1.0)}}

    def test_duplicate_rejected(self):
        with pytest.raises(DataError, match="line 2"):
            load_external_logits(["q1\td1\t1\t0\n", "q1\td1\t2\t0\n"])

    def test_difference_scoring_of_loaded_logits(self):
        logits = load_external_logits(["q1\td1\t2.5\t-1.5\n"])
        assert score_one(*logits["q1"]["d1"], ScoreStrategy.LOGIT_DIFFERENCE) == 4.0

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DataError, match="line 2.*non-finite"):
            load_external_logits(["q1\td1\t1\t0\n", f"q1\td2\t0\t{bad}\n"])

import copy
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distilrank import training
from distilrank.errors import DataError, NonFiniteError
from distilrank.scorer import (
    FeatureConfig,
    FeatureStore,
    ScoreStrategy,
    featurize,
    forward_rows,
    init_params,
    score_batch,
    score_batch_grad,
    stack_rows,
)
from distilrank.training import (
    AdamState,
    ExampleStack,
    HistoryRow,
    KindFilter,
    TrainConfig,
    _compact,
    adamw_step,
    batch_loss,
    batch_loss_and_grads,
    filter_examples,
    fit,
    init_adam_state,
    prepare_example,
    prepare_fit,
    ranknet_grad,
    ranknet_loss,
    stack_examples,
    subsample_docs,
    take_examples,
    write_history,
)
from distilrank.types import DistilledExample, QueryKind, Source


class TestRanknetLoss:
    def test_equal_scores_gives_pairs_times_ln2(self):
        assert ranknet_loss([1.0, 1.0, 1.0], [1, 2, 3]) == pytest.approx(3 * math.log(2))

    def test_two_doc_fixture(self):
        # single pair, margin 2 in the right direction
        assert ranknet_loss([2.0, 0.0], [1, 2]) == pytest.approx(
            math.log(1 + math.exp(-2)), abs=1e-12
        )

    def test_softplus_linear_regime_no_overflow(self):
        # wrong direction with margin 100: softplus(100) ~ 100, finite
        loss = ranknet_loss([-50.0, 50.0], [1, 2])
        assert loss == pytest.approx(100.0, abs=1e-10)

    def test_translation_invariance(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=10)
        r = list(rng.permutation(10) + 1)
        assert ranknet_loss(s + 123.456, r) == pytest.approx(ranknet_loss(s, r), rel=1e-12)

    def test_inverted_order_costs_more(self):
        s = [3.0, 2.0, 1.0]
        assert ranknet_loss(s, [3, 2, 1]) > ranknet_loss(s, [1, 2, 3])

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            ranknet_loss([1.0, 2.0], [1, 1])

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ValueError):
            ranknet_loss([float("nan"), 1.0], [1, 2])


class TestRanknetGrad:
    def test_two_doc_symmetric_point(self):
        np.testing.assert_allclose(ranknet_grad([0.0, 0.0], [1, 2]), [-0.5, 0.5])

    def test_gradient_sums_to_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = int(rng.integers(2, 31))
            s = rng.normal(size=m) * 5
            r = list(rng.permutation(m) + 1)
            assert abs(ranknet_grad(s, r).sum()) < 1e-12

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(2)
        h = 1e-5
        for _ in range(30):
            m = int(rng.integers(2, 31))
            s = rng.normal(size=m) * 3
            r = list(rng.permutation(m) + 1)
            grad = ranknet_grad(s, r)
            for k in rng.choice(m, size=min(m, 5), replace=False):
                bumped = s.copy()
                bumped[k] += h
                up = ranknet_loss(bumped, r)
                bumped[k] -= 2 * h
                down = ranknet_loss(bumped, r)
                fd = (up - down) / (2 * h)
                assert grad[k] == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestAdamW:
    def test_zero_grad_zero_decay_is_noop(self):
        theta = [np.array([1.0, -2.0, 3.0])]
        state = init_adam_state(theta)
        config = TrainConfig(weight_decay=0.0)
        adamw_step(theta, [np.zeros(3)], state, config)
        np.testing.assert_array_equal(theta[0], [1.0, -2.0, 3.0])
        assert state.t == 1

    def test_first_step_sign_property(self):
        for g in (0.5, -3.0, 1e-3):
            theta = [np.array([0.0])]
            config = TrainConfig(learning_rate=0.01, weight_decay=0.0)
            adamw_step(theta, [np.array([g])], init_adam_state(theta), config)
            expected = -config.learning_rate * g / (abs(g) + config.eps)
            assert theta[0][0] == pytest.approx(expected, rel=1e-9)

    def test_decoupled_decay_scales_theta(self):
        theta = [np.array([2.0])]
        config = TrainConfig(learning_rate=0.1, weight_decay=0.5)
        adamw_step(theta, [np.zeros(1)], init_adam_state(theta), config)
        assert theta[0][0] == pytest.approx(2.0 * (1 - 0.1 * 0.5), abs=0.0)

    def test_non_finite_grad_rejected(self):
        theta = [np.array([1.0])]
        with pytest.raises(DataError):
            adamw_step(theta, [np.array([np.inf])], init_adam_state(theta), TrainConfig())

    @staticmethod
    def reference_step(arrays, grads, m_list, v_list, t, config):
        """The update written with temporaries, one expression per line."""
        bc1 = 1.0 - config.beta1 ** t
        bc2 = 1.0 - config.beta2 ** t
        for theta, g, m, v in zip(arrays, grads, m_list, v_list):
            if config.weight_decay != 0.0:
                theta *= 1.0 - config.learning_rate * config.weight_decay
            m *= config.beta1
            m += (1.0 - config.beta1) * g
            v *= config.beta2
            v += (1.0 - config.beta2) * np.square(g)
            theta -= config.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + config.eps)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.3])
    def test_in_place_step_matches_reference_bit_for_bit(self, weight_decay):
        rng = np.random.default_rng(8)
        shapes = [(37, 5), (5,), (5, 2), (2,), (3, 4, 6)]
        config = TrainConfig(learning_rate=0.05, weight_decay=weight_decay)
        arrays = [rng.normal(size=shape) for shape in shapes]
        expected = [a.copy() for a in arrays]
        state = init_adam_state(arrays)
        m_ref = [np.zeros_like(a) for a in arrays]
        v_ref = [np.zeros_like(a) for a in arrays]
        for t in range(1, 8):
            # mixed magnitudes, exact zeros and sign changes across steps
            grads = [rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3, size=shape)
                     * (rng.random(shape) > 0.2) for shape in shapes]
            adamw_step(arrays, grads, state, config)
            self.reference_step(expected, grads, m_ref, v_ref, t, config)
            assert state.t == t
            for got, want in zip(arrays + state.m + state.v, expected + m_ref + v_ref):
                np.testing.assert_array_equal(got, want)

    def test_step_allocates_no_block_sized_temporary(self):
        block = np.random.default_rng(9).normal(size=(4096, 64))
        arrays = [block, np.zeros(64)]
        grads = [np.full_like(block, 1e-3), np.full(64, 1e-3)]
        state = init_adam_state(arrays)
        config = TrainConfig(weight_decay=0.01)
        adamw_step(arrays, grads, state, config)  # warm-up
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            adamw_step(arrays, grads, state, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < block.nbytes
        assert state.t == 2


def make_example(qid="q1", m=3, ranking=(2, 3, 1), kind=QueryKind.CROPPED, source=Source.BM25):
    return DistilledExample(
        query_id=qid,
        query_text=f"query text {qid}",
        kind=kind,
        source_retriever=source,
        doc_ids=tuple(f"{qid}-d{i}" for i in range(m)),
        llm_ranking=tuple(ranking),
    )


class TestSubsample:
    def test_identity_when_m_prime_equals_m(self):
        ex = make_example()
        assert subsample_docs(ex, 3, seed=0) is ex

    def test_relative_order_preserved(self):
        # keep positions {0, 2} of r=(2,3,1): survivors re-rank to (2,1)
        ex = make_example(ranking=(2, 3, 1))
        found = False
        for seed in range(50):
            sub = subsample_docs(ex, 2, seed)
            if sub.doc_ids == (ex.doc_ids[0], ex.doc_ids[2]):
                assert sub.llm_ranking == (2, 1)
                found = True
        assert found

    def test_always_a_permutation(self):
        ex = make_example(m=10, ranking=tuple(np.random.default_rng(3).permutation(10) + 1))
        for seed in range(20):
            sub = subsample_docs(ex, 4, seed)
            assert sorted(sub.llm_ranking) == [1, 2, 3, 4]

    def test_m_prime_too_large(self):
        with pytest.raises(ValueError):
            subsample_docs(make_example(), 4, seed=0)

    def test_deterministic(self):
        ex = make_example(m=10, ranking=tuple(range(10, 0, -1)))
        assert subsample_docs(ex, 5, seed=7) == subsample_docs(ex, 5, seed=7)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("epochs", -1),
            ("learning_rate", 0.0),
            ("learning_rate", -1e-3),
            ("learning_rate", float("nan")),
            ("learning_rate", float("inf")),
            ("weight_decay", -5.0),
            ("weight_decay", float("nan")),
            ("weight_decay", float("inf")),
            ("eps", 0.0),
            ("eps", -1e-8),
            ("eps", float("nan")),
            ("beta1", -0.1),
            ("beta1", 1.0),
            ("beta2", 1.0),
            ("beta2", float("nan")),
        ],
    )
    def test_invalid_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field.split("_")[0]):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("epochs", 0), ("weight_decay", 0.0), ("beta1", 0.0), ("beta2", 0.0), ("eps", 1e-12)],
    )
    def test_boundary_value_accepted(self, field, value):
        assert getattr(TrainConfig(**{field: value}), field) == value


def tiny_feature():
    return FeatureConfig(hash_dim=1 << 10, interaction_cap=4)


def prepared_batch(params, rng, n_examples=3, m=5):
    batch = []
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    store = FeatureStore(params.feature)
    corpus = {}
    for e in range(n_examples):
        query = " ".join(rng.choice(vocab, size=3))
        doc_ids = [f"q{e}-d{i}" for i in range(m)]
        corpus.update((d, " ".join(rng.choice(vocab, size=6))) for d in doc_ids)
        ranking = np.asarray(rng.permutation(m) + 1)
        batch.append(DistilledExample(f"q{e}", query, QueryKind.CROPPED, Source.BM25,
                                      tuple(doc_ids), tuple(ranking.tolist())))
    return stack_examples(batch, corpus, store)


class TestBatchGradients:
    @pytest.mark.parametrize(
        "strategy",
        [ScoreStrategy.LOGIT_DIFFERENCE, ScoreStrategy.SINGLE_LOGIT, ScoreStrategy.SOFTMAX_TRUE_FALSE],
    )
    def test_parameter_gradients_match_finite_differences(self, strategy):
        rng = np.random.default_rng(11)
        params = init_params(tiny_feature(), hidden=8, seed=4)
        batch = prepared_batch(params, rng)
        loss, grads = batch_loss_and_grads(params, batch, strategy)
        assert np.isfinite(loss)
        h = 1e-5
        arrays = params.arrays()
        checked = 0
        for arr, grad in zip(arrays, grads):
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            # check every coordinate the batch actually touches, up to 100 per array
            touched = np.nonzero(gflat)[0]
            coords = touched if touched.size <= 100 else rng.choice(touched, 100, replace=False)
            for idx in coords:
                orig = flat[idx]
                flat[idx] = orig + h
                up = batch_loss(params, batch, strategy)
                flat[idx] = orig - h
                down = batch_loss(params, batch, strategy)
                flat[idx] = orig
                fd = (up - down) / (2 * h)
                assert gflat[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)
                checked += 1
        assert checked >= 100


def per_example_loss_and_grads(params, batch, strategy):
    """`batch_loss_and_grads` as a loop over examples, each through the public
    per-list `ranknet_loss` and `ranknet_grad`."""
    rows = batch.rows
    h_pre, h, z = forward_rows(params, rows)
    scores = score_batch(z, strategy)
    scale = 1.0 / len(batch)
    total = 0.0
    ds = np.empty_like(scores)
    for lo, hi in zip(batch.bounds[:-1], batch.bounds[1:]):
        total += ranknet_loss(scores[lo:hi], batch.ranks[lo:hi])
        ds[lo:hi] = ranknet_grad(scores[lo:hi], batch.ranks[lo:hi]) * scale
    dz = ds[:, None] * score_batch_grad(z, strategy)
    dh_pre = (dz @ params.w2.T) * (h_pre > 0.0)
    grads = [rows.T @ dh_pre, dh_pre.sum(axis=0), h.T @ dz, dz.sum(axis=0)]
    return total * scale, grads


@settings(max_examples=120, deadline=None)
@given(
    doc_counts=st.lists(st.integers(1, 30), min_size=1, max_size=10),
    strategy=st.sampled_from(list(ScoreStrategy)),
    seed=st.integers(0, 2**32 - 1),
)
@example(doc_counts=[1], strategy=ScoreStrategy.LOGIT_DIFFERENCE, seed=0)
@example(doc_counts=[1, 1, 1], strategy=ScoreStrategy.SINGLE_LOGIT, seed=1)
@example(doc_counts=[30, 1, 7, 30, 2, 7, 1], strategy=ScoreStrategy.SOFTMAX_TRUE_FALSE, seed=2)
def test_batched_ranknet_matches_per_example_loop(doc_counts, strategy, seed):
    """The loss and all four gradients bit for bit, over batches that mix
    document counts, with random CSR rows and scores of spread-out scale."""
    rng = np.random.default_rng(seed)
    hash_dim, hidden = 64, 8
    params = init_params(FeatureConfig(hash_dim=hash_dim), hidden=hidden, seed=seed % 1000)
    params.b1 = rng.normal(0.0, 0.1, size=hidden)
    params.w2 *= rng.choice([0.1, 1.0, 30.0])  # from near-ties to saturated pairs
    n = sum(doc_counts)
    rows = sp.random_array((n, hash_dim), density=0.2, format="csr", rng=rng,
                           data_sampler=lambda size: rng.integers(-3, 4, size).astype(float))
    batch = ExampleStack(sp.csr_array(rows), np.cumsum([0] + doc_counts),
                         np.concatenate([rng.permutation(m) + 1 for m in doc_counts]))

    loss, grads = batch_loss_and_grads(params, batch, strategy)
    want_loss, want_grads = per_example_loss_and_grads(params, batch, strategy)
    assert loss == want_loss
    assert len(grads) == 4
    for got, want in zip(grads, want_grads):
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    _, _, z = forward_rows(params, batch.rows)
    scores = score_batch(z, strategy)
    want_mean = sum(ranknet_loss(scores[lo:hi], batch.ranks[lo:hi]) for lo, hi in
                    zip(batch.bounds[:-1], batch.bounds[1:])) / len(batch)
    assert batch_loss(params, batch, strategy) == want_mean


class TestExampleStack:
    def prepared(self):
        """Examples of 4, 2 and 3 documents: fewer than a docs_per_query of 4
        for two of them, and the second has a document with an empty row.
        Returns the examples, their corpus, an empty store, and each
        example's rows stacked from per-pair `featurize`."""
        corpus, examples = tiny_corpus_and_examples(n=3, m=4)
        corpus["q1-d1"] = ""
        examples[1] = subsample_docs(replace(examples[1], query_text=""), 2, seed=0)
        examples[2] = subsample_docs(examples[2], 3, seed=1)
        store = FeatureStore(tiny_feature())
        rows = [stack_rows([featurize(ex.query_text, corpus[d], tiny_feature())
                            for d in ex.doc_ids], tiny_feature().hash_dim) for ex in examples]
        assert [r.shape[0] for r in rows] == [4, 2, 3]
        assert any(np.diff(r.indptr).min() == 0 for r in rows)
        return examples, corpus, store, rows

    @staticmethod
    def assert_same_csr(got, want):
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_fields(self):
        assert [f.name for f in fields(ExampleStack)] == ["rows", "bounds", "ranks"]

    def test_stack_matches_vstack(self):
        examples, corpus, store, rows = self.prepared()
        stack = stack_examples(examples, corpus, store)
        self.assert_same_csr(stack.rows, sp.vstack(rows, format="csr"))
        np.testing.assert_array_equal(stack.bounds, [0, 4, 6, 9])
        assert len(stack) == 3
        assert stack.ranks.dtype == np.int64
        np.testing.assert_array_equal(
            stack.ranks, np.concatenate([ex.llm_ranking for ex in examples]))

    def test_prepare_example_gives_store_row_ids(self):
        examples, corpus, store, _ = self.prepared()
        ids = prepare_example(examples[0], corpus, store)
        np.testing.assert_array_equal(ids, [0, 1, 2, 3])
        np.testing.assert_array_equal(
            prepare_example(examples[0], corpus, store), ids)  # held rows are reused
        assert len(store) == 4

    def test_empty_stack(self):
        stack = stack_examples([], {}, FeatureStore(tiny_feature()))
        assert len(stack) == 0 and stack.rows.shape == (0, tiny_feature().hash_dim)
        np.testing.assert_array_equal(stack.bounds, [0])
        assert stack.ranks.shape == (0,) and stack.ranks.dtype == np.int64

    @pytest.mark.parametrize("picks", [[2, 0, 1], [1], [1, 2], [0, 2, 1, 0]])
    def test_gathered_batch_matches_vstack_of_compacted_rows(self, picks):
        examples, corpus, store, rows = self.prepared()
        hash_dim = tiny_feature().hash_dim
        stack = stack_examples(examples, corpus, store)
        touched = np.zeros(hash_dim, dtype=bool)
        touched[stack.rows.indices] = True
        position = np.cumsum(touched) - 1
        n_active = int(touched.sum())
        compacted = _compact(stack, position, n_active)

        batch = take_examples(compacted, np.asarray(picks))

        # the same per example: compact its rows alone, then stack the batch
        want = sp.vstack(
            [sp.csr_array((rows[i].data, position[rows[i].indices], rows[i].indptr),
                          shape=(rows[i].shape[0], n_active))
             for i in picks],
            format="csr",
        )
        self.assert_same_csr(batch.rows, want)
        np.testing.assert_array_equal(
            batch.bounds, np.cumsum([0] + [rows[i].shape[0] for i in picks]))
        np.testing.assert_array_equal(
            batch.ranks, np.concatenate([examples[i].llm_ranking for i in picks]))


def tiny_corpus_and_examples(n=12, m=4):
    rng = np.random.default_rng(5)
    vocab = ["red", "green", "blue", "cyan", "magenta", "yellow", "black", "white"]
    corpus = {}
    examples = []
    for i in range(n):
        doc_ids = []
        for j in range(m):
            doc_id = f"q{i}-d{j}"
            corpus[doc_id] = " ".join(rng.choice(vocab, size=8))
            doc_ids.append(doc_id)
        kind = QueryKind.CROPPED if i % 2 == 0 else QueryKind.GENERATED
        source = list(Source)[i % 4]
        examples.append(
            DistilledExample(
                query_id=f"q{i:03d}",
                query_text=" ".join(rng.choice(vocab, size=3)),
                kind=kind,
                source_retriever=source,
                doc_ids=tuple(doc_ids),
                llm_ranking=tuple(rng.permutation(m) + 1),
            )
        )
    return corpus, examples


def prepare_and_fit(config, train_examples, val_examples, corpus, params, every_epoch=True):
    """`prepare_fit` on a fresh store, then `fit`: what `distilrank train` does."""
    prepared = prepare_fit(config, train_examples, val_examples, corpus,
                           FeatureStore(params.feature))
    return fit(config, prepared, params, every_epoch)


class TestFit:
    def test_zero_epochs_returns_params_unchanged(self):
        corpus, examples = tiny_corpus_and_examples()
        params = init_params(tiny_feature(), hidden=8, seed=0)
        before = [a.copy() for a in params.arrays()]
        params, history = prepare_and_fit(
            TrainConfig(epochs=0, batch_queries=4, docs_per_query=4),
            examples, [], corpus, params,
        )
        for a, b in zip(params.arrays(), before):
            np.testing.assert_array_equal(a, b)
        assert len(history) == 1 and history[0].epoch == 0

    def test_identical_history_for_identical_seed(self):
        corpus, examples = tiny_corpus_and_examples()
        config = TrainConfig(epochs=3, batch_queries=4, docs_per_query=4, seed=9)
        runs = []
        for _ in range(2):
            params = init_params(tiny_feature(), hidden=8, seed=0)
            _, history = prepare_and_fit(config, examples, examples[:4], corpus, params)
            runs.append(history)
        assert runs[0] == runs[1]  # bitwise-identical floats

    @pytest.mark.parametrize("epochs", [0, 3])
    def test_final_row_only_trains_the_same(self, epochs):
        corpus, examples = tiny_corpus_and_examples()
        config = TrainConfig(epochs=epochs, batch_queries=4, docs_per_query=4, seed=9)
        (full, full_history), (final, final_history) = [
            prepare_and_fit(config, examples, examples[:4], corpus,
                            init_params(tiny_feature(), hidden=8, seed=0), every_epoch)
            for every_epoch in (True, False)
        ]
        for a, b in zip(full.arrays(), final.arrays()):
            np.testing.assert_array_equal(a, b)
        assert len(full_history) == epochs + 1
        assert final_history == full_history[-1:]  # bitwise-identical floats

    def test_prepares_each_example_once_through_the_module_name(self, monkeypatch):
        # perfbench's training.prepare_example span wraps this module global
        import distilrank.training as training

        corpus, examples = tiny_corpus_and_examples()
        calls = []
        real = training.prepare_example

        def counted(example, corpus, store):
            calls.append(example.query_id)
            return real(example, corpus, store)

        monkeypatch.setattr(training, "prepare_example", counted)
        config = TrainConfig(epochs=1, batch_queries=4, docs_per_query=3,
                             kind_filter=KindFilter.CROPPED_ONLY)
        prepare_and_fit(config, examples, examples[:3], corpus,
                        init_params(tiny_feature(), hidden=8))
        train = filter_examples(examples, KindFilter.CROPPED_ONLY, None)
        assert 0 < len(train) < len(examples)
        assert calls == [ex.query_id for ex in train + examples[:3]]

    def test_validation_set_does_not_perturb_training(self):
        corpus, examples = tiny_corpus_and_examples()
        config = TrainConfig(epochs=2, batch_queries=4, docs_per_query=4, seed=9)
        trained = []
        for val in ([], examples[:4]):
            params = init_params(tiny_feature(), hidden=8, seed=0)
            params, history = prepare_and_fit(config, examples, val, corpus, params)
            trained.append((params, history))
        np.testing.assert_array_equal(trained[0][0].w1, trained[1][0].w1)
        assert [h.train_loss for h in trained[0][1]] == [h.train_loss for h in trained[1][1]]

    @pytest.mark.parametrize(
        "strategy", [ScoreStrategy.LOGIT_DIFFERENCE, ScoreStrategy.SOFTMAX_TRUE_FALSE]
    )
    def test_both_strategies_terminate_finite(self, strategy):
        corpus, examples = tiny_corpus_and_examples()
        params = init_params(tiny_feature(), hidden=8, seed=0)
        _, history = prepare_and_fit(
            TrainConfig(epochs=2, batch_queries=4, docs_per_query=4, strategy=strategy),
            examples, [], corpus, params,
        )
        assert all(np.isfinite(row.train_loss) for row in history)

    def test_kind_filter_and_source_exclusion(self):
        _, examples = tiny_corpus_and_examples()
        cropped = filter_examples(examples, KindFilter.CROPPED_ONLY, None)
        assert all(ex.kind is QueryKind.CROPPED for ex in cropped)
        without_bm25 = filter_examples(examples, KindFilter.MIXED, Source.BM25)
        assert all(ex.source_retriever is not Source.BM25 for ex in without_bm25)

    def test_empty_filtered_set_rejected(self):
        corpus, examples = tiny_corpus_and_examples()
        only_cropped = [ex for ex in examples if ex.kind is QueryKind.CROPPED]
        with pytest.raises(DataError):
            prepare_fit(TrainConfig(kind_filter=KindFilter.GENERATED_ONLY),
                        only_cropped, [], corpus, FeatureStore(tiny_feature()))

    def test_store_filled_by_an_earlier_fit_changes_nothing(self):
        corpus, examples = tiny_corpus_and_examples()
        config = TrainConfig(epochs=2, batch_queries=4, docs_per_query=3, seed=9)
        shared = FeatureStore(tiny_feature())
        # an earlier fit on other settings fills the shared store
        earlier = replace(config, docs_per_query=4, seed=1)
        fit(earlier, prepare_fit(earlier, examples, examples[:4], corpus, shared),
            init_params(tiny_feature(), hidden=8, seed=5))
        trained = []
        for store in (FeatureStore(tiny_feature()), shared):
            params = init_params(tiny_feature(), hidden=8, seed=0)
            prepared = prepare_fit(config, examples, examples[:4], corpus, store)
            trained.append(fit(config, prepared, params))
        (fresh, fresh_history), (reused, reused_history) = trained
        for a, b in zip(fresh.arrays(), reused.arrays()):
            np.testing.assert_array_equal(a, b)
        assert fresh_history == reused_history  # bitwise-identical floats

    def test_store_with_other_feature_config_rejected(self):
        corpus, examples = tiny_corpus_and_examples()
        config = TrainConfig(epochs=1, docs_per_query=4)
        prepared = prepare_fit(config, examples, [], corpus,
                               FeatureStore(FeatureConfig(hash_dim=1 << 11)))
        with pytest.raises(ValueError, match="feature config"):
            fit(config, prepared, init_params(tiny_feature(), hidden=8, seed=0))

    def test_missing_document_named(self):
        corpus, examples = tiny_corpus_and_examples()
        del corpus[examples[0].doc_ids[0]]
        with pytest.raises(DataError, match=examples[0].doc_ids[0]):
            prepare_fit(TrainConfig(epochs=1, docs_per_query=4), examples, [], corpus,
                        FeatureStore(tiny_feature()))


class TestPreparedFit:
    def test_both_strategies_on_one_preparation_match_two_fits(self):
        # ablate prepares each (documents, kind, source) once for both strategies
        corpus, examples = tiny_corpus_and_examples()
        base = TrainConfig(epochs=2, batch_queries=4, docs_per_query=3, seed=9)
        initial = init_params(tiny_feature(), hidden=8, seed=0)
        prepared = prepare_fit(base, examples, examples[:4], corpus, FeatureStore(tiny_feature()))
        before = copy.deepcopy(prepared)
        for strategy in (ScoreStrategy.LOGIT_DIFFERENCE, ScoreStrategy.SINGLE_LOGIT):
            config = replace(base, strategy=strategy)
            shared, shared_history = fit(config, prepared, copy.deepcopy(initial))
            fresh, fresh_history = prepare_and_fit(config, examples, examples[:4], corpus,
                                                   copy.deepcopy(initial))
            for a, b in zip(shared.arrays(), fresh.arrays()):
                np.testing.assert_array_equal(a, b)
            assert shared_history == fresh_history  # bitwise-identical floats
        for got, want in zip(prepared[:2], before[:2]):
            for name in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(got.rows, name), getattr(want.rows, name))
            np.testing.assert_array_equal(got.bounds, want.bounds)
            np.testing.assert_array_equal(got.ranks, want.ranks)
        np.testing.assert_array_equal(prepared[2], before[2])
        assert prepared[3] == before[3] == tiny_feature()


class TestDivergence:
    def test_a_diverged_fit_raises_non_finite_error(self):
        corpus, examples = tiny_corpus_and_examples()
        config = TrainConfig(epochs=3, batch_queries=4, docs_per_query=4, learning_rate=1e200)
        with pytest.raises(NonFiniteError, match="training diverged at epoch"):
            prepare_and_fit(config, examples, [], corpus,
                            init_params(tiny_feature(), hidden=8, seed=0))

    @pytest.mark.parametrize("every_epoch", [True, False])
    def test_a_diverged_history_evaluation_names_its_epoch(self, monkeypatch, every_epoch):
        # the last step of an epoch can leave parameters that only its history row reads
        corpus, examples = tiny_corpus_and_examples()
        config = TrainConfig(epochs=2, batch_queries=4, docs_per_query=4)
        real, calls = training.batch_loss, []

        def diverging_at_the_last(params, stack, strategy):
            calls.append(stack)
            if len(calls) == 1 + 2 * every_epoch:  # the row after epoch 2
                raise NonFiniteError("forward pass produced non-finite logits")
            return real(params, stack, strategy)

        monkeypatch.setattr(training, "batch_loss", diverging_at_the_last)
        with pytest.raises(NonFiniteError) as info:
            prepare_and_fit(config, examples, [], corpus,
                            init_params(tiny_feature(), hidden=8, seed=0), every_epoch)
        assert str(info.value) == ("training diverged at epoch 2, in the history evaluation: "
                                   "forward pass produced non-finite logits")

    def test_overflowing_scores_raise_without_a_warning(self, recwarn):
        corpus, examples = tiny_corpus_and_examples()
        params = init_params(tiny_feature(), hidden=8, seed=0)
        batch, _, _, _ = prepare_fit(TrainConfig(docs_per_query=4), examples, [], corpus,
                                     FeatureStore(tiny_feature()))
        params.w1 = np.full((batch.rows.shape[1], 8), 1e200)
        params.w2 = np.full((8, 2), 1e200)
        for call in (forward_rows, batch_loss, batch_loss_and_grads):
            args = (params, batch.rows) if call is forward_rows else (
                params, batch, ScoreStrategy.LOGIT_DIFFERENCE)
            with pytest.raises(NonFiniteError):
                call(*args)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_other_errors_in_a_step_are_not_divergence(self, monkeypatch):
        corpus, examples = tiny_corpus_and_examples()

        def broken(*args):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(training, "batch_loss_and_grads", broken)
        with pytest.raises(ValueError, match="broadcast") as info:
            prepare_and_fit(TrainConfig(epochs=1, docs_per_query=4), examples, [], corpus,
                            init_params(tiny_feature(), hidden=8, seed=0))
        assert not isinstance(info.value, NonFiniteError)


def dense_reference_fit(config, train_examples, val_examples, corpus, params):
    """fit without active rows or CSR: a per-document forward, an np.outer
    backward and a full-size adamw_step. Takes every example whole, so it
    matches fit when docs_per_query >= m and no filter applies."""

    def prepared(examples):
        return [
            ([featurize(ex.query_text, corpus[d], params.feature) for d in ex.doc_ids],
             np.asarray(ex.llm_ranking))
            for ex in examples
        ]

    def forward_all(features):
        h_pre = np.array([params.w1[v.indices].T @ v.values + params.b1 for v in features])
        h = np.maximum(h_pre, 0.0)
        return h_pre, h, h @ params.w2 + params.b2

    def mean_loss(data):
        if not data:
            return float("nan")
        return sum(
            ranknet_loss(score_batch(forward_all(f)[2], config.strategy), r) for f, r in data
        ) / len(data)

    train, val = prepared(train_examples), prepared(val_examples)
    history = [HistoryRow(0, mean_loss(train), mean_loss(val))]
    state = init_adam_state(params.arrays())
    rng = np.random.default_rng([config.seed, 2])
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(train))
        for start in range(0, len(order), config.batch_queries):
            batch = [train[i] for i in order[start: start + config.batch_queries]]
            grads = [np.zeros_like(a) for a in params.arrays()]
            gw1, gb1, gw2, gb2 = grads
            for features, ranking in batch:
                h_pre, h, z = forward_all(features)
                ds = ranknet_grad(score_batch(z, config.strategy), ranking) / len(batch)
                dz = ds[:, None] * score_batch_grad(z, config.strategy)
                gw2 += h.T @ dz
                gb2 += dz.sum(axis=0)
                dh_pre = (dz @ params.w2.T) * (h_pre > 0.0)
                gb1 += dh_pre.sum(axis=0)
                for vec, row in zip(features, dh_pre):
                    gw1[vec.indices] += np.outer(vec.values, row)
            adamw_step(params.arrays(), grads, state, config)
        history.append(HistoryRow(epoch, mean_loss(train), mean_loss(val)))
    return params, history, state.t


class TestActiveRowFit:
    # Under softmax-true-false every parameter gets a gradient that is nonzero
    # in exact arithmetic, so the two summation orders agree to 1e-12. Under
    # logit-difference, b2 and the rows of features shared by all documents of
    # an example get an exactly zero gradient (RankNet is shift-invariant and
    # its score gradient sums to zero per example); both paths step them by
    # Adam-normalised rounding noise, at most lr * |noise| / eps per step.
    @pytest.mark.parametrize(
        "weight_decay, strategy, noise_atol",
        [
            (0.0, ScoreStrategy.SOFTMAX_TRUE_FALSE, 0.0),
            (0.3, ScoreStrategy.SOFTMAX_TRUE_FALSE, 0.0),
            (0.01, ScoreStrategy.LOGIT_DIFFERENCE, 9 * 0.01 * 1e-15 / 1e-8),
        ],
    )
    def test_matches_dense_reference(self, weight_decay, strategy, noise_atol):
        corpus, examples = tiny_corpus_and_examples()
        train, val = examples[:9], examples[9:]
        config = TrainConfig(epochs=3, batch_queries=4, docs_per_query=4, seed=9,
                             learning_rate=0.01, weight_decay=weight_decay, strategy=strategy)
        theta0 = init_params(tiny_feature(), hidden=8, seed=0).w1.copy()

        ref, ref_history, steps = dense_reference_fit(
            config, train, val, corpus, init_params(tiny_feature(), hidden=8, seed=0))
        got, history = prepare_and_fit(config, train, val, corpus,
                                       init_params(tiny_feature(), hidden=8, seed=0))

        assert steps == 9
        for a, b in zip(got.arrays(), ref.arrays()):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=noise_atol)
        for row, ref_row in zip(history, ref_history):
            assert row.train_loss == pytest.approx(ref_row.train_loss, rel=1e-12, abs=noise_atol)
            assert row.val_loss == pytest.approx(ref_row.val_loss, rel=1e-12, abs=noise_atol)

        touched = np.zeros(tiny_feature().hash_dim, dtype=bool)
        for ex in examples:
            for doc_id in ex.doc_ids:
                touched[featurize(ex.query_text, corpus[doc_id], tiny_feature()).indices] = True
        untouched = ~touched
        assert 0 < untouched.sum() < untouched.size
        decayed = theta0[untouched] * (1.0 - config.learning_rate * weight_decay) ** steps
        np.testing.assert_allclose(got.w1[untouched], decayed, rtol=1e-12, atol=0.0)
        if weight_decay == 0.0:
            np.testing.assert_array_equal(got.w1[untouched], theta0[untouched])
        else:
            assert not np.array_equal(got.w1[untouched], theta0[untouched])


def test_history_tsv_format():
    rows = [HistoryRow(0, 1.5, 2.0), HistoryRow(1, 1.0, float("nan"))]
    text = write_history(rows)
    lines = text.splitlines()
    assert lines[0] == "epoch\ttrain_loss\tval_loss"
    assert lines[1] == "0\t1.500000\t2.000000"

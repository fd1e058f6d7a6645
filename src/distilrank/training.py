"""RankNet loss with analytic gradients, a from-scratch AdamW optimizer, and
the training loop over distilled examples, including the ablation knobs
(documents per sample, query-kind filter, leave-one-source-out).

Sign convention: for a pair where document i is ranked better than j
(r_i < r_j), the implemented objective is softplus(s_j - s_i), so minimizing
it pushes s_i above s_j.

Per example the loss is summed over pairs; per batch it is averaged over
queries, so histories are comparable only within one docs-per-query setting.

Prepare, then train: `prepare_fit` does everything before the first epoch,
and `fit` trains on its result alone, which it only reads. That result
depends on no config field but the seed, documents per query, kind filter and
excluded source, so the ablation grid's two strategies share one. It holds no
reference to the `FeatureStore` it was gathered from.

Active rows: `fit` trains only the rows of w1 that some prepared train or
validation document touches, as one compacted block with its own AdamW state,
and writes the block back at the end. This is exact because AdamW decouples
weight decay: a row no example touches gets a zero gradient at every step, so
its moments stay zero and each step only scales it by (1 - lr * weight_decay).
`fit` applies those steps once, as (1 - lr * weight_decay) ** t after t steps,
and leaves the rows bit-identical when weight_decay is 0 or no step was taken.

Precision: training runs in the dtype of the parameters, float32 as
`init_params` makes them, over float32 feature rows. The forward, the
backward and the AdamW moments and scratch buffers are float32, the
precision the checkpoint stores, so the saved model is the trained one. The
scores of a batch, its RankNet pair matrices and its loss are float64: they
cost O(n) and O(n m) against the O(nnz * hidden) of the products, and
float32 ran no faster there. dL/dz is narrowed to the parameters' dtype once,
before the backward; its entries are at most m - 1 in magnitude, so the cast
cannot overflow. A learning rate beyond the largest float32 makes the
parameters non-finite instead, which the next forward rejects as divergence.

Resident stacks: `prepare_example` resolves an example to the row ids of its
documents in a `FeatureStore`, and a whole set (train, validation) is
gathered from the store as one `ExampleStack`: a CSR matrix of all its
documents' rows, each example's row bounds, and each row's teacher rank
within its example. `prepare_fit` fills the store with both sets and trims
it, gathers each set from the store straight into its stack with scipy's
row indexing (`FeatureStore.take`), and then renumbers the stack's columns
to the active block in place, a run at a time (`_compact`). The matrices hold
4-byte float32 values and 4-byte int32 columns, 8 bytes per feature (a
column must fit int32, so ``hash_dim`` is at most 2**31), and nothing
full-size but the two stacks is made beside the store: no second copy of a
set and no int64 column array. A batch is gathered from the train stack by
the same row indexing, rows and ranks by the same row ids, and the history
losses run on the whole stacks: the forward is ``X @ w1`` and the w1
gradient ``X.T @ dH``. The RankNet pair
matrices are built once per batch for each distinct document count m, as
(examples, m, m) arrays, and give each example's loss and gradient bit for bit
as the per-list `ranknet_loss` and `ranknet_grad` do. `adamw_step` works in
two scratch buffers per array that its `AdamState` holds. Together these keep
a step from allocating block-sized temporaries: in a fresh process glibc
returned such blocks to the OS between steps, and every step page-faulted
them back in.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain
from typing import Iterator, Mapping, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .errors import DataError, NonFiniteError
from .scorer import (
    FeatureConfig,
    FeatureStore,
    ScorerParams,
    ScoreStrategy,
    _offsets,
    forward,
    score_batch,
    score_batch_grad,
)
from .types import DistilledExample, QueryKind, Source


class KindFilter(Enum):
    MIXED = "mixed"
    CROPPED_ONLY = "cropped-only"
    GENERATED_ONLY = "generated-only"


@dataclass(frozen=True)
class TrainConfig:
    batch_queries: int = 32
    docs_per_query: int = 30
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    epochs: int = 10
    seed: int = 0
    strategy: ScoreStrategy = ScoreStrategy.LOGIT_DIFFERENCE
    kind_filter: KindFilter = KindFilter.MIXED
    excluded_source: Source | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning rate must be finite and positive, got {self.learning_rate}")
        if not 0 < self.docs_per_query <= 30:
            raise ValueError(f"docs_per_query must be in 1..30, got {self.docs_per_query}")
        if self.batch_queries < 1:
            raise ValueError("batch size must be >= 1")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(
                f"weight decay must be finite and non-negative, got {self.weight_decay}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be finite and positive, got {self.eps}")
        for name, beta in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0 <= beta < 1:
                raise ValueError(f"{name} must be in [0, 1), got {beta}")


def _check_permutation(ranking: np.ndarray, m: int) -> None:
    if ranking.shape != (m,) or sorted(ranking.tolist()) != list(range(1, m + 1)):
        raise ValueError(f"ranking is not a permutation of 1..{m}")


def _finite(values, message: str = "scores contain non-finite values"):
    if not np.all(np.isfinite(values)):
        raise NonFiniteError(message)
    return values


def _checked(scores: Sequence[float], ranking: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64)
    r = np.asarray(ranking, dtype=np.int64)
    _check_permutation(r, s.shape[0])
    return _finite(s), r


def _pair_diffs(scores: np.ndarray, ranking: np.ndarray):
    """The pair matrices of one list (shape (m,)) or of equal-length lists
    (shape (B, m)): each is (..., m, m)."""
    # mask[..., i, j] is True where document i is ranked strictly better than j
    mask = ranking[..., :, None] < ranking[..., None, :]
    with np.errstate(over="ignore"):  # an infinite difference makes an infinite loss
        diff = scores[..., None, :] - scores[..., :, None]  # diff[..., i, j] = s_j - s_i
    return mask, diff


def _pair_losses(mask: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """The pair-summed loss of each list. Every list holds m(m-1)/2 ordered
    pairs, so ``diff[mask]`` splits into equal rows, and each row is summed
    in the same order as a list on its own."""
    m = mask.shape[-1]
    pairs = np.logaddexp(0.0, diff[mask])
    return pairs.reshape(mask.shape[:-2] + (m * (m - 1) // 2,)).sum(axis=-1)


def _pair_grads(mask: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """dL/ds of each list."""
    g = expit(diff) * mask
    return g.sum(axis=-2) - g.sum(axis=-1)


def ranknet_loss(scores: Sequence[float], ranking: Sequence[int]) -> float:
    """Sum of softplus pair penalties over all ordered pairs of the ranking."""
    return float(_pair_losses(*_pair_diffs(*_checked(scores, ranking))))


def ranknet_grad(scores: Sequence[float], ranking: Sequence[int]) -> np.ndarray:
    """Analytic dL/ds_k; the entries sum to zero since each pair contributes +g and -g."""
    return _pair_grads(*_pair_diffs(*_checked(scores, ranking)))


@dataclass
class AdamState:
    """The moments and step count, plus two scratch buffers per array that
    `adamw_step` computes in, so that a step allocates no float temporaries."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    update: list[np.ndarray]
    denom: list[np.ndarray]
    t: int = 0


def init_adam_state(arrays: Sequence[np.ndarray]) -> AdamState:
    return AdamState(
        m=[np.zeros_like(a) for a in arrays],
        v=[np.zeros_like(a) for a in arrays],
        update=[np.empty_like(a) for a in arrays],
        denom=[np.empty_like(a) for a in arrays],
    )


def adamw_step(
    arrays: Sequence[np.ndarray],
    grads: Sequence[np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> tuple[Sequence[np.ndarray], AdamState]:
    """One decoupled-weight-decay Adam update, in place on ``arrays``.

    Decay scales parameters by (1 - lr * weight_decay) before the
    bias-corrected moment update. The update is
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g**2`` and
    ``theta -= lr*(m/bc1) / (sqrt(v/bc2) + eps)``, each operation done in
    place or into the state's scratch buffers, in that order.
    """
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise NonFiniteError("non-finite gradient passed to adamw_step")
    state.t += 1
    lr, beta1, beta2 = config.learning_rate, config.beta1, config.beta2
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    # a learning rate past the largest value of the arrays' dtype overflows to
    # inf; the parameters then go non-finite and the next forward rejects them
    with np.errstate(over="ignore", invalid="ignore"):
        for theta, g, m, v, update, denom in zip(
            arrays, grads, state.m, state.v, state.update, state.denom
        ):
            if config.weight_decay != 0.0:
                theta *= 1.0 - lr * config.weight_decay
            m *= beta1
            np.multiply(g, 1.0 - beta1, out=update)
            m += update
            v *= beta2
            np.square(g, out=update)
            update *= 1.0 - beta2
            v += update
            np.divide(m, bc1, out=update)
            update *= lr
            np.divide(v, bc2, out=denom)
            np.sqrt(denom, out=denom)
            denom += config.eps
            update /= denom
            theta -= update
    return arrays, state


def subsample_docs(example: DistilledExample, m_prime: int, seed: int) -> DistilledExample:
    """Keep m_prime uniformly sampled documents, re-ranking survivors 1..m_prime
    while preserving their relative order."""
    m = example.m
    if m_prime > m:
        raise ValueError(f"cannot keep {m_prime} documents, example has {m}")
    if m_prime == m:
        return example
    keep = sorted(random.Random(seed).sample(range(m), m_prime))
    surviving = [example.llm_ranking[i] for i in keep]
    order = sorted(range(m_prime), key=lambda j: surviving[j])
    new_ranks = [0] * m_prime
    for rank, j in enumerate(order, 1):
        new_ranks[j] = rank
    return replace(
        example,
        doc_ids=tuple(example.doc_ids[i] for i in keep),
        llm_ranking=tuple(new_ranks),
    )


@dataclass(frozen=True)
class HistoryRow:
    epoch: int
    train_loss: float
    val_loss: float


def write_history(history: Sequence[HistoryRow]) -> str:
    lines = ["epoch\ttrain_loss\tval_loss\n"]
    lines += [f"{h.epoch}\t{h.train_loss:.6f}\t{h.val_loss:.6f}\n" for h in history]
    return "".join(lines)


def prepare_example(
    example: DistilledExample,
    corpus: Mapping[str, str],
    store: FeatureStore,
) -> np.ndarray:
    """The `FeatureStore` row id of each document of ``example``."""
    return store.ids(example.query_text, example.doc_ids, corpus)


@dataclass(frozen=True)
class ExampleStack:
    """Examples as the rows of one CSR matrix: example i owns rows
    ``bounds[i]:bounds[i + 1]``, and ``ranks`` holds each row's teacher rank
    within its example."""

    rows: sp.csr_array
    bounds: np.ndarray
    ranks: np.ndarray

    def __len__(self) -> int:
        return self.bounds.size - 1


def _stack(examples: Sequence[DistilledExample], ids: list[np.ndarray],
           store: FeatureStore) -> ExampleStack:
    """The examples as one stack of their `FeatureStore` rows ``ids``."""
    ranks = np.array([r for ex in examples for r in ex.llm_ranking], dtype=np.int64)
    rows = store.take(np.concatenate([np.empty(0, dtype=np.int64)] + ids))
    return ExampleStack(rows, _offsets([ex.m for ex in examples]), ranks)


def stack_examples(
    examples: Sequence[DistilledExample], corpus: Mapping[str, str], store: FeatureStore
) -> ExampleStack:
    """The examples' rows, in order, gathered from ``store`` as one stack."""
    return _stack(examples, [prepare_example(ex, corpus, store) for ex in examples], store)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The concatenated ranges ``starts[i] + arange(lengths[i])``, and the
    offset of each range in the result."""
    offsets = _offsets(lengths)
    return np.repeat(starts - offsets[:-1], lengths) + np.arange(offsets[-1]), offsets


def take_examples(stack: ExampleStack, picks: Sequence[int]) -> ExampleStack:
    """The picked examples of ``stack``, in pick order, gathered as one stack."""
    picks = np.asarray(picks, dtype=np.int64)
    lo = stack.bounds[picks]
    row_ids, bounds = _ranges(lo, stack.bounds[picks + 1] - lo)
    return ExampleStack(stack.rows[row_ids], bounds, stack.ranks[row_ids])


# column indices `_compact` renumbers, and `prepare_fit` marks, at a time: in one
# call over a whole stack, numpy makes an 8-byte intp copy of every column index
COLUMN_RUN = 1 << 13


def _runs_of(array: np.ndarray) -> Iterator[np.ndarray]:
    """``array`` as consecutive views of `COLUMN_RUN` entries, so that an
    operation over it makes no full-size temporary."""
    return (array[lo: lo + COLUMN_RUN] for lo in range(0, array.size, COLUMN_RUN))


def _compact(stack: ExampleStack, position: np.ndarray, n_active: int) -> ExampleStack:
    """``stack`` with its feature columns renumbered to rows of the active
    block: column c becomes ``position[c]``. The renumbering is done in place,
    a run at a time, so use only the stack returned."""
    rows = stack.rows
    for part in _runs_of(rows.indices):
        part[...] = position.take(part)  # faster than position[part] for int32 parts
    compacted = sp.csr_array((rows.data, rows.indices, rows.indptr),
                             shape=(rows.shape[0], n_active))
    return replace(stack, rows=compacted)


def _ranknet(
    scores: np.ndarray, stack: ExampleStack, with_grads: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """The RankNet loss of each example, in example order, and with
    ``with_grads`` dL/ds for every row of the stack.

    The pair matrices are built once for each distinct document count m, as
    (examples with m documents, m, m) arrays; each example's loss and
    gradient come out bit for bit as `ranknet_loss` and `ranknet_grad` give
    them for that example alone.
    """
    lengths = np.diff(stack.bounds)
    losses = np.empty(len(stack))
    ds = np.empty_like(scores) if with_grads else None
    for m in np.unique(lengths):
        members = np.flatnonzero(lengths == m)
        rows = stack.bounds[members, None] + np.arange(m)  # (examples, m)
        mask, diff = _pair_diffs(scores[rows], stack.ranks[rows])
        losses[members] = _pair_losses(mask, diff)
        if with_grads:
            ds[rows] = _pair_grads(mask, diff)
    return losses, ds


def _ranknet_sum(z: np.ndarray, batch: ExampleStack, strategy: ScoreStrategy,
                 with_grads: bool) -> tuple[float, np.ndarray | None]:
    """The RankNet losses of ``batch`` under its logits ``z``, summed in example
    order, and with ``with_grads`` dL/ds for every row."""
    losses, ds = _ranknet(_finite(score_batch(z, strategy)), batch, with_grads)
    total = 0.0
    for loss in losses.tolist():  # uncompensated, left to right (unlike sum on 3.12+)
        total += loss
    return total, ds


def batch_loss(params: ScorerParams, batch: ExampleStack, strategy: ScoreStrategy) -> float:
    """Mean over queries of the per-example pair-summed RankNet loss."""
    # only z is kept: the hidden activations are freed before the pair math
    total, _ = _ranknet_sum(forward(params, batch.rows)[2], batch, strategy, with_grads=False)
    return _finite(total / len(batch), "non-finite loss")


def batch_loss_and_grads(
    params: ScorerParams, batch: ExampleStack, strategy: ScoreStrategy
) -> tuple[float, list[np.ndarray]]:
    """Loss plus analytic parameter gradients [gw1, gb1, gw2, gb2],
    backpropagated through the scorer in one batched sparse forward and backward."""
    h_pre, h, z = forward(params, batch.rows)
    total, ds = _ranknet_sum(z, batch, strategy, with_grads=True)
    scale = 1.0 / len(batch)
    ds *= scale
    with np.errstate(over="ignore", invalid="ignore"):  # adamw_step rejects non-finite grads
        # float64 like the scores, narrowed to the forward's dtype for the backward
        dz = (ds[:, None] * score_batch_grad(z, strategy)).astype(z.dtype, copy=False)  # (n, 2)
        dh_pre = (dz @ params.w2.T) * (h_pre > 0.0)
        grads = [batch.rows.T @ dh_pre, dh_pre.sum(axis=0), h.T @ dz, dz.sum(axis=0)]
    return _finite(total * scale, "non-finite loss"), grads


def filter_examples(
    examples: Sequence[DistilledExample],
    kind_filter: KindFilter,
    excluded_source: Source | None,
) -> list[DistilledExample]:
    kept = list(examples)
    if kind_filter is KindFilter.CROPPED_ONLY:
        kept = [ex for ex in kept if ex.kind is QueryKind.CROPPED]
    elif kind_filter is KindFilter.GENERATED_ONLY:
        kept = [ex for ex in kept if ex.kind is QueryKind.GENERATED]
    if excluded_source is not None:
        kept = [ex for ex in kept if ex.source_retriever is not excluded_source]
    return kept


def prepare_fit(
    config: TrainConfig,
    train_examples: Sequence[DistilledExample],
    val_examples: Sequence[DistilledExample],
    corpus: Mapping[str, str],
    store: FeatureStore,
) -> tuple[ExampleStack, ExampleStack, np.ndarray, FeatureConfig]:
    """What `fit` trains on: the train and validation stacks, compacted to the
    active block, the w1 row of each block row, and the store's feature config.

    The kind filter and source exclusion apply to the training set only. Each
    example is reduced to ``docs_per_query`` documents with a seed derived
    from the config seed."""
    train_filtered = filter_examples(train_examples, config.kind_filter, config.excluded_source)
    if not train_filtered:
        raise DataError("no training examples left after kind/source filtering")

    # independent streams so the validation set cannot perturb training
    rng_train = np.random.default_rng([config.seed, 0])
    rng_val = np.random.default_rng([config.seed, 1])

    def reduce_all(examples, stream) -> list[DistilledExample]:
        return [
            subsample_docs(ex, min(config.docs_per_query, ex.m), int(stream.integers(2**63)))
            for ex in examples
        ]

    train = reduce_all(train_filtered, rng_train)
    val = reduce_all(val_examples, rng_val)
    # fill the store with both sets and trim it before either is gathered
    train_ids = [prepare_example(ex, corpus, store) for ex in train]
    val_ids = [prepare_example(ex, corpus, store) for ex in val]
    store.trim()
    train, val = _stack(train, train_ids, store), _stack(val, val_ids, store)

    # the loop runs on the active rows of w1 only; see the module docstring
    touched = np.zeros(store.config.hash_dim, dtype=bool)
    for part in chain(_runs_of(train.rows.indices), _runs_of(val.rows.indices)):
        touched[part.astype(np.intp)] = True  # numpy indexes faster with intp
    active = np.flatnonzero(touched)
    position = np.cumsum(touched) - 1  # row of w1 -> its row in the active block
    return (_compact(train, position, active.size), _compact(val, position, active.size),
            active, store.config)


def fit(
    config: TrainConfig,
    prepared: tuple[ExampleStack, ExampleStack, np.ndarray, FeatureConfig],
    params: ScorerParams,
    every_epoch: bool = True,
) -> tuple[ScorerParams, list[HistoryRow]]:
    """Train the scorer with RankNet + AdamW on what `prepare_fit` returned;
    deterministic given the seed.

    ``prepared`` may come from a config that differs from ``config`` in its
    strategy alone, and its feature config must be ``params.feature``; fit
    only reads it. History row 0 holds the pre-training losses; row e holds
    the losses after epoch e, all evaluated on the prepared examples. With
    ``every_epoch`` False the history is the final row alone, for a caller
    that reads no other: the losses are evaluated only there, and training is
    unchanged, because evaluating them changes no state. A non-finite loss,
    score or gradient in an epoch's batches or in its history evaluation
    raises `NonFiniteError` naming the epoch and where in it.
    """
    train, val, active, feature = prepared
    if feature != params.feature:
        raise ValueError("the feature store and the scorer use different feature configs")
    rng = np.random.default_rng([config.seed, 2])
    full_w1 = params.w1
    params.w1 = full_w1[active]

    def history_row(epoch: int) -> HistoryRow:
        train_loss = batch_loss(params, train, config.strategy)
        val_loss = batch_loss(params, val, config.strategy) if len(val) else float("nan")
        return HistoryRow(epoch, train_loss, val_loss)

    state = init_adam_state(params.arrays())
    try:
        history = [history_row(0)] if every_epoch or not config.epochs else []
        for epoch in range(1, config.epochs + 1):
            order = rng.permutation(len(train))
            try:
                for batch_no, start in enumerate(range(0, len(order), config.batch_queries)):
                    where = f"batch {batch_no}"
                    batch = take_examples(train, order[start: start + config.batch_queries])
                    _, grads = batch_loss_and_grads(params, batch, config.strategy)
                    adamw_step(params.arrays(), grads, state, config)
                if every_epoch or epoch == config.epochs:
                    where = "in the history evaluation"
                    history.append(history_row(epoch))
            except NonFiniteError as exc:
                raise NonFiniteError(f"training diverged at epoch {epoch}, {where}: {exc}") from exc
    finally:
        block, params.w1 = params.w1, full_w1
        if config.weight_decay != 0.0 and state.t:
            with np.errstate(over="ignore", invalid="ignore"):  # as in adamw_step
                full_w1 *= (1.0 - config.learning_rate * config.weight_decay) ** state.t
        full_w1[active] = block
    return params, history

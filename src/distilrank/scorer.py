"""The student scorer: hashed sparse features feeding one hidden layer with a
two-logit head, plus the three scoring strategies that map the (z_true,
z_false) pair to a relevance score, and an adapter for externally computed
logits.

There is one forward path, `forward_rows`: a stack of feature vectors as the
rows of a CSR matrix X, then ``relu(X @ w1 + b1) @ w2 + b2``. `forward` is its
one-row case. A `FeatureStore` featurizes each (query, document) pair once and
hands a query's documents to it as those rows.

Checkpoint file layout: one JSON header line (shapes, feature config, version,
strategy) followed by raw little-endian float32 arrays for w1, b1, w2, b2 in
that order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Mapping, Sequence
from zlib import crc32

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .errors import DataError
from .io import number, records, require_new
from .tokenization import TokenizerConfig, tokenize


class ScoreStrategy(Enum):
    SOFTMAX_TRUE_FALSE = "softmax-true-false"
    SINGLE_LOGIT = "single-logit"
    LOGIT_DIFFERENCE = "logit-difference"


@dataclass(frozen=True)
class LogitPair:
    z_true: float
    z_false: float


@dataclass(frozen=True)
class FeatureConfig:
    hash_dim: int = 1 << 18
    interaction_cap: int = 16  # query tokens crossed with document tokens
    tokenizer: TokenizerConfig = field(default_factory=TokenizerConfig)

    def __post_init__(self) -> None:
        if self.hash_dim <= 0 or self.hash_dim & (self.hash_dim - 1):
            raise ValueError(f"hash_dim must be a power of two, got {self.hash_dim}")
        if self.interaction_cap < 0:
            raise ValueError("interaction_cap must be >= 0")


@dataclass(frozen=True)
class SparseVector:
    indices: np.ndarray  # int64, strictly increasing
    values: np.ndarray  # float64

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])


@lru_cache(maxsize=1 << 20)
def _hash32(key: str) -> int:
    return crc32(key.encode("utf-8"))


def _accumulate(acc: dict[int, float], key: str, value: float, mask: int) -> None:
    h = _hash32(key)
    sign = 1.0 if h & 0x80000000 == 0 else -1.0
    bucket = h & mask
    acc[bucket] = acc.get(bucket, 0.0) + sign * value


def featurize(query: str, document: str, config: FeatureConfig = FeatureConfig()) -> SparseVector:
    """Hash term-frequency features for a query-document pair.

    Four namespaces: q: (query tf), d: (document tf), x: (shared terms,
    min tf), qxd: (each of the first ``interaction_cap`` query tokens crossed
    with every document term, weighted by document tf). A sign hash reduces
    collision bias.
    """
    q_tokens = tokenize(query, config.tokenizer)
    d_tokens = tokenize(document, config.tokenizer)
    q_tf: dict[str, int] = {}
    for t in q_tokens:
        q_tf[t] = q_tf.get(t, 0) + 1
    d_tf: dict[str, int] = {}
    for t in d_tokens:
        d_tf[t] = d_tf.get(t, 0) + 1

    mask = config.hash_dim - 1
    acc: dict[int, float] = {}
    for t, tf in q_tf.items():
        _accumulate(acc, "q:" + t, float(tf), mask)
    for t, tf in d_tf.items():
        _accumulate(acc, "d:" + t, float(tf), mask)
    for t in q_tf.keys() & d_tf.keys():
        _accumulate(acc, "x:" + t, float(min(q_tf[t], d_tf[t])), mask)
    for q_tok in q_tokens[: config.interaction_cap]:
        prefix = "qxd:" + q_tok + "|"
        for d_tok, tf in d_tf.items():
            _accumulate(acc, prefix + d_tok, float(tf), mask)

    if not acc:
        return SparseVector(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
    indices = np.fromiter(sorted(acc), dtype=np.int64, count=len(acc))
    values = np.array([acc[i] for i in indices], dtype=np.float64)
    return SparseVector(indices, values)


@dataclass
class ScorerParams:
    w1: np.ndarray  # (hash_dim, hidden)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, 2)
    b2: np.ndarray  # (2,)
    feature: FeatureConfig = field(default_factory=FeatureConfig)
    version: str = "1"

    @property
    def hidden(self) -> int:
        return int(self.b1.shape[0])

    def arrays(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2]

    def validate(self) -> None:
        f, h = self.w1.shape
        if f != self.feature.hash_dim or self.b1.shape != (h,) or self.w2.shape != (h, 2) \
                or self.b2.shape != (2,):
            raise DataError("scorer parameter shapes are inconsistent")
        if not all(np.all(np.isfinite(a)) for a in self.arrays()):
            raise DataError("scorer parameters contain non-finite entries")


def init_params(
    feature: FeatureConfig = FeatureConfig(),
    hidden: int = 64,
    seed: int = 0,
) -> ScorerParams:
    """Random small-weight initialization; biases start at zero."""
    rng = np.random.default_rng(seed)
    w1 = rng.normal(0.0, 0.05, size=(feature.hash_dim, hidden))
    w2 = rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(hidden, 2))
    return ScorerParams(
        w1=w1,
        b1=np.zeros(hidden),
        w2=w2,
        b2=np.zeros(2),
        feature=feature,
    )


def stack_rows(vectors: Sequence[SparseVector], n_cols: int) -> sp.csr_array:
    """The vectors as the rows of one (len(vectors), n_cols) CSR matrix."""
    indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
    np.cumsum([v.nnz for v in vectors], out=indptr[1:])
    indices = np.concatenate([np.empty(0, dtype=np.int64)] + [v.indices for v in vectors])
    values = np.concatenate([np.empty(0)] + [v.values for v in vectors])
    # scipy trusts the column indices; its products read out of bounds on a bad one
    if indices.size and (indices.min() < 0 or indices.max() >= n_cols):
        raise ValueError(f"feature index outside 0..{n_cols - 1}")
    return sp.csr_array((values, indices, indptr), shape=(len(vectors), n_cols))


def forward_rows(
    params: ScorerParams, rows: sp.csr_array
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched forward over the rows of a sparse feature matrix whose columns
    index the rows of ``params.w1``.

    Returns the hidden pre-activations (n, hidden), the relu activations
    (n, hidden) and the logits (n, 2); rejects non-finite logits.
    """
    h_pre = rows @ params.w1 + params.b1
    h = np.maximum(h_pre, 0.0)
    z = h @ params.w2 + params.b2
    if not np.all(np.isfinite(z)):
        raise DataError("forward pass produced non-finite logits")
    return h_pre, h, z


def forward(params: ScorerParams, features: SparseVector) -> LogitPair:
    """relu hidden layer then affine two-logit head; rejects non-finite output."""
    _, _, z = forward_rows(params, stack_rows([features], params.w1.shape[0]))
    return LogitPair(float(z[0, 0]), float(z[0, 1]))


class FeatureStore:
    """The features of (query text, doc_id) pairs under one `FeatureConfig`,
    each pair featurized once, on its first request.

    One store serves one corpus: a doc_id stands for its text there. It keeps
    every vector it has made for as long as it lives, so share one only
    between callers that request the same pairs again.
    """

    def __init__(self, config: FeatureConfig) -> None:
        self.config = config
        self._vectors: dict[tuple[str, str], SparseVector] = {}

    def rows(self, query: str, doc_ids: Sequence[str], corpus: Mapping[str, str]) -> sp.csr_array:
        """The features of ``query`` with each document, as the rows of one CSR matrix."""
        vectors = []
        for doc_id in doc_ids:
            vec = self._vectors.get((query, doc_id))
            if vec is None:
                if doc_id not in corpus:
                    raise DataError(f"document {doc_id!r} missing from corpus")
                vec = featurize(query, corpus[doc_id], self.config)
                self._vectors[query, doc_id] = vec
            vectors.append(vec)
        return stack_rows(vectors, self.config.hash_dim)


def score(logits: LogitPair, strategy: ScoreStrategy) -> float:
    """Map a logit pair to a relevance score under the chosen strategy."""
    if strategy is ScoreStrategy.SOFTMAX_TRUE_FALSE:
        # e^t / (e^t + e^f), computed stably as sigmoid(t - f)
        return float(expit(logits.z_true - logits.z_false))
    if strategy is ScoreStrategy.SINGLE_LOGIT:
        return logits.z_true
    return logits.z_true - logits.z_false


def score_batch(z: np.ndarray, strategy: ScoreStrategy) -> np.ndarray:
    """Vectorized score over an (n, 2) logit array."""
    if strategy is ScoreStrategy.SOFTMAX_TRUE_FALSE:
        return expit(z[:, 0] - z[:, 1])
    if strategy is ScoreStrategy.SINGLE_LOGIT:
        return z[:, 0].copy()
    return z[:, 0] - z[:, 1]


def score_batch_grad(z: np.ndarray, strategy: ScoreStrategy) -> np.ndarray:
    """d(score)/d(z_true, z_false) for each row of an (n, 2) logit array."""
    n = z.shape[0]
    grad = np.empty((n, 2))
    if strategy is ScoreStrategy.SOFTMAX_TRUE_FALSE:
        s = expit(z[:, 0] - z[:, 1])
        grad[:, 0] = s * (1.0 - s)
        grad[:, 1] = -grad[:, 0]
    elif strategy is ScoreStrategy.SINGLE_LOGIT:
        grad[:, 0] = 1.0
        grad[:, 1] = 0.0
    else:
        grad[:, 0] = 1.0
        grad[:, 1] = -1.0
    return grad


def save_checkpoint(params: ScorerParams, strategy: ScoreStrategy, path: str | Path) -> None:
    params.validate()
    header = {
        "version": params.version,
        "strategy": strategy.value,
        "hash_dim": params.feature.hash_dim,
        "hidden": params.hidden,
        "interaction_cap": params.feature.interaction_cap,
        "lowercase": params.feature.tokenizer.lowercase,
        "min_token_len": params.feature.tokenizer.min_token_len,
        "arrays": ["w1", "b1", "w2", "b2"],
        "dtype": "<f4",
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header).encode("utf-8") + b"\n")
        for arr in params.arrays():
            f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_checkpoint(path: str | Path) -> tuple[ScorerParams, ScoreStrategy]:
    with open(path, "rb") as f:
        try:
            header = json.loads(f.readline().decode("utf-8"))
            strategy = ScoreStrategy(header["strategy"])
            hash_dim = int(header["hash_dim"])
            hidden = int(header["hidden"])
            feature = FeatureConfig(
                hash_dim=hash_dim,
                interaction_cap=int(header["interaction_cap"]),
                tokenizer=TokenizerConfig(header["lowercase"], header["min_token_len"]),
            )
            blob = f.read()
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    sizes = [hash_dim * hidden, hidden, hidden * 2, 2]
    if len(blob) != 4 * sum(sizes):
        raise DataError(f"checkpoint {path}: payload size does not match header shapes")
    flat = np.frombuffer(blob, dtype="<f4").astype(np.float64)
    offsets = np.cumsum([0] + sizes)
    w1, b1, w2, b2 = (
        flat[offsets[i]: offsets[i + 1]] for i in range(4)
    )
    params = ScorerParams(
        w1=w1.reshape(hash_dim, hidden),
        b1=b1,
        w2=w2.reshape(hidden, 2),
        b2=b2,
        feature=feature,
        version=str(header.get("version", "1")),
    )
    params.validate()
    return params, strategy


def load_external_logits(lines: Iterable[str]) -> dict[tuple[str, str], LogitPair]:
    """Parse TSV qid<TAB>docid<TAB>z_true<TAB>z_false produced by an external model."""
    logits: dict[tuple[str, str], LogitPair] = {}
    line_of: dict[tuple[str, str], int] = {}
    for lineno, (qid, docid, z_true, z_false) in records(lines, "logits", 4):
        key = (qid, docid)
        require_new(line_of, key, lineno, "logits", "pair")
        logits[key] = LogitPair(number(z_true, "logits", lineno, "z_true"),
                                number(z_false, "logits", lineno, "z_false"))
    return logits

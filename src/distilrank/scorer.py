"""The student scorer: hashed sparse features feeding one hidden layer with a
two-logit head, plus the three scoring strategies that map the (z_true,
z_false) pair to a relevance score, and a loader for externally computed
logits.

There is one forward path, `forward`: a stack of feature vectors as the rows
of a CSR matrix X, then ``relu(X @ w1 + b1) @ w2 + b2``. There is one scoring
path, `score_batch`, over an (n, 2) array of logits, whether the student or an
external model produced them.

There is one featurizing path in the pipeline, `featurize_batch`: it builds a
query's rows for many documents in one numpy pass over a `TermTable`, which
resolves every term and document once. `featurize` is the per-pair reference
it must match bit for bit. A `FeatureStore` holds the rows it has made as one
resident CSR (column indices and values in two growing arrays, indexed by one
growing indptr), so each (query, document) pair is featurized once, and any
set of pairs comes back as one CSR matrix in a single numpy gather.

The batched pass needs no per-key hashing because crc32 is affine over GF(2):
``crc32(P + T) == op_n(crc32(P)) ^ crc32(T)`` for any n-byte T, where op_n
appends n zero bytes to the crc register (zlib's ``crc32_combine``). op_n is
linear, so it is four lookups in 256-entry tables built once per byte length,
and every ``qxd:`` key's hash comes from the crc of its query-token prefix and
the crc of its document term.

Checkpoint file layout: an uncompressed ``.npz`` archive, like the BM25
index, holding ``w1, b1, w2, b2`` as little-endian float32 and two 0-d
members: ``strategy`` (str) and ``interaction_cap`` (int). ``hash_dim`` and
``hidden`` are the shape of ``w1``. There is no tokenizer member, because
the pipeline has one tokenizer; a checkpoint of older versions also holds
``lowercase`` and ``min_token_len``, which are left unread. The loader
converts nothing: a member of another dtype kind or shape is refused.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence
from zlib import crc32

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .errors import DataError, NonFiniteError
from .io import NPZ_MAGIC, npz_member, read_pair_numbers, replacing
from .tokenization import tokenize


class ScoreStrategy(Enum):
    SOFTMAX_TRUE_FALSE = "softmax-true-false"
    SINGLE_LOGIT = "single-logit"
    LOGIT_DIFFERENCE = "logit-difference"


@dataclass(frozen=True)
class FeatureConfig:
    hash_dim: int = 1 << 18
    interaction_cap: int = 16  # query tokens crossed with document tokens

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


def _hash32(key: str) -> int:
    return crc32(key.encode("utf-8"))


def _accumulate(acc: dict[int, float], key: str, value: float, mask: int) -> None:
    h = _hash32(key)
    sign = 1.0 if h & 0x80000000 == 0 else -1.0
    bucket = h & mask
    acc[bucket] = acc.get(bucket, 0.0) + sign * value


def _term_frequencies(tokens: Sequence[str]) -> dict[str, int]:
    tf: dict[str, int] = {}
    for t in tokens:
        tf[t] = tf.get(t, 0) + 1
    return tf


def featurize(query: str, document: str, config: FeatureConfig = FeatureConfig()) -> SparseVector:
    """Hash term-frequency features for a query-document pair; the per-pair
    reference that `featurize_batch` matches bit for bit.

    Four namespaces: q: (query tf), d: (document tf), x: (shared terms,
    min tf), qxd: (each of the first ``interaction_cap`` query tokens crossed
    with every document term, weighted by document tf). A sign hash reduces
    collision bias.
    """
    q_tokens = tokenize(query)
    d_tokens = tokenize(document)
    q_tf = _term_frequencies(q_tokens)
    d_tf = _term_frequencies(d_tokens)

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
    if hidden < 1:
        raise ValueError(f"hidden must be >= 1, got {hidden}")
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


def forward(
    params: ScorerParams, rows: sp.csr_array
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched forward over the rows of a sparse feature matrix whose columns
    index the rows of ``params.w1``.

    Returns the hidden pre-activations (n, hidden), the relu activations
    (n, hidden) and the logits (n, 2); rejects non-finite logits.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the check below rejects the logits
        h_pre = rows @ params.w1 + params.b1
        h = np.maximum(h_pre, 0.0)
        z = h @ params.w2 + params.b2
    if not np.all(np.isfinite(z)):
        raise NonFiniteError("forward pass produced non-finite logits")
    return h_pre, h, z


def _shift_tables(n_bytes: int) -> np.ndarray:
    """The (4, 256) uint32 tables of op_n for n = ``n_bytes``: op_n(c) is the
    xor of ``tables[j][byte j of c]`` over the four bytes of c."""
    zeros = b"\0" * n_bytes
    base = crc32(zeros)
    return np.array(
        [[crc32(zeros, v << (8 * j)) ^ base for v in range(256)] for j in range(4)],
        dtype=np.uint32,
    )


class TermTable:
    """Every term and document `featurize_batch` has seen under one
    `FeatureConfig`, each resolved once.

    Per term: the crc32 of ``"d:" + t``, of ``"x:" + t`` and of ``t``, and the
    slot of the op_n tables for its utf-8 length n. Per document, keyed by
    doc_id: its distinct term ids and their tf. One table serves one corpus,
    so it holds at most that corpus's terms and documents.
    """

    def __init__(self, config: FeatureConfig) -> None:
        self.config = config
        self._term_ids: dict[str, int] = {}
        # one row per term id: crc32 of "d:"+t, "x:"+t and t, then its ops slot
        self._columns = np.empty((64, 4), dtype=np.uint32)
        self._slots: dict[int, int] = {}  # utf-8 length -> row of self.ops
        # row s: the (4, 256) op_n tables of the s-th utf-8 length seen
        self.ops = np.empty((0, 4, 256), dtype=np.uint32)
        self._documents: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def columns(self, term_ids: np.ndarray) -> np.ndarray:
        """The (len(term_ids), 4) rows of those terms: d crc, x crc, crc, ops slot."""
        return self._columns[term_ids]

    def known_ids(self, terms: Iterable[str]) -> dict[str, int]:
        """The ids of those terms that some resolved document holds."""
        return {t: self._term_ids[t] for t in terms if t in self._term_ids}

    def document(self, doc_id: str, corpus: Mapping[str, str]) -> tuple[np.ndarray, np.ndarray]:
        """The distinct term ids of a document and their tf (float64)."""
        doc = self._documents.get(doc_id)
        if doc is None:
            if doc_id not in corpus:
                raise DataError(f"document {doc_id!r} missing from corpus")
            tf = _term_frequencies(tokenize(corpus[doc_id]))
            ids = np.fromiter((self._term_id(t) for t in tf), dtype=np.intp, count=len(tf))
            doc = (ids, np.fromiter(tf.values(), dtype=np.float64, count=len(tf)))
            self._documents[doc_id] = doc
        return doc

    def _term_id(self, term: str) -> int:
        term_id = self._term_ids.get(term)
        if term_id is None:
            term_id = self._term_ids[term] = len(self._term_ids)
            if term_id == len(self._columns):
                self._columns = np.concatenate([self._columns, np.empty_like(self._columns)])
            raw = term.encode("utf-8")
            slot = self._slots.get(len(raw))
            if slot is None:
                slot = self._slots[len(raw)] = len(self.ops)
                self.ops = np.concatenate([self.ops, _shift_tables(len(raw))[None]])
            self._columns[term_id] = (crc32(b"d:" + raw), crc32(b"x:" + raw), crc32(raw), slot)
        return term_id


def featurize_batch(
    query: str, doc_ids: Sequence[str], corpus: Mapping[str, str], table: TermTable
) -> sp.csr_array:
    """The features of ``query`` with each document as the rows of one CSR
    matrix, in one numpy pass: bit for bit
    ``stack_rows([featurize(query, corpus[d], table.config) for d in doc_ids])``.

    Every feature value is a signed sum of small integer tf's, which float64
    adds exactly in any order, and each bucket and sign comes from the same
    crc32 as in `featurize`.
    """
    config = table.config
    n = len(doc_ids)
    docs = [table.document(doc_id, corpus) for doc_id in doc_ids]
    ids = np.concatenate([np.empty(0, dtype=np.intp)] + [d[0] for d in docs])
    tf = np.concatenate([np.empty(0)] + [d[1] for d in docs])
    doc_row = np.repeat(np.arange(n), [d[0].size for d in docs])  # row of each term entry
    d_crc, x_crc, t_crc, slot = table.columns(ids).T

    q_tokens = tokenize(query)
    q_tf = _term_frequencies(q_tokens)
    q_crc = np.array([_hash32("q:" + t) for t in q_tf], dtype=np.uint32)
    # x: the document terms the query holds too, at the smaller of the two tf's
    shared = sorted((term_id, q_tf[t]) for t, term_id in table.known_ids(q_tf).items())
    # ascending ids closed by a sentinel above every id, so each lookup lands in range
    q_ids = np.array([i for i, _ in shared] + [np.iinfo(np.intp).max], dtype=np.intp)
    q_counts = np.array([count for _, count in shared] + [0], dtype=np.float64)
    at = np.searchsorted(q_ids, ids)
    hit = q_ids[at] == ids
    x_tf = np.minimum(tf[hit], q_counts[at[hit]])
    # qxd: crc32(prefix + term) == op_len(term)(crc32(prefix)) ^ crc32(term), for
    # every capped query token (repeats included) and every document term
    prefixes = np.array([_hash32("qxd:" + t + "|") for t in q_tokens[: config.interaction_cap]],
                        dtype=np.uint32)
    ops = table.ops
    shifted = (ops[:, 0, prefixes & 0xFF] ^ ops[:, 1, (prefixes >> 8) & 0xFF]
               ^ ops[:, 2, (prefixes >> 16) & 0xFF] ^ ops[:, 3, prefixes >> 24])
    qxd_crc = shifted[slot] ^ t_crc[:, None]  # (document terms, prefixes)

    hashes = np.concatenate([np.tile(q_crc, n), d_crc, x_crc[hit], qxd_crc.ravel()])
    values = np.concatenate([np.tile(np.fromiter(q_tf.values(), dtype=np.float64), n), tf,
                             x_tf, np.repeat(tf, prefixes.size)])
    rows = np.concatenate([np.repeat(np.arange(n), q_crc.size), doc_row, doc_row[hit],
                           np.repeat(doc_row, prefixes.size)])
    mask = config.hash_dim - 1
    keys = rows.astype(np.int64) * config.hash_dim + (hashes & mask)
    keys, group = np.unique(keys, return_inverse=True)
    data = np.bincount(group, weights=np.where(hashes & 0x80000000, -values, values),
                       minlength=keys.size)
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * config.hash_dim)
    return sp.csr_array((data, keys & mask, indptr), shape=(n, config.hash_dim))


def _offsets(lengths: np.ndarray) -> np.ndarray:
    """0 followed by the running sum of ``lengths``, as int64."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The concatenated ranges ``starts[i] + arange(lengths[i])``, and the
    offset of each range in the result."""
    offsets = _offsets(lengths)
    return np.repeat(starts - offsets[:-1], lengths) + np.arange(offsets[-1]), offsets


def _reserve(array: np.ndarray, size: int) -> np.ndarray:
    """``array``, or a copy at least twice as long when it holds fewer than ``size``."""
    if size <= array.size:
        return array
    grown = np.empty(max(size, 2 * array.size), dtype=array.dtype)
    grown[: array.size] = array
    return grown


class FeatureStore:
    """The features of (query text, doc_id) pairs under one `FeatureConfig`,
    each pair featurized once, on its first request, and held as a row of
    one resident CSR.

    The store appends each row's column indices and values to two arrays and
    keeps one indptr over them, all grown geometrically, plus a map from
    (query, doc_id) to row id. `ids` hands a request's pairs not yet held to
    one `featurize_batch` call, over a `TermTable` that resolves each term
    and document once, and returns the pairs' row ids; `take` gathers rows
    into one CSR matrix in one numpy pass. One store serves one corpus: a
    doc_id stands for its text there. It keeps every pair row it has made for
    as long as it lives, so share one only between callers that request the
    same pairs again.

    `rows` also keeps the matrix of each (query, doc_ids) request it has
    served and hands the same matrix back when that request comes again, in
    the same document order; callers must not modify it. `ablate` relies on
    this: every cell's `model_score_fn` asks for the same evaluation lists,
    which `ablate` gathers once, before its first cell. The memo holds a second copy of
    the requested rows, so it suits a caller that repeats few requests many
    times; training gathers through `ids` and `take` and adds nothing to it.
    """

    INITIAL_ROWS = 64
    INITIAL_NNZ = 1 << 12

    def __init__(self, config: FeatureConfig) -> None:
        self.config = config
        self._table = TermTable(config)
        self._row_of: dict[tuple[str, str], int] = {}
        self._indices = np.empty(self.INITIAL_NNZ, dtype=np.int64)
        self._data = np.empty(self.INITIAL_NNZ)
        self._indptr = np.zeros(self.INITIAL_ROWS + 1, dtype=np.int64)
        self._served: dict[tuple[str, tuple[str, ...]], sp.csr_array] = {}

    def __len__(self) -> int:
        """The number of pair rows held."""
        return len(self._row_of)

    def ids(self, query: str, doc_ids: Sequence[str], corpus: Mapping[str, str]) -> np.ndarray:
        """The row id of ``query`` with each document, featurizing the pairs not yet held."""
        row_of = self._row_of
        missing = [d for d in dict.fromkeys(doc_ids) if (query, d) not in row_of]
        if missing:
            self._append(query, missing, featurize_batch(query, missing, corpus, self._table))
        return np.fromiter((row_of[query, d] for d in doc_ids), dtype=np.int64,
                           count=len(doc_ids))

    def take(self, ids: np.ndarray) -> sp.csr_array:
        """The rows ``ids``, in order, as one (len(ids), hash_dim) CSR matrix."""
        ids = np.asarray(ids, dtype=np.int64)
        lo = self._indptr[ids]
        positions, indptr = _ranges(lo, self._indptr[ids + 1] - lo)
        return sp.csr_array((self._data[positions], self._indices[positions], indptr),
                            shape=(ids.size, self.config.hash_dim))

    def rows(self, query: str, doc_ids: Sequence[str], corpus: Mapping[str, str]) -> sp.csr_array:
        """The features of ``query`` with each document, as the rows of one
        CSR matrix; a repeated request gets the matrix it got before."""
        key = (query, tuple(doc_ids))
        rows = self._served.get(key)
        if rows is None:
            rows = self._served[key] = self.take(self.ids(query, doc_ids, corpus))
        return rows

    def _append(self, query: str, doc_ids: list[str], block: sp.csr_array) -> None:
        # scipy trusts the column indices; its products read out of bounds on a bad one
        if block.nnz and (block.indices.min() < 0 or block.indices.max() >= self.config.hash_dim):
            raise ValueError(f"feature index outside 0..{self.config.hash_dim - 1}")
        first = len(self._row_of)
        at = self._indptr[first]
        end_row, end = first + len(doc_ids), at + block.nnz
        self._indices = _reserve(self._indices, end)
        self._data = _reserve(self._data, end)
        self._indptr = _reserve(self._indptr, end_row + 1)
        self._indices[at:end] = block.indices
        self._data[at:end] = block.data
        self._indptr[first + 1:end_row + 1] = at + block.indptr[1:]
        self._row_of.update(zip([(query, d) for d in doc_ids], range(first, end_row)))


def score_batch(z: np.ndarray, strategy: ScoreStrategy) -> np.ndarray:
    """The relevance score of each row (z_true, z_false) of an (n, 2) logit array."""
    if strategy is ScoreStrategy.SOFTMAX_TRUE_FALSE:
        # e^t / (e^t + e^f), computed stably as sigmoid(t - f)
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


# a checkpoint's float32 members, in the order of ScorerParams.arrays()
_ARRAYS = ("w1", "b1", "w2", "b2")


def save_checkpoint(params: ScorerParams, strategy: ScoreStrategy, path: str | Path) -> None:
    """Write the scorer as an uncompressed ``.npz`` archive at exactly ``path``,
    whole or not at all (``io.replacing``)."""
    params.validate()
    with replacing(path, "wb") as f:  # a file handle, because np.savez(path) appends ".npz"
        np.savez(
            f,
            **{name: np.asarray(a, dtype="<f4") for name, a in zip(_ARRAYS, params.arrays())},
            strategy=np.str_(strategy.value),
            interaction_cap=np.int64(params.feature.interaction_cap),
        )


def load_checkpoint(path: str | Path) -> tuple[ScorerParams, ScoreStrategy]:
    """Read a checkpoint written by `save_checkpoint`; one in the JSON-header
    layout of older versions is refused."""
    try:
        with open(path, "rb") as f:
            if f.read(len(NPZ_MAGIC)) != NPZ_MAGIC:
                raise DataError("not an .npz archive (checkpoints of older versions are no "
                                "longer read; re-run `distilrank train` to write one)")
            f.seek(0)
            with np.load(f, allow_pickle=False) as z:
                w1, b1, w2, b2 = (npz_member(z, name, "f", ndim).astype(np.float64)
                                  for name, ndim in zip(_ARRAYS, (2, 1, 2, 1)))
                if w1.shape[1] < 1:
                    raise ValueError(f"hidden must be >= 1, got w1 of shape {w1.shape}")
                strategy = ScoreStrategy(npz_member(z, "strategy", "U", 0).item())
                feature = FeatureConfig(
                    hash_dim=w1.shape[0],
                    interaction_cap=npz_member(z, "interaction_cap", "i", 0).item(),
                )
        params = ScorerParams(w1=w1, b1=b1, w2=w2, b2=b2, feature=feature)
        params.validate()
    except (DataError, zipfile.BadZipFile, EOFError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    return params, strategy


def load_external_logits(lines: Iterable[str]) -> dict[str, dict[str, tuple[float, float]]]:
    """TSV qid<TAB>docid<TAB>z_true<TAB>z_false, as ``{qid: {docid: (z_true, z_false)}}``."""
    return read_pair_numbers(lines, "logits", ("z_true", "z_false"))

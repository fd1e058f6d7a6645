"""First-stage retrievers: native BM25, dense dot-product over precomputed
vectors, run-file adapter, and BM25 + external-scorer composition.

BM25 uses the Lucene idf variant with Anserini's MS MARCO defaults
(k1=0.9, b=0.4):

    score = sum over query token occurrences of
            ln(1 + (N - df + 0.5) / (df + 0.5))
            * tf * (k1 + 1) / (tf + k1 * (1 - b + b * |d| / avgdl))

The index keeps its postings as CSR arrays and precomputes each posting's
term (its impact) at build time, so a search is one scatter-add of the query
tokens' impacts (eager sparse scoring, as in BM25S, arXiv:2407.03618). The
build tokenizes each document once and counts all postings in one numpy
pass (``np.unique`` over ``term row * N + ordinal``). The
dense store is one (N, d) matrix, so a search is one matrix-vector product.

Ties are broken by ascending doc_id so all searches are reproducible.
"""

from __future__ import annotations

import json
import math
import threading
import zipfile
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from .errors import DataError
from .io import (NPZ_MAGIC, RECORD_ERRORS, malformed, npz_member, read_pair_numbers, repeated,
                 replacing)
from .tokenization import TokenizerConfig, tokenize
from .types import Document, Run, ScoredDoc, bad_id, is_id, not_a_string, validate_run


class Postings(Mapping):
    """Postings lists in CSR form.

    The documents containing the term of row ``r`` are
    ``ordinals[offsets[r]:offsets[r + 1]]`` in ascending order, with their
    term frequencies at the same positions of ``tfs``. As a mapping it gives
    each token its ordinals (a view), so ``len(postings[t])`` is t's
    document frequency.
    """

    def __init__(self, rows: dict[str, int], offsets: np.ndarray, ordinals: np.ndarray,
                 tfs: np.ndarray):
        offsets = np.asarray(offsets, dtype=np.int64)
        ordinals = np.asarray(ordinals, dtype=np.int32)
        tfs = np.asarray(tfs, dtype=np.int32)
        if (offsets.shape != (len(rows) + 1,) or offsets[0] != 0
                or np.any(np.diff(offsets) < 0) or ordinals.ndim != 1
                or tfs.shape != ordinals.shape or offsets[-1] != len(ordinals)):
            raise DataError("postings offsets, ordinals and tfs disagree in shape")
        if np.any(tfs < 1):
            raise DataError("postings hold a term frequency below 1")
        self.rows = rows
        self.offsets = offsets
        self.ordinals = ordinals
        self.tfs = tfs

    def span(self, token: str) -> tuple[int, int] | None:
        """The [start, end) positions of the token's postings, or None if absent."""
        row = self.rows.get(token)
        if row is None:
            return None
        return int(self.offsets[row]), int(self.offsets[row + 1])

    def __getitem__(self, token: str) -> np.ndarray:
        span = self.span(token)
        if span is None:
            raise KeyError(token)
        return self.ordinals[span[0]:span[1]]

    def __iter__(self) -> Iterator[str]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Postings):
            return NotImplemented
        return (self.rows == other.rows and np.array_equal(self.offsets, other.offsets)
                and np.array_equal(self.ordinals, other.ordinals)
                and np.array_equal(self.tfs, other.tfs))


def check_bm25_params(k1: float, b: float) -> None:
    """Raise a DataError unless 0 < k1 < inf and 0 <= b <= 1."""
    if not 0.0 < k1 < math.inf or not 0.0 <= b <= 1.0:
        raise DataError(f"BM25 parameters out of range: k1={k1}, b={b}")


@dataclass(eq=False)
class InvertedIndex:
    """BM25 index: CSR postings, document lengths and ids, and the BM25 parameters.

    ``avgdl``, the per-posting ``impacts`` and each document's rank in doc_id
    order are derived once on construction.
    """

    postings: Postings
    doc_lengths: np.ndarray
    doc_ids: list[str]
    k1: float = 0.9
    b: float = 0.4
    # the one tokenizer of the pipeline; perfbench reads it to count postings
    tokenizer: ClassVar[TokenizerConfig] = TokenizerConfig()
    avgdl: float = field(init=False)
    impacts: np.ndarray = field(init=False, repr=False)
    doc_rank: np.ndarray = field(init=False, repr=False)

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    def __post_init__(self) -> None:
        check_bm25_params(self.k1, self.b)
        self.doc_lengths = np.asarray(self.doc_lengths, dtype=np.int64)
        if self.doc_lengths.shape != (len(self.doc_ids),):
            raise DataError("index doc_lengths and doc_ids disagree in length")
        ordinals = self.postings.ordinals
        if ordinals.size and (ordinals.min() < 0 or ordinals.max() >= self.n_docs):
            raise DataError(f"postings name a document ordinal outside 0..{self.n_docs - 1}")
        if np.any(self.doc_lengths[ordinals] < self.postings.tfs):
            raise DataError("postings hold a term frequency above its document's length")
        n = self.n_docs
        self.avgdl = int(self.doc_lengths.sum()) / n if n else 0.0
        # the same float operations, in the same order, as _idf * _tf_weight
        dfs = np.diff(self.postings.offsets)
        idf = np.array([math.log(1.0 + (n - df + 0.5) / (df + 0.5)) for df in dfs.tolist()])
        tf = self.postings.tfs.astype(np.float64)
        norm = 1.0 - self.b + self.b * self.doc_lengths[ordinals].astype(np.float64) / self.avgdl
        self.impacts = np.repeat(idf, dfs) * (tf * (self.k1 + 1.0) / (tf + self.k1 * norm))
        self.doc_rank = _ranks(self.doc_ids)


def _ranks(doc_ids: list[str]) -> np.ndarray:
    """Each document's position in ascending doc_id order: the tie-break key."""
    rank = np.empty(len(doc_ids), dtype=np.int64)
    rank[sorted(range(len(doc_ids)), key=doc_ids.__getitem__)] = np.arange(len(doc_ids))
    return rank


def _top_k(doc_ids: list[str], rank: np.ndarray, ordinals: np.ndarray, scores: np.ndarray,
           k: int) -> list[ScoredDoc]:
    """The k best of the candidates by descending score, then ascending doc_id."""
    if len(scores) > k:
        kth = np.partition(scores, len(scores) - k)[len(scores) - k]
        keep = scores >= kth  # every candidate tied at the k-th score
        ordinals, scores = ordinals[keep], scores[keep]
    order = np.lexsort((rank[ordinals], -scores))[:k]
    return [ScoredDoc(doc_ids[o], s)
            for o, s in zip(ordinals[order].tolist(), scores[order].tolist())]


def build_index(
    corpus: Iterable[Document],
    k1: float = 0.9,
    b: float = 0.4,
) -> InvertedIndex:
    """Build an inverted index over the corpus; deterministic for fixed input order.

    Terms get their rows in order of first occurrence. Each token occurrence
    becomes the key ``row * N + ordinal``, and one ``np.unique`` over the keys
    gives the postings sorted by row, then by ordinal, with their tfs.
    """
    rows: dict[str, int] = {}
    setdefault = rows.setdefault
    term_rows: list[int] = []
    doc_lengths: list[int] = []
    doc_ids: list[str] = []
    for doc in corpus:
        tokens = tokenize(doc.text)
        doc_ids.append(doc.doc_id)
        doc_lengths.append(len(tokens))
        term_rows += [setdefault(t, len(rows)) for t in tokens]
    n = max(len(doc_ids), 1)
    keys = np.array(term_rows, dtype=np.int64) * n
    keys += np.repeat(np.arange(len(doc_ids), dtype=np.int64), doc_lengths)
    keys, tfs = np.unique(keys, return_counts=True)
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=len(rows)), out=offsets[1:])
    postings = Postings(rows, offsets, keys % n, tfs)
    return InvertedIndex(postings=postings, doc_lengths=doc_lengths, doc_ids=doc_ids,
                         k1=k1, b=b)


def _idf(index: InvertedIndex, token: str) -> float:
    df = len(index.postings.get(token, ()))
    if df == 0:
        return 0.0
    return math.log(1.0 + (index.n_docs - df + 0.5) / (df + 0.5))


def _tf_weight(index: InvertedIndex, tf: int, doc_len: int) -> float:
    norm = 1.0 - index.b + index.b * doc_len / index.avgdl
    return tf * (index.k1 + 1.0) / (tf + index.k1 * norm)


def bm25_score(index: InvertedIndex, query_tokens: Sequence[str], ordinal: int) -> float:
    """Score one document against query tokens, summing per token occurrence.

    Reads tf, df and the document length directly, never the precomputed
    impacts, so it is an independent check of ``search_bm25``.
    """
    if not 0 <= ordinal < index.n_docs:
        raise DataError(f"document ordinal {ordinal} out of range 0..{index.n_docs - 1}")
    score = 0.0
    doc_len = int(index.doc_lengths[ordinal])
    postings = index.postings
    for token in query_tokens:
        span = postings.span(token)
        if span is None:
            continue
        start, end = span
        pos = start + int(np.searchsorted(postings.ordinals[start:end], ordinal))
        if pos < end and postings.ordinals[pos] == ordinal:
            score += _idf(index, token) * _tf_weight(index, int(postings.tfs[pos]), doc_len)
    return score


def search_bm25(index: InvertedIndex, query_text: str, k: int = 30) -> list[ScoredDoc]:
    """Top-k documents by BM25, descending score; only docs scoring > 0 are returned."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    postings = index.postings
    spans = [s for s in map(postings.span, tokenize(query_text)) if s]
    if not spans:
        return []
    # bincount adds each document's impacts in query-token order, as a
    # per-posting accumulator would, so the scores are the same bits
    ordinals = np.concatenate([postings.ordinals[a:b] for a, b in spans])
    impacts = np.concatenate([index.impacts[a:b] for a, b in spans])
    scores = np.bincount(ordinals, weights=impacts, minlength=index.n_docs)
    hits = np.flatnonzero(scores > 0.0)
    return _top_k(index.doc_ids, index.doc_rank, hits, scores[hits], k)


def save_index(index: InvertedIndex, path: str | Path) -> None:
    """Write the index as an uncompressed ``.npz`` archive at exactly ``path``,
    whole or not at all (``io.replacing``).

    A doc_id ending in NUL is refused before the file is opened: numpy's str
    arrays drop trailing NULs, so it would read back as another id.
    """
    for doc_id in index.doc_ids:
        if doc_id.endswith("\0"):
            raise DataError(f"doc_id {doc_id!r} ends in NUL, which an index file cannot hold")
    postings = index.postings
    with replacing(path, "wb") as f:  # a file handle, because np.savez(path) appends ".npz"
        np.savez(
            f,
            k1=np.float64(index.k1),
            b=np.float64(index.b),
            doc_ids=np.array(index.doc_ids, dtype=str),
            doc_lengths=index.doc_lengths,
            terms=np.array(list(postings.rows), dtype=str),
            offsets=postings.offsets,
            ordinals=postings.ordinals,
            tfs=postings.tfs,
        )


def load_index(path: str | Path) -> InvertedIndex:
    """Read an index written by ``save_index``, converting no member: one of
    another dtype kind, width or shape is refused. A JSON index of older
    versions is refused; the tokenizer members of older ``.npz`` indexes are
    left unread."""
    try:
        with open(path, "rb") as f:
            if f.read(len(NPZ_MAGIC)) != NPZ_MAGIC:
                raise DataError("not an .npz archive (JSON indexes of older versions are "
                                "no longer read)")
            f.seek(0)
            with np.load(f, allow_pickle=False) as z:
                terms = npz_member(z, "terms", "U", 1).tolist()
                postings = Postings({t: r for r, t in enumerate(terms)},
                                    npz_member(z, "offsets", "i", 1),
                                    npz_member(z, "ordinals", "i", 1, itemsize=4),
                                    npz_member(z, "tfs", "i", 1, itemsize=4))
                return InvertedIndex(
                    postings=postings,
                    doc_lengths=npz_member(z, "doc_lengths", "i", 1),
                    doc_ids=npz_member(z, "doc_ids", "U", 1).tolist(),
                    k1=npz_member(z, "k1", "f", 0).item(),
                    b=npz_member(z, "b", "f", 0).item(),
                )
    except (DataError, zipfile.BadZipFile, EOFError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"cannot load index from {path}: {exc}; "
                        "rerun `distilrank index build` to rebuild it") from exc


@dataclass(eq=False)
class DenseStore:
    """Document vectors as one (N, d) matrix; row i belongs to ``doc_ids[i]``."""

    doc_ids: list[str]
    matrix: np.ndarray
    doc_rank: np.ndarray = field(init=False, repr=False)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != len(self.doc_ids):
            raise DataError(f"dense matrix of shape {self.matrix.shape} does not hold one row "
                            f"for each of {len(self.doc_ids)} documents")
        self.doc_rank = _ranks(self.doc_ids)


def _first_bad_vector(linenos: list[int], doc_ids: list[str], vectors: list) -> DataError | None:
    """The error of the first row that fails the per-row checks, in file
    order: its doc_id is not an id, its vector is not a finite 1-D number list,
    its length is not the first row's, or its doc_id came before. Only a
    rejected store gets here."""
    line_of: dict[str, int] = {}
    dimension = None
    for lineno, doc_id, vector in zip(linenos, doc_ids, vectors):
        if not is_id(doc_id):
            return malformed("dense store", lineno, bad_id("doc_id", doc_id))
        try:
            row = np.asarray(vector, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            return malformed("dense store", lineno, exc)
        if row.ndim != 1:
            return malformed("dense store", lineno, "vector is not one-dimensional")
        if not np.isfinite(row).all():
            return malformed("dense store", lineno, "vector has a non-finite component")
        if dimension is None:
            dimension = row.shape[0]
        elif row.shape[0] != dimension:
            return DataError(f"dense store line {lineno}: dimension {row.shape[0]} != {dimension}")
        first = line_of.setdefault(doc_id, lineno)
        if first != lineno:
            return repeated("dense store", lineno, "doc_id", doc_id, first)
    return None


def load_dense_store(lines: Iterable[str]) -> DenseStore:
    """Parse line-delimited JSON {"doc_id": ..., "vector": [...]} into a DenseStore.

    The vectors become one float64 matrix in one ``np.array`` call; only when
    that fails, or the matrix or the doc_ids break a rule, are the rows
    checked one by one to name the first bad line.
    """
    linenos: list[int] = []
    doc_ids: list[str] = []
    vectors: list = []
    for lineno, line in enumerate(lines, 1):
        if line.isspace() or not line:
            continue
        try:
            obj = json.loads(line)
            doc_id = obj["doc_id"]
            if not isinstance(doc_id, str):
                raise not_a_string("doc_id", doc_id)
            vector = obj["vector"]
        except RECORD_ERRORS as exc:
            # an earlier row's vector or doc_id may already be bad
            raise _first_bad_vector(linenos, doc_ids, vectors) or malformed(
                "dense store", lineno, exc) from exc
        linenos.append(lineno)
        doc_ids.append(doc_id)
        vectors.append(vector)
    try:
        matrix = np.array(vectors, dtype=np.float64) if vectors else np.zeros((0, 0))
        valid = (matrix.ndim == 2 and bool(np.isfinite(matrix).all())
                 and len(set(doc_ids)) == len(doc_ids) and all(map(is_id, doc_ids)))
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise _first_bad_vector(linenos, doc_ids, vectors)
    return DenseStore(doc_ids=doc_ids, matrix=matrix)


def search_dense(store: DenseStore, query_vector: Sequence[float], k: int = 30) -> list[ScoredDoc]:
    """Top-k documents by dot product; returns all docs when k exceeds the store size."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    q = np.asarray(query_vector, dtype=np.float64)
    if q.shape != (store.dimension,):
        raise DataError(f"query vector dimension {q.shape} != store dimension {store.dimension}")
    # einsum reduces every row in the same order, so identical vectors score
    # identically and tie on doc_id; BLAS gemv's row blocking can split them by an ulp
    scores = np.einsum("ij,j->i", store.matrix, q)
    return _top_k(store.doc_ids, store.doc_rank, np.arange(len(scores)), scores, k)


class RunfileSearcher:
    """Adapter that lets a precomputed run act as a retriever; counts missing queries."""

    def __init__(self, run: Run):
        self.run = run
        self.misses = 0
        self._lock = threading.Lock()

    def search(self, query_id: str, k: int = 30) -> list[ScoredDoc]:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        docs = self.run.get(query_id)
        if docs is None:
            with self._lock:
                self.misses += 1
            return []
        return docs[:k]


def load_score_map(lines: Iterable[str]) -> dict[str, dict[str, float]]:
    """The TSV score map qid<TAB>docid<TAB>score of compose_rerank, as ``{qid: {docid: score}}``."""
    return read_pair_numbers(lines, "score map", ("score",))


def compose_rerank(
    base_run: Run,
    score_map: Mapping[str, Mapping[str, float]],
    k_pool: int = 100,
    k_out: int = 30,
) -> Run:
    """Reorder the top-k_pool of each query by external scores and keep the top k_out.

    The sort is stable, so documents with equal external scores keep their
    base-run order (a score map equal to the base scores is a no-op).
    """
    if k_out > k_pool:
        raise ValueError(f"k_out={k_out} must not exceed k_pool={k_pool}")
    run: Run = {}
    for qid, docs in base_run.items():
        scores = score_map.get(qid, {})
        rescored: list[ScoredDoc] = []
        for doc_id, _ in docs[:k_pool]:
            score = scores.get(doc_id)
            if score is None:
                raise DataError(f"score map missing pair ({qid}, {doc_id})")
            rescored.append(ScoredDoc(doc_id, score))
        rescored.sort(key=lambda d: -d.score)
        run[qid] = rescored[:k_out]
    validate_run(run)
    return run

"""Domain data model: documents, queries, runs, qrels, distilled examples.

A run holds each query's ScoredDoc list, best first, so a document's rank is
its position. A run file's tag column comes from the command that writes it
and is not kept on read.

Judged and scored pairs are held per query, ``{query_id: {doc_id: value}}``,
so a consumer looks up one query's values and each pair costs one inner-dict
entry rather than a ``(query_id, doc_id)`` tuple key. Qrels wrap that shape in
a read-only Mapping that still presents the pairs of the qrels file: its keys
are ``(query_id, doc_id)`` pairs and its length is the number of judged pairs.
The MonoT5 score map and external logits are plain nested dicts."""

from __future__ import annotations

import math
from collections.abc import ItemsView, Iterator, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import DataError


class QueryKind(Enum):
    CROPPED = "cropped"
    GENERATED = "generated"


class Source(Enum):
    """First-stage retrieval system that supplied a query's candidate pool."""

    BM25 = "BM25"
    SPLADE = "SPLADE"
    DRAGON = "DRAGON"
    MONOT5 = "MonoT5"


SOURCES = (Source.BM25, Source.SPLADE, Source.DRAGON, Source.MONOT5)


def not_a_string(field: str, value: object) -> TypeError:
    return TypeError(f"{field} {value!r} is not a string")


def is_id(value: str) -> bool:
    """Whether ``value`` can be one field of a run or qrels line: non-empty,
    with no whitespace."""
    # split() breaks on exactly the characters str.isspace() accepts
    return value.split() == [value]


def bad_id(field: str, value: str) -> DataError:
    return DataError(f"{field} must be non-empty with no whitespace: {value!r}")


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str

    def __post_init__(self) -> None:
        if not isinstance(self.doc_id, str):
            raise not_a_string("doc_id", self.doc_id)
        if not isinstance(self.text, str):
            raise not_a_string("text", self.text)
        if not is_id(self.doc_id):
            raise bad_id("doc_id", self.doc_id)


@dataclass(frozen=True)
class Query:
    query_id: str
    text: str
    kind: QueryKind

    def __post_init__(self) -> None:
        if not is_id(self.query_id):
            raise bad_id("query_id", self.query_id)


class ScoredDoc(NamedTuple):
    doc_id: str
    score: float


# A run maps query_id -> its ranked list, best first; the universal retrieval currency.
Run = dict[str, list[ScoredDoc]]


class Qrels(Mapping[tuple[str, str], int]):
    """Non-negative relevance grades, held as ``by_query[query_id][doc_id]``.

    As a Mapping it is the pair view: keys are ``(query_id, doc_id)`` pairs,
    grouped by query in the order each query was first read, and ``len``
    counts judged pairs."""

    __slots__ = ("by_query",)

    def __init__(self, by_query: dict[str, dict[str, int]]) -> None:
        self.by_query = by_query

    def __getitem__(self, pair: tuple[str, str]) -> int:
        query_id, doc_id = pair
        return self.by_query[query_id][doc_id]

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return ((qid, doc_id) for qid, grades in self.by_query.items() for doc_id in grades)

    def __len__(self) -> int:
        return sum(map(len, self.by_query.values()))

    def items(self) -> ItemsView[tuple[str, str], int]:
        return _PairItems(self)

    def __repr__(self) -> str:
        return f"Qrels({self.by_query!r})"


class _PairItems(ItemsView):
    def __iter__(self) -> Iterator[tuple[tuple[str, str], int]]:
        for qid, grades in self._mapping.by_query.items():
            for doc_id, grade in grades.items():
                yield (qid, doc_id), grade


@dataclass(frozen=True)
class DistilledExample:
    """One query with its pooled documents and the teacher's permutation ranking.

    ``llm_ranking[i]`` is the rank (1 = most relevant) the teacher assigned to
    ``doc_ids[i]``; it must be a permutation of ``1..len(doc_ids)``, and no
    doc_id may appear twice.
    """

    query_id: str
    query_text: str
    kind: QueryKind
    source_retriever: Source
    doc_ids: tuple[str, ...]
    llm_ranking: tuple[int, ...]
    raw_response: str = ""
    repaired: bool = False

    def __post_init__(self) -> None:
        m = len(self.doc_ids)
        if len(self.llm_ranking) != m:
            raise DataError(
                f"query {self.query_id}: ranking length {len(self.llm_ranking)} != {m} documents"
            )
        if sorted(self.llm_ranking) != list(range(1, m + 1)):
            raise DataError(f"query {self.query_id}: llm_ranking is not a permutation of 1..{m}")
        _check_distinct(self.query_id, self.doc_ids)

    @property
    def m(self) -> int:
        return len(self.doc_ids)


def _check_distinct(query_id: str, doc_ids: Sequence[str]) -> None:
    """Raise a DataError naming the first doc_id of a query's list that appears twice."""
    if len(set(doc_ids)) != len(doc_ids):
        doc_id = next(d for i, d in enumerate(doc_ids) if d in doc_ids[:i])
        raise DataError(f"query {query_id}: doc_id {doc_id!r} appears twice")


def validate_run(run: Run) -> None:
    """Check per query: each doc_id once, finite non-increasing scores; raise
    DataError otherwise."""
    for query_id, docs in run.items():
        _check_distinct(query_id, [doc_id for doc_id, _ in docs])
        scores = [score for _, score in docs]
        if not all(map(math.isfinite, scores)):
            raise DataError(f"query {query_id}: non-finite score")
        for rank, (prev, cur) in enumerate(zip(scores, scores[1:]), 1):
            if cur > prev:
                raise DataError(
                    f"query {query_id}: score increases from rank {rank} to {rank + 1}"
                )

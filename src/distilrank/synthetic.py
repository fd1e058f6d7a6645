"""Seeded synthetic benchmark for desk-scale end-to-end runs.

Each topic owns two disjoint vocabularies: query words (which appear in
queries and, once or twice, in documents, so lexical retrieval can find
candidates) and marker words (which appear only in documents and determine
graded relevance, so lexical retrieval cannot order candidates by grade).
A shared filler vocabulary varies document length.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import DataError
from .types import Document, Qrels, Query, QueryKind

_QUERY_WORDS_PER_TOPIC = 6
_MARKER_WORDS_PER_TOPIC = 4
_FILLER_WORDS = 40
_OFF_TOPIC_JUDGMENTS = 5


@dataclass
class SynthBenchmark:
    corpus: list[Document]
    train_queries: list[Query]
    eval_queries: list[Query]
    qrels: Qrels
    generated_pool: list[tuple[str, str]]  # (doc_id, query_text)

    def _restrict(self, queries: list[Query]) -> Qrels:
        ids = {q.query_id for q in queries}
        return Qrels({qid: grades for qid, grades in self.qrels.by_query.items() if qid in ids})

    @property
    def train_qrels(self) -> Qrels:
        return self._restrict(self.train_queries)

    @property
    def eval_qrels(self) -> Qrels:
        return self._restrict(self.eval_queries)


def _sentences(words: list[str], rng: random.Random) -> str:
    out: list[str] = []
    i = 0
    while i < len(words):
        n = rng.randint(6, 10)
        out.append(" ".join(words[i: i + n]) + ".")
        i += n
    return " ".join(out)


def synth_benchmark(
    n_topics: int = 8,
    n_docs: int = 400,
    n_train_queries: int = 64,
    n_eval_queries: int = 16,
    seed: int = 7,
) -> SynthBenchmark:
    """Generate a corpus, queries, graded qrels, and a generated-query pool.

    Relevance grade of a same-topic (query, doc) pair is the document's count
    of distinct topic markers clipped to 0..3; every query is guaranteed at
    least one positive document. Deterministic for a fixed seed.
    """
    if n_topics < 2:
        raise DataError(f"need at least 2 topics, got {n_topics}")
    if n_docs < 10 * n_topics:
        raise DataError(f"need at least {10 * n_topics} docs for {n_topics} topics, got {n_docs}")
    if n_train_queries < 0 or n_eval_queries < 0:
        raise DataError(f"query counts must be >= 0, got {n_train_queries} train "
                        f"and {n_eval_queries} eval")
    rng = random.Random(seed)

    query_vocab = [[f"q{t}z{i}" for i in range(_QUERY_WORDS_PER_TOPIC)] for t in range(n_topics)]
    marker_vocab = [[f"m{t}z{i}" for i in range(_MARKER_WORDS_PER_TOPIC)] for t in range(n_topics)]
    filler = [f"fillz{i}" for i in range(_FILLER_WORDS)]

    doc_topics = [d % n_topics for d in range(n_docs)]
    rng.shuffle(doc_topics)

    corpus: list[Document] = []
    doc_grades: list[int] = []
    generated_pool: list[tuple[str, str]] = []
    docs_by_topic: dict[int, list[int]] = {t: [] for t in range(n_topics)}
    for d, topic in enumerate(doc_topics):
        markers = [rng.choice(marker_vocab[topic]) for _ in range(rng.randint(3, 8))]
        query_words = rng.sample(query_vocab[topic], rng.randint(1, 2))
        fillers = [rng.choice(filler) for _ in range(rng.randint(10, 30))]
        words = markers + query_words + fillers
        rng.shuffle(words)
        doc_id = f"sd{d:05d}"
        corpus.append(Document(doc_id, _sentences(words, rng)))
        doc_grades.append(min(3, len(set(markers))))
        docs_by_topic[topic].append(d)
        pool_text = " ".join(rng.sample(query_vocab[topic], rng.randint(3, 6)))
        generated_pool.append((doc_id, pool_text))

    n_queries = n_train_queries + n_eval_queries
    queries: list[Query] = []
    query_topics: list[int] = []
    for qi in range(n_queries):
        topic = qi % n_topics
        words = rng.sample(query_vocab[topic], rng.randint(3, 6))
        kind = QueryKind.CROPPED if qi % 2 == 0 else QueryKind.GENERATED
        queries.append(Query(f"sq{qi:04d}", " ".join(words), kind))
        query_topics.append(topic)

    off_topic = [[d for d in range(n_docs) if doc_topics[d] != t] for t in range(n_topics)]
    by_query: dict[str, dict[str, int]] = {}
    for query, topic in zip(queries, query_topics):
        grades = by_query[query.query_id] = {
            corpus[d].doc_id: doc_grades[d] for d in docs_by_topic[topic]}
        others = off_topic[topic]
        for d in rng.sample(others, min(_OFF_TOPIC_JUDGMENTS, len(others))):
            grades[corpus[d].doc_id] = 0

    return SynthBenchmark(
        corpus=corpus,
        train_queries=queries[:n_train_queries],
        eval_queries=queries[n_train_queries:],
        qrels=Qrels(by_query),
        generated_pool=generated_pool,
    )

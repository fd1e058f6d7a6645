"""Query augmentation: sentence cropping, generated-query ingestion, source
assignment, and the stratified train/validation split.

All sampling here is a pure function of (input, seed).
"""

from __future__ import annotations

import logging
import random
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import io
from .errors import DataError
from .tokenization import TokenizerConfig, tokenize
from .types import SOURCES, DistilledExample, Document, Query, QueryKind, Source

logger = logging.getLogger(__name__)

_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.!?])\s+")


@dataclass(frozen=True)
class CropConfig:
    n: int
    min_tokens: int = 5
    max_tokens: int = 40
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.min_tokens <= self.max_tokens:
            raise ValueError(f"need 1 <= min_tokens <= max_tokens, got {self.min_tokens}..{self.max_tokens}")
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")


def split_sentences(text: str) -> list[str]:
    """Split on sentence punctuation followed by whitespace; pieces are stripped."""
    return [s.strip() for s in _SENTENCE_SPLIT_RE.split(text) if s.strip()]


def crop_sentences(
    corpus: Sequence[Document],
    config: CropConfig,
    tokenizer: TokenizerConfig = TokenizerConfig(),
) -> list[Query]:
    """Sample n sentences within the token-length bounds as Cropped queries.

    Sampling is uniform without replacement; if fewer eligible sentences than n
    exist, sampling falls back to with-replacement and logs a warning.
    """
    if config.n == 0:
        return []
    candidates = [
        sentence
        for doc in corpus
        for sentence in split_sentences(doc.text)
        if config.min_tokens <= len(tokenize(sentence, tokenizer)) <= config.max_tokens
    ]
    if not candidates:
        raise DataError("no sentences satisfy the crop length bounds")
    rng = random.Random(config.seed)
    if len(candidates) >= config.n:
        chosen = rng.sample(candidates, config.n)
    else:
        logger.warning(
            "only %d eligible sentences for %d requested crops; sampling with replacement",
            len(candidates), config.n,
        )
        chosen = [rng.choice(candidates) for _ in range(config.n)]
    return [
        Query(query_id=f"crop-{i:06d}", text=sentence, kind=QueryKind.CROPPED)
        for i, sentence in enumerate(chosen, 1)
    ]


def load_generated(lines: Iterable[str], n: int = 10_000, seed: int = 0) -> list[Query]:
    """Sample n Generated queries uniformly without replacement from the pool
    file; n is checked before the first line is read."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    pool = io.parse_generated_pool(lines)
    if n > len(pool):
        raise DataError(f"requested {n} generated queries but the pool holds only {len(pool)}")
    rng = random.Random(seed)
    chosen = rng.sample(pool, n)
    return [
        Query(query_id=f"gen-{i:06d}", text=text, kind=QueryKind.GENERATED)
        for i, (_doc_id, text) in enumerate(chosen, 1)
    ]


def assign_sources(queries: Sequence[Query], seed: int = 0) -> dict[str, Source]:
    """Deal each kind's queries round-robin across the four retrieval sources.

    Within a kind the group sizes differ by at most 1; 10,000 queries per kind
    yield exactly 2,500 per (kind, source).
    """
    rng = random.Random(seed)
    assignment: dict[str, Source] = {}
    for kind in QueryKind:
        ids = [q.query_id for q in queries if q.kind is kind]
        rng.shuffle(ids)
        for i, qid in enumerate(ids):
            assignment[qid] = SOURCES[i % len(SOURCES)]
    return assignment


def validation_per_kind(n_val: int) -> int:
    """The examples of each query kind that a split holding out ``n_val`` takes."""
    if n_val % 2 != 0:
        raise ValueError(f"n_val must be even, got {n_val}")
    if n_val < 0:
        raise ValueError(f"n_val must be >= 0, got {n_val}")
    return n_val // 2


def split_dataset(
    examples: Sequence[DistilledExample],
    n_val: int,
    seed: int = 0,
) -> tuple[list[DistilledExample], list[DistilledExample]]:
    """Hold out n_val examples stratified by query kind (n_val/2 per kind).

    Returns (train, validation); the two parts are disjoint by query_id and
    together contain every input example.
    """
    per_kind = validation_per_kind(n_val)
    rng = random.Random(seed)
    val_ids: set[str] = set()
    for kind in QueryKind:
        ids = [ex.query_id for ex in examples if ex.kind is kind]
        if len(ids) < per_kind:
            raise DataError(
                f"need {per_kind} validation examples of kind {kind.value}, have {len(ids)}"
            )
        val_ids.update(rng.sample(ids, per_kind))
    train = [ex for ex in examples if ex.query_id not in val_ids]
    validation = [ex for ex in examples if ex.query_id in val_ids]
    return train, validation

"""Every tunable of the CLI, declared once: ``OPTIONS`` gives each config key
its type, default, flag and help. A subcommand attaches the keys it reads, and
each resolves to its flag if given, else its ``--config`` file value, else the
subcommand's default.

File syntax: one ``key = value`` per line; blank lines are ignored. A ``#``
starts a comment at the start of a line or after whitespace, so a value may
contain one (``llm.endpoint = http://host/v1#x`` keeps its fragment). Unknown
and repeated keys are rejected.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .errors import DataError


class Option(NamedTuple):
    type: type
    default: object
    help: str
    flag: str | None = ""  # "": ``--`` + the key's last part, ``_`` as ``-``; None: file only


OPTIONS: dict[str, Option] = {
    "bm25.k1": Option(float, 0.9, "BM25 term-frequency saturation"),
    "bm25.b": Option(float, 0.4, "BM25 document-length normalisation"),
    "retrieve.k": Option(int, 30, "documents retrieved per query"),
    "crop.min_tokens": Option(int, 5, "shortest cropped query, in tokens"),
    "crop.max_tokens": Option(int, 40, "longest cropped query, in tokens"),
    "compose.k_pool": Option(int, 100, "BM25 pool depth reranked by --monot5-scores"),
    "llm.endpoint": Option(str, None, "chat-completions URL of the teacher"),
    "llm.model": Option(str, "gpt-3.5-turbo-16k-0613", "teacher model name"),
    "llm.temperature": Option(float, 0.0, "teacher sampling temperature"),
    "llm.max_in_flight": Option(int, 4, "teacher requests in flight at once"),
    "llm.budget_usd": Option(float, math.inf, "teacher spend cap in USD"),
    "llm.prompt_price_per_1k": Option(float, 0.003, "USD per 1k prompt tokens", flag=None),
    "llm.completion_price_per_1k": Option(float, 0.004, "USD per 1k completion tokens", flag=None),
    "llm.retry_max_attempts": Option(int, 5, "attempts per teacher request", flag=None),
    "llm.backoff_base": Option(float, 1.0, "first retry delay in seconds", flag=None),
    "llm.backoff_factor": Option(float, 2.0, "retry delay growth factor", flag=None),
    "llm.timeout_s": Option(float, 60.0, "teacher request timeout in seconds", flag=None),
    "prompt.passage_word_budget": Option(int, 120, "words kept per passage", flag="--passage-words"),
    "window.size": Option(int, 30, "documents per teacher window", flag="--window"),
    "window.step": Option(int, 30, "stride between teacher windows"),
    "feature.hash_dim": Option(int, 1 << 18,
                               "hashed feature dimensions, a power of two, at most 2^31"),
    "feature.hidden": Option(int, 64, "hidden units of the scorer"),
    "feature.interaction_cap": Option(int, 16, "query tokens crossed with document tokens"),
    "train.batch": Option(int, 32, "queries per training batch"),
    "train.docs": Option(int, 30, "documents per query in training"),
    "train.lr": Option(float, 1e-3, "AdamW learning rate"),
    "train.epochs": Option(int, 10, "training epochs"),
    "train.beta1": Option(float, 0.9, "AdamW first-moment decay", flag=None),
    "train.beta2": Option(float, 0.999, "AdamW second-moment decay", flag=None),
    "train.eps": Option(float, 1e-8, "AdamW denominator epsilon", flag=None),
    "train.weight_decay": Option(float, 0.01, "AdamW decoupled weight decay"),
    "train.strategy": Option(str, "logit-difference", "scoring strategy of the two logits"),
    "train.kind": Option(str, "mixed", "query kinds trained on"),
    "train.exclude_source": Option(str, "none", "retriever whose examples are left out"),
    "eval.k": Option(int, 10, "nDCG cutoff"),
    "eval.n": Option(int, 30, "top-n depth of the intersection"),
    "rerank.k_in": Option(int, 100, "candidates reranked per query"),
    "rerank.k_out": Option(int, None, "documents kept per query; unset keeps rerank.k_in"),
}


_COMMENT_RE = re.compile(r"(?:^|\s)#")


def _cast(key: str, raw: str):
    target = OPTIONS[key].type
    try:
        return target(raw)
    except ValueError:
        raise DataError(f"config key {key}: expected {target.__name__}, got {raw!r}") from None


class CliConfig(dict):
    """The typed ``{key: value}`` a config file sets."""

    @classmethod
    def parse(cls, lines: Iterable[str]) -> CliConfig:
        cfg = cls()
        line_of: dict[str, int] = {}
        for lineno, line in enumerate(lines, 1):
            comment = _COMMENT_RE.search(line)
            stripped = (line[:comment.start()] if comment else line).strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise DataError(f"config line {lineno}: expected key = value")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key not in OPTIONS:
                raise DataError(f"config line {lineno}: unknown key {key!r}")
            if key in line_of:
                raise DataError(f"config line {lineno}: key {key!r} already set on line "
                                f"{line_of[key]}")
            line_of[key] = lineno
            cfg[key] = _cast(key, raw.strip())
        return cfg

    @classmethod
    def load(cls, path: str | Path | None) -> CliConfig:
        if path is None:
            return cls()
        with open(path, encoding="utf-8") as f:
            return cls.parse(f)


def resolve(defaults: Mapping[str, object], flags: Mapping[str, object], cfg: CliConfig) -> dict:
    """Each key of ``defaults``: its flag value if given, else its file value, else its default."""
    return {k: flags[k] if k in flags else cfg.get(k, d) for k, d in defaults.items()}

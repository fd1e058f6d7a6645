"""Flat key=value configuration shared by every CLI subcommand.

File syntax: one ``key = value`` per line, ``#`` starts a comment, blank
lines are ignored. Unknown keys are rejected. Command-line flags always
override file values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .errors import DataError

# Every operation default addressable from the config file, with its type.
KNOWN_KEYS: dict[str, type] = {
    "bm25.k1": float,
    "bm25.b": float,
    "retrieve.k": int,
    "crop.min_tokens": int,
    "crop.max_tokens": int,
    "compose.k_pool": int,
    "llm.endpoint": str,
    "llm.model": str,
    "llm.temperature": float,
    "llm.max_in_flight": int,
    "llm.budget_usd": float,
    "llm.prompt_price_per_1k": float,
    "llm.completion_price_per_1k": float,
    "llm.retry_max_attempts": int,
    "llm.backoff_base": float,
    "llm.backoff_factor": float,
    "llm.timeout_s": float,
    "prompt.passage_word_budget": int,
    "window.size": int,
    "window.step": int,
    "feature.hash_dim": int,
    "feature.hidden": int,
    "feature.interaction_cap": int,
    "train.batch": int,
    "train.docs": int,
    "train.lr": float,
    "train.epochs": int,
    "train.beta1": float,
    "train.beta2": float,
    "train.eps": float,
    "train.weight_decay": float,
    "train.strategy": str,
    "train.kind": str,
    "train.exclude_source": str,
    "train.literal_sign": bool,
    "eval.k": int,
    "eval.n": int,
    "rerank.k_in": int,
    "rerank.k_out": int,
}

_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _cast(key: str, raw: str):
    target = KNOWN_KEYS[key]
    if target is bool:
        if raw.lower() not in _BOOL_VALUES:
            raise DataError(f"config key {key}: expected a boolean, got {raw!r}")
        return _BOOL_VALUES[raw.lower()]
    try:
        return target(raw)
    except ValueError:
        raise DataError(f"config key {key}: expected {target.__name__}, got {raw!r}") from None


@dataclass
class CliConfig:
    values: dict[str, object] = field(default_factory=dict)

    @classmethod
    def parse(cls, lines: Iterable[str]) -> CliConfig:
        values: dict[str, object] = {}
        for lineno, line in enumerate(lines, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise DataError(f"config line {lineno}: expected key = value")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key not in KNOWN_KEYS:
                raise DataError(f"config line {lineno}: unknown key {key!r}")
            values[key] = _cast(key, raw.strip())
        return cls(values)

    @classmethod
    def load(cls, path: str | Path | None) -> CliConfig:
        if path is None:
            return cls()
        with open(path, encoding="utf-8") as f:
            return cls.parse(f)

    def pick(self, flag_value, key: str, default):
        """Flag value if given, else config-file value, else the default."""
        if flag_value is not None:
            return flag_value
        return self.values.get(key, default)

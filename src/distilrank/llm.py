"""Chat-completions HTTP client with retry, cost estimation, and a budget cap.

Wire protocol: POST JSON {"model": ..., "messages": [...], "temperature": ...};
the reply text is read from choices[0].message.content. The bearer token comes
from the DISTILRANK_API_KEY environment variable when set.
"""

from __future__ import annotations

import json
import logging
import math
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

from .errors import BudgetError, TransportError

logger = logging.getLogger(__name__)

API_KEY_ENV = "DISTILRANK_API_KEY"

# Characters per estimated token, and characters per completion index entry.
_CHARS_PER_TOKEN = 4
_CHARS_PER_INDEX_ENTRY = 6

_RETRYABLE_STATUS = {429, 500, 502, 503, 504}

Message = dict[str, str]


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 5
    backoff_base: float = 1.0
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        for name, value in (("backoff_base", self.backoff_base),
                            ("backoff_factor", self.backoff_factor)):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class LlmConfig:
    endpoint: str
    model: str = "gpt-3.5-turbo-16k-0613"
    temperature: float = 0.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    budget_usd: float = math.inf
    prompt_price_per_1k: float = 0.003
    completion_price_per_1k: float = 0.004
    timeout_s: float = 60.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")
        # inf is the "no cap" default; nan would pass every cap check unseen
        if not self.budget_usd >= 0:
            raise ValueError(f"budget must be >= 0 (inf for no cap), got {self.budget_usd}")
        for name, price in (("prompt_price_per_1k", self.prompt_price_per_1k),
                            ("completion_price_per_1k", self.completion_price_per_1k)):
            if not (math.isfinite(price) and price >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {price}")
        if not (math.isfinite(self.timeout_s) and self.timeout_s > 0):
            raise ValueError(f"timeout_s must be finite and > 0, got {self.timeout_s}")


def estimate_tokens(text_chars: int) -> int:
    return math.ceil(text_chars / _CHARS_PER_TOKEN)


def estimate_cost(
    messages: Sequence[Message],
    prompt_price_per_1k: float,
    completion_price_per_1k: float,
    completion_entries: int = 0,
) -> float:
    """Estimated USD for one call: chars/4 prompt tokens plus 6 chars per
    expected completion index entry."""
    prompt_tokens = estimate_tokens(sum(len(m.get("content", "")) for m in messages))
    completion_tokens = estimate_tokens(_CHARS_PER_INDEX_ENTRY * completion_entries)
    return (
        prompt_tokens / 1000.0 * prompt_price_per_1k
        + completion_tokens / 1000.0 * completion_price_per_1k
    )


class LlmClient:
    """Thread-safe client enforcing the retry policy and budget cap.

    Every attempt is recorded in ``attempts`` (and appended to ``log_path``
    when given) so a run can be audited afterwards.
    """

    def __init__(self, config: LlmConfig, log_path: str | None = None):
        self.config = config
        self.log_path = log_path
        self.spent_usd = 0.0
        self.attempts: list[dict] = []
        self._lock = threading.Lock()

    def _log(self, record: dict) -> None:
        with self._lock:
            self.attempts.append(record)
            if self.log_path:
                with open(self.log_path, "a", encoding="utf-8") as f:
                    f.write(json.dumps(record, ensure_ascii=False) + "\n")

    def _charge(self, amount: float) -> None:
        with self._lock:
            self.spent_usd += amount

    def call(self, messages: Sequence[Message], completion_entries: int = 0) -> str:
        """POST the messages, honoring budget and retry policy; returns the reply text.

        The estimated cost is reserved against the budget before anything is
        sent, so concurrent calls cannot overspend it together. A successful
        call settles the reservation to its actual cost. A failed one releases
        it, except a 200 reply that is not a valid completion: that reply is
        billed, so its reservation stands as its charge.
        """
        cfg = self.config
        estimate = estimate_cost(
            messages, cfg.prompt_price_per_1k, cfg.completion_price_per_1k, completion_entries
        )
        with self._lock:
            if self.spent_usd + estimate > cfg.budget_usd:
                raise BudgetError(
                    f"estimated call cost ${estimate:.4f} would exceed the "
                    f"${cfg.budget_usd:.4f} budget (spent or reserved ${self.spent_usd:.4f})"
                )
            self.spent_usd += estimate
        actual = 0.0
        try:
            resp = self._post(messages)
            actual = estimate  # a 200 reply is billed even if its body does not parse
            try:
                text = resp.json()["choices"][0]["message"]["content"]
                if not isinstance(text, str):
                    raise TypeError(f"content is {type(text).__name__}, not a string")
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise TransportError(f"malformed completion response: {exc}") from exc
            actual = estimate_cost(
                messages, cfg.prompt_price_per_1k, 0.0
            ) + estimate_tokens(len(text)) / 1000.0 * cfg.completion_price_per_1k
        finally:
            self._charge(actual - estimate)
        return text

    def _post(self, messages: Sequence[Message]):
        """The first HTTP 200 response to the messages, under the retry policy."""
        cfg = self.config
        body = {"model": cfg.model, "messages": list(messages), "temperature": cfg.temperature}
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"

        import requests

        last_error = "no attempt made"
        for attempt in range(1, cfg.retry.max_attempts + 1):
            try:
                resp = requests.post(
                    cfg.endpoint, json=body, headers=headers, timeout=cfg.timeout_s
                )
            except requests.RequestException as exc:
                last_error = f"request failed: {exc}"
                self._log({"attempt": attempt, "error": str(exc)})
            else:
                self._log({"attempt": attempt, "status": resp.status_code})
                if resp.status_code == 200:
                    return resp
                if resp.status_code not in _RETRYABLE_STATUS:
                    raise TransportError(f"endpoint returned HTTP {resp.status_code}")
                last_error = f"HTTP {resp.status_code}"
            if attempt < cfg.retry.max_attempts:
                delay = cfg.retry.backoff_base * cfg.retry.backoff_factor ** (attempt - 1)
                time.sleep(random.uniform(0.0, delay))  # full jitter
        raise TransportError(
            f"gave up after {cfg.retry.max_attempts} attempts: {last_error}"
        )


def __getattr__(name: str):
    # requests is imported when a client first posts (PEP 562), so only a
    # run with an endpoint pays for the import; `distilrank.llm.requests`
    # still names the module, for callers and tests that patch it
    if name == "requests":
        import requests
        return requests
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

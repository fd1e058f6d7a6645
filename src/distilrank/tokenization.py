"""Unicode-alphanumeric-run tokenizer used by indexing, cropping, and featurization.

The pipeline uses one tokenizer, the default ``TokenizerConfig()``: always
lowercased, no minimum length. Every stage calls ``tokenize(text)``, and no
file or option carries the settings; the other settings exist for tests and
measurements that call ``tokenize`` directly.

A token is a maximal run of characters for which ``str.isalnum`` holds
(``[^\\W_]``). ASCII text, after lowercasing, takes a fast path: one
``bytes.translate`` maps every byte outside ``[0-9A-Za-z]`` to a space and
``split`` cuts the runs. For ASCII, ``[^\\W_]`` is exactly ``[0-9A-Za-z]``,
so both paths give the same tokens; any other text goes through the regex.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

# Maximal runs of Unicode alphanumerics (\w minus underscore).
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# Keeps the ASCII alphanumerics and turns every other byte into a space.
_ASCII_RUNS = bytes(b if b < 128 and chr(b).isalnum() else ord(" ") for b in range(256))


@dataclass(frozen=True)
class TokenizerConfig:
    lowercase: bool = True
    min_token_len: int = 1


def tokenize(text: str, config: TokenizerConfig = TokenizerConfig()) -> list[str]:
    """Split text into alphanumeric runs; idempotent under space-join of its output."""
    if config.lowercase:
        text = text.lower()
    if text.isascii():
        tokens = text.encode("ascii").translate(_ASCII_RUNS).decode("ascii").split()
    else:
        tokens = _TOKEN_RE.findall(text)
    if config.min_token_len > 1:
        tokens = [t for t in tokens if len(t) >= config.min_token_len]
    return tokens

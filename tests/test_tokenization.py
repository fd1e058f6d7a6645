import re

from hypothesis import example, given
from hypothesis import strategies as st

from distilrank.tokenization import TokenizerConfig, tokenize


def test_empty_input():
    assert tokenize("") == []


def test_lowercase_and_split():
    assert tokenize("The cat, the CAT!") == ["the", "cat", "the", "cat"]


def test_alphanumeric_runs():
    # hand application of the maximal-run rule: '-', '=', '.' all split
    assert tokenize("BM25-style k1=0.9") == ["bm25", "style", "k1", "0", "9"]


def test_lowercase_off():
    assert tokenize("The CAT", TokenizerConfig(lowercase=False)) == ["The", "CAT"]


def test_min_token_len():
    assert tokenize("a bb ccc", TokenizerConfig(min_token_len=2)) == ["bb", "ccc"]


def test_unicode_runs():
    assert tokenize("café №42") == ["café", "42"]


@given(st.text(max_size=200))
def test_idempotent_under_space_join(text):
    once = tokenize(text)
    assert tokenize(" ".join(once)) == once


def _reference(text, config):
    found = re.findall(r"[^\W_]+", text.lower() if config.lowercase else text)
    return [t for t in found if len(t) >= config.min_token_len]


# every ASCII character: control characters, "_", digits, punctuation, letters
_ASCII = st.text(st.sampled_from([chr(c) for c in range(128)]), max_size=200)


@given(st.one_of(st.text(max_size=200), _ASCII), st.booleans(), st.integers(1, 3))
@example("\u212a", True, 1)  # the Kelvin sign lowercases to ASCII "k"
@example("\u212a", False, 1)
@example("\u0130", True, 1)  # "İ" lowercases to "i" and a combining dot
@example("a_b\x00c\x7fD-9", True, 1)
def test_matches_regex_reference(text, lowercase, min_token_len):
    config = TokenizerConfig(lowercase=lowercase, min_token_len=min_token_len)
    assert tokenize(text, config) == _reference(text, config)

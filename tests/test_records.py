"""The shared record rules, checked once for every line-oriented reader.

Each reader skips blank lines, names its kind of file and the line in a
DataError for a wrong field count, names both lines when a key repeats, and
rejects a non-finite number in any numeric field. Every case runs on a
one-shot iterator, as ``io.lines_of`` gives, and on a list, with the same
outcome: a reader reads its lines once.
"""

import json
import re
from dataclasses import dataclass
from typing import Callable

import pytest

from distilrank import io
from distilrank.io import parse_assignment, parse_generated_pool
from distilrank.errors import DataError
from distilrank.retrieval import DenseStore, load_dense_store, load_score_map
from distilrank.scorer import load_external_logits


def _example(query_id: str) -> str:
    return json.dumps({"query_id": query_id, "query_text": "t", "kind": "cropped",
                       "source_retriever": "BM25", "doc_ids": ["d1", "d2"],
                       "llm_ranking": [2, 1]}) + "\n"


def _vector(doc_id: str, *xs: str) -> str:
    return f'{{"doc_id": "{doc_id}", "vector": [{", ".join(xs)}]}}\n'


@dataclass
class Reader:
    name: str
    parse: Callable
    rows: list[str]  # two valid records with different keys
    short: str  # one field too few, or a JSON record missing a field
    repeat: str | None  # repeats the first row's key; None where no key must be unique
    repeat_error: str = r"line 3.*line 1"
    non_finite: list[str] | None = None  # a second record with a non-finite number


READERS = [
    Reader("corpus", io.parse_corpus,
           ['{"doc_id": "d1", "text": "a"}\n', '{"doc_id": "d2", "text": "b"}\n'],
           '{"doc_id": "d3"}\n', '{"doc_id": "d1", "text": "c"}\n'),
    Reader("queries", io.parse_queries,
           ["q1\talpha\tcropped\n", "q2\tbeta\tgenerated\n"],
           "q3\tgamma\n", "q1\tdelta\tcropped\n"),
    # a run's entries are checked per query once parsed, so a repeated
    # document names its query; qrels keep their duplicate check on the
    # qrels dict itself, which names the repeated pair
    Reader("run", io.read_run,
           ["q1 Q0 d1 1 2.0 t\n", "q1 Q0 d2 2 1.0 t\n"],
           "q1 Q0 d3 3 0.5\n", "q1 Q0 d1 3 0.5 t\n", r"query q1: doc_id 'd1' appears twice",
           ["q2 Q0 d1 1 nan t\n", "q2 Q0 d1 1 inf t\n", "q2 Q0 d1 1 -inf t\n"]),
    Reader("qrels", io.read_qrels,
           ["q1 0 d1 1\n", "q1 0 d2 0\n"],
           "q1 0 d3\n", "q1 0 d1 2\n", r"line 3: duplicate pair \(q1, d1\)"),
    Reader("distilled", io.read_distilled,
           [_example("q1"), _example("q2")],
           '{"query_id": "q3"}\n', _example("q1")),
    Reader("generated pool", parse_generated_pool,
           ["d1\tfirst query\n", "d1\tsecond query\n"],
           "d2\n", None),
    Reader("assignment", parse_assignment,
           ["q1\tBM25\n", "q2\tDRAGON\n"],
           "q3\n", "q1\tSPLADE\n", r"line 3: query 'q1' already assigned on line 1"),
    Reader("dense store", load_dense_store,
           [_vector("d1", "1", "0"), _vector("d2", "0", "1")],
           '{"doc_id": "d3"}\n', _vector("d1", "1", "1"), r"line 3: doc_id 'd1'.*line 1",
           [_vector("d3", "1", "NaN"), _vector("d3", "Infinity", "0")]),
    Reader("score map", load_score_map,
           ["q1\td1\t0.5\n", "q1\td2\t0.25\n"],
           "q1\td3\n", "q1\td1\t0.7\n", r"line 3: pair \('q1', 'd1'\).*line 1",
           ["q1\td3\tnan\n", "q1\td3\t-inf\n"]),
    Reader("logits", load_external_logits,
           ["q1\td1\t1.0\t0.0\n", "q1\td2\t0.5\t0.0\n"],
           "q1\td3\t1.0\n", "q1\td1\t2.0\t0.0\n", r"line 3: pair \('q1', 'd1'\).*line 1",
           ["q1\td3\tnan\t0.0\n", "q1\td3\t0.0\tinf\n"]),
    Reader("per-query", lambda lines: io.read_per_query(lines, "per-query"),
           ["q1\t0.5\n", "q2\t0.75\n"],
           "q3\n", "q1\t0.6\n", r"line 3: query 'q1'.*line 1",
           ["q3\tnan\n", "q3\t-inf\n"]),
]


def readers(has=lambda r: True):
    return pytest.mark.parametrize(
        "reader", [pytest.param(r, id=r.name) for r in READERS if has(r)], indirect=True)


def _plain(parsed):
    if isinstance(parsed, DenseStore):  # compared by identity
        return parsed.doc_ids, parsed.matrix.tolist()
    return parsed


def _outcome(parse, lines):
    try:
        return _plain(parse(lines)), None
    except DataError as exc:
        return None, str(exc)


def _on_both_feeds(parse):
    """parse, run on a one-shot iterator over the lines and on a list of
    them; both must give the same result or the same error."""
    def run(lines):
        once, listed = _outcome(parse, iter(lines)), _outcome(parse, list(lines))
        assert once == listed, f"one-shot iterator gave {once}, list gave {listed}"
        parsed, error = listed
        if error is not None:
            raise DataError(error)
        return parsed
    return run


@pytest.fixture
def reader(request):
    r = request.param
    return Reader(r.name, _on_both_feeds(r.parse), r.rows, r.short, r.repeat, r.repeat_error,
                  r.non_finite)


@readers()
def test_blank_lines_are_skipped(reader):
    with_blanks = reader.parse(["\n", reader.rows[0], "  \t \n", "\n", reader.rows[1]])
    assert _plain(with_blanks) == _plain(reader.parse(reader.rows))


@readers()
def test_wrong_field_count_names_kind_and_line(reader):
    with pytest.raises(DataError, match=f"{re.escape(reader.name)} line 4: "):
        reader.parse([reader.rows[0], "\n", reader.rows[1], reader.short])


@readers(lambda r: r.repeat is not None)
def test_repeated_key_names_both_lines(reader):
    with pytest.raises(DataError, match=reader.repeat_error):
        reader.parse([*reader.rows, reader.repeat])


@readers(lambda r: r.non_finite is not None)
def test_non_finite_number_names_line(reader):
    for bad in reader.non_finite:
        with pytest.raises(DataError, match=f"{re.escape(reader.name)} line 3: .*non-finite"):
            reader.parse([reader.rows[0], "\n", bad])


def test_trec_splits_on_whitespace_and_tsv_on_tabs_only():
    assert io.read_qrels(["q1  0\td1 2\n", "\n", " q2 0 d1 1 \n"]) == {
        ("q1", "d1"): 2, ("q2", "d1"): 1}
    assert parse_generated_pool(["d1\ta query with spaces \n"]) == [("d1", "a query with spaces ")]
    with pytest.raises(DataError, match="generated pool line 1: expected 2 columns, got 3"):
        parse_generated_pool(["d1\tq\tr\n"])


def test_bad_number_words_non_numeric_and_non_finite():
    assert str(io.bad_number("x", 4, "rank", "2.0", int)) == "x line 4: non-numeric rank '2.0'"
    assert str(io.bad_number("x", 5, "score", "nan")) == "x line 5: non-finite score 'nan'"
    assert str(io.bad_number("x", 6, "score", "1e")) == "x line 6: non-numeric score '1e'"
    assert io.read_run(["q1 Q0 d1 3 2.5 t\n", "q1 Q0 d2 1 4 t\n", "q1 Q0 d3 2 3 t\n"]) == {
        "q1": [("d2", 4.0), ("d3", 3.0), ("d1", 2.5)]}
    with pytest.raises(DataError, match="run line 1: non-numeric rank '2.0'"):
        io.read_run(["q1 Q0 d1 2.0 1 t\n"])
    with pytest.raises(DataError, match="run line 1: non-numeric score 'high'"):
        io.read_run(["q1 Q0 d1 1 high t\n"])

"""Fault injection at the ``distill`` level: the real `api_llm` teacher and
`LlmClient`, with ``distilrank.llm.requests.post`` replaced by a scripted
endpoint. One request in flight keeps the order of calls fixed, and a zero
backoff keeps retries instant.
"""

import json
import re

import pytest

from distilrank import io
from distilrank.cli import dispatch
from distilrank.distill import format_order
from distilrank.llm import estimate_cost

_QUERY_RE = re.compile(r"\nSearch query: (.*)\n")
_M_RE = re.compile(r"Rank the (\d+) passages above")


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Eight training queries over an 80-document corpus, and its BM25 index."""
    root = tmp_path_factory.mktemp("faults")
    assert dispatch(["synth", "--topics", "4", "--docs", "80", "--train-queries", "8",
                     "--eval-queries", "1", "--seed", "3", "--out-dir", str(root)]) == 0
    assert dispatch(["index", "build", "--corpus", str(root / "corpus.jsonl"),
                     "--out", str(root / "index.json")]) == 0
    (root / "fast-retry.cfg").write_text("llm.backoff_base = 0\n")
    queries = io.load_queries(root / "queries-train.tsv")
    assert len({q.text for q in queries}) == len(queries) == 8
    return root


class _Response:
    def __init__(self, status_code, body):
        self.status_code = status_code
        self._body = body

    def json(self):
        if isinstance(self._body, Exception):
            raise self._body
        return self._body


class Teacher:
    """The scripted endpoint. It answers every prompt with the reverse of the
    order it was given, except that ``faults`` maps a query id to the
    ``(status, body)`` sent for it instead. ``calls`` lists each request as
    (query id, messages, status)."""

    def __init__(self, ws, faults=None):
        self.id_of = {q.text: q.query_id for q in io.load_queries(ws / "queries-train.tsv")}
        self.faults = faults or {}
        self.calls = []

    def post(self, url, json, headers, timeout):
        messages = json["messages"]
        prompt = messages[-1]["content"]
        query_id = self.id_of[_QUERY_RE.search(prompt).group(1)]
        m = int(_M_RE.search(prompt).group(1))
        status, body = self.faults.get(query_id, (200, None))
        if body is None:
            body = {"choices": [{"message": {"content": format_order(range(m, 0, -1))}}]}
        self.calls.append((query_id, messages, status))
        return _Response(status, body)

    def answered(self):
        return [query_id for query_id, _, status in self.calls if status == 200]


def _distill(ws, monkeypatch, teacher, journal, out, *extra):
    monkeypatch.setattr("distilrank.llm.requests.post", teacher.post)
    return dispatch([
        "--config", str(ws / "fast-retry.cfg"),
        "distill", "--queries", str(ws / "queries-train.tsv"),
        "--corpus", str(ws / "corpus.jsonl"), "--bm25-index", str(ws / "index.json"),
        "--endpoint", "http://teacher.invalid/v1/chat/completions",
        "--max-in-flight", "1", "--k", "10",
        "--journal", str(journal), "--out", str(out), *extra,
    ])


def _journal_ids(journal):
    """The query id of each journal line, read without `read_journal`."""
    return [json.loads(line.split("\t", 1)[1])["query_id"]
            for line in journal.read_text(encoding="utf-8").splitlines()]


@pytest.fixture
def uninterrupted(ws, tmp_path, monkeypatch):
    """The output bytes of a run that no fault touches, and its teacher."""
    teacher, out = Teacher(ws), tmp_path / "uninterrupted.jsonl"
    assert _distill(ws, monkeypatch, teacher, tmp_path / "uninterrupted.log", out) == 0
    return out.read_bytes(), teacher


def _query_ids(ws):
    return [q.query_id for q in io.load_queries(ws / "queries-train.tsv")]


def test_429_storm_fails_one_query(ws, tmp_path, monkeypatch, capsys):
    stormed = _query_ids(ws)[2]
    teacher = Teacher(ws, {stormed: (429, {})})
    out, journal = tmp_path / "out.jsonl", tmp_path / "journal.log"
    assert _distill(ws, monkeypatch, teacher, journal, out) == 0
    labeled = [ex.query_id for ex in io.load_distilled(out)]
    assert sorted(labeled) == sorted(q for q in _query_ids(ws) if q != stormed)
    assert [q for q, _, _ in teacher.calls].count(stormed) == 5  # every attempt, then give up
    err = capsys.readouterr().err
    assert f"failed {stormed}: gave up after 5 attempts: HTTP 429" in err
    assert sorted(_journal_ids(journal)) == sorted(labeled)


@pytest.mark.parametrize("body", [{"choices": []}, ValueError("not JSON")],
                         ids=["no-choices", "not-json"])
def test_malformed_completion_fails_one_query(ws, tmp_path, monkeypatch, capsys, body):
    broken = _query_ids(ws)[5]
    teacher = Teacher(ws, {broken: (200, body)})
    out = tmp_path / "out.jsonl"
    assert _distill(ws, monkeypatch, teacher, tmp_path / "journal.log", out) == 0
    labeled = [ex.query_id for ex in io.load_distilled(out)]
    assert sorted(labeled) == sorted(q for q in _query_ids(ws) if q != broken)
    assert [q for q, _, _ in teacher.calls].count(broken) == 1  # not retried
    assert f"failed {broken}: malformed completion response" in capsys.readouterr().err


def test_budget_exhausted_mid_run_then_resumed(ws, tmp_path, monkeypatch, uninterrupted):
    full, teacher = uninterrupted
    # a cap that covers the first four calls and half of the fifth
    costs = [estimate_cost(messages, 0.003, 0.004, int(_M_RE.search(messages[-1]["content"])[1]))
             for _, messages, _ in teacher.calls]
    budget = sum(costs[:4]) + costs[4] / 2

    out, journal = tmp_path / "out.jsonl", tmp_path / "journal.log"
    capped = Teacher(ws)
    assert _distill(ws, monkeypatch, capped, journal, out, "--budget-usd", repr(budget)) == 3
    assert not out.exists()
    assert capped.answered() == _query_ids(ws)[:4]
    assert _journal_ids(journal) == capped.answered()

    resumed = Teacher(ws)
    assert _distill(ws, monkeypatch, resumed, journal, out) == 0
    assert resumed.answered() == _query_ids(ws)[4:]
    assert out.read_bytes() == full


def test_torn_journal_line_resumes_to_the_same_bytes(ws, tmp_path, monkeypatch, uninterrupted):
    full, _ = uninterrupted
    out, journal = tmp_path / "out.jsonl", tmp_path / "journal.log"
    assert _distill(ws, monkeypatch, Teacher(ws), journal, out) == 0
    raw = journal.read_bytes()
    last_start = raw.rstrip(b"\n").rfind(b"\n") + 1
    torn = _journal_ids(journal)[-1]
    journal.write_bytes(raw[: (last_start + len(raw)) // 2])  # stop halfway through the append

    resumed = Teacher(ws)
    assert _distill(ws, monkeypatch, resumed, journal, out) == 0
    assert resumed.answered() == [torn]
    assert out.read_bytes() == full

    # the resume left a journal the next resume reads whole
    again = Teacher(ws)
    assert _distill(ws, monkeypatch, again, journal, out) == 0
    assert again.calls == []
    assert out.read_bytes() == full
    assert sorted(_journal_ids(journal)) == sorted(_query_ids(ws))

"""Codecs for the pipeline's files, and the record reader that every
line-oriented input goes through.

records() splits each non-blank line into a fixed number of fields, on tabs
or (for TREC files) on any whitespace; json_records() parses each non-blank
line as one JSON object. number() parses a field as a finite number, and
require_new() rejects a repeated key. Each DataError they raise names the
kind of file and the line, and a repeated key also names its first line.

Formats read here (README "Input files" lists every line format):
  corpus.jsonl    {"doc_id": ..., "text": ...} per line; doc_id unique
  queries.tsv     query_id<TAB>text<TAB>kind, kind in {cropped, generated};
                  query_id unique
  run files       TREC 6-column: qid Q0 docid rank score tag; per query, ranks
                  1..n, each docid once, finite non-increasing scores. The
                  tag is not kept: write_run takes it from the command that
                  writes the run
  qrels           TREC 4-column: qid 0 docid rel; each (qid, docid) once, with
                  a non-negative integer rel (a repeat names the pair, not its
                  first line, so the parse keeps no line map)
  distilled.jsonl one JSON object per line with all DistilledExample fields;
                  query_id unique

Canonical run text uses a single space separator, %.6f scores, and queries
sorted by query_id, so write_run(read_run(x), tag) == x byte-for-byte when
every line of x carries that tag.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable, Hashable, Iterable, Iterator, TypeVar

from .errors import DataError
from .types import DistilledExample, Document, Qrels, Query, QueryKind, Run, ScoredDoc, Source, validate_run

T = TypeVar("T")


def lines_of(path: str | Path) -> Iterator[str]:
    """The lines of a UTF-8 text file, read as they are consumed."""
    with open(path, encoding="utf-8") as f:
        yield from f


def records(lines: Iterable[str], what: str, n_fields: int,
            sep: str | None = "\t") -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for each non-blank line, split on sep.

    ``sep=None`` splits on runs of whitespace (TREC runs and qrels); otherwise
    only the newline is stripped, so a field may hold spaces.
    """
    for lineno, line in enumerate(lines, 1):
        if sep is None:
            fields = line.split()
            if not fields:
                continue
        elif line.strip():
            fields = line.rstrip("\n").split(sep)
        else:
            continue
        if len(fields) != n_fields:
            raise DataError(f"{what} line {lineno}: expected {n_fields} columns, got {len(fields)}")
        yield lineno, fields


def json_record(text: str, what: str, lineno: int, build: Callable[[dict], T]) -> T:
    """build(the JSON object in text); any failure is a DataError naming the line."""
    try:
        return build(json.loads(text))
    except (KeyError, TypeError, ValueError, DataError) as exc:
        raise DataError(f"{what} line {lineno}: malformed record ({exc})") from exc


def json_records(lines: Iterable[str], what: str,
                 build: Callable[[dict], T]) -> Iterator[tuple[int, T]]:
    """Yield (line number, json_record(line)) for each non-blank JSON line."""
    for lineno, line in enumerate(lines, 1):
        if line.strip():
            yield lineno, json_record(line, what, lineno, build)


def number(raw: str, what: str, lineno: int, field: str, kind: type = float) -> float:
    """raw parsed as a finite float (or an int); a DataError naming the line otherwise."""
    try:
        value = kind(raw)
    except ValueError:
        raise DataError(f"{what} line {lineno}: non-numeric {field} {raw!r}") from None
    if kind is float and not math.isfinite(value):
        raise DataError(f"{what} line {lineno}: non-finite {field} {raw!r}")
    return value


def require_new(line_of: dict, key: Hashable, lineno: int, what: str, noun: str,
                verb: str = "given") -> None:
    """Record key's first line in line_of; a repeated key is a DataError naming both lines."""
    first = line_of.setdefault(key, lineno)
    if first != lineno:
        raise DataError(f"{what} line {lineno}: {noun} {key!r} already {verb} on line {first}")


def parse_corpus(lines: Iterable[str]) -> list[Document]:
    """Parse corpus.jsonl lines; each doc_id may appear once."""
    line_of: dict[str, int] = {}
    docs: list[Document] = []
    for lineno, doc in json_records(lines, "corpus", lambda o: Document(o["doc_id"], o["text"])):
        require_new(line_of, doc.doc_id, lineno, "corpus", "doc_id")
        docs.append(doc)
    return docs


def write_corpus(docs: Iterable[Document]) -> str:
    return "".join(
        json.dumps({"doc_id": d.doc_id, "text": d.text}, ensure_ascii=False) + "\n" for d in docs
    )


def parse_queries(lines: Iterable[str]) -> list[Query]:
    """Parse queries.tsv lines into Query values; each query_id may appear once."""
    line_of: dict[str, int] = {}
    queries: list[Query] = []
    for lineno, (query_id, text, kind) in records(lines, "queries", 3):
        require_new(line_of, query_id, lineno, "queries", "query")
        try:
            queries.append(Query(query_id=query_id, text=text, kind=QueryKind(kind)))
        except ValueError:
            raise DataError(f"queries line {lineno}: unknown kind {kind!r}") from None
    return queries


def write_queries(queries: Iterable[Query]) -> str:
    return "".join(f"{q.query_id}\t{q.text}\t{q.kind.value}\n" for q in queries)


def read_run(lines: Iterable[str]) -> Run:
    """Parse a TREC run file into ranked lists; ranks must be 1..n per query,
    and validate_run's per-query invariants hold."""
    ranked: dict[str, list[tuple[int, ScoredDoc]]] = {}
    for lineno, (qid, _q0, docid, rank, score, _tag) in records(lines, "run", 6, sep=None):
        ranked.setdefault(qid, []).append((
            number(rank, "run", lineno, "rank", int),
            ScoredDoc(docid, number(score, "run", lineno, "score"))))
    run: Run = {}
    for qid, entries in ranked.items():
        entries.sort(key=lambda e: e[0])
        if [rank for rank, _ in entries] != list(range(1, len(entries) + 1)):
            raise DataError(f"query {qid}: ranks are not 1..{len(entries)} without gaps")
        run[qid] = [doc for _, doc in entries]
    validate_run(run)
    return run


def write_run(run: Run, tag: str) -> str:
    """Serialize a run in canonical form, with tag in every line's last column."""
    return "".join(
        f"{qid} Q0 {doc_id} {rank} {score:.6f} {tag}\n"
        for qid in sorted(run)
        for rank, (doc_id, score) in enumerate(run[qid], 1)
    )


def read_qrels(lines: Iterable[str]) -> Qrels:
    """Parse TREC qrels; duplicate pairs and negative grades are rejected."""
    qrels: Qrels = {}
    for lineno, (qid, _iter, docid, rel) in records(lines, "qrels", 4, sep=None):
        grade = number(rel, "qrels", lineno, "relevance", int)
        if grade < 0:
            raise DataError(f"qrels line {lineno}: negative relevance grade {grade}")
        if (qid, docid) in qrels:
            raise DataError(f"qrels line {lineno}: duplicate pair ({qid}, {docid})")
        qrels[(qid, docid)] = grade
    return qrels


def write_qrels(qrels: Qrels) -> str:
    return "".join(f"{qid} 0 {docid} {rel}\n" for (qid, docid), rel in sorted(qrels.items()))


def _example_to_obj(ex: DistilledExample) -> dict:
    return {
        "query_id": ex.query_id,
        "query_text": ex.query_text,
        "kind": ex.kind.value,
        "source_retriever": ex.source_retriever.value,
        "doc_ids": list(ex.doc_ids),
        "llm_ranking": list(ex.llm_ranking),
        "raw_response": ex.raw_response,
        "repaired": ex.repaired,
    }


def _example_from_obj(obj: dict) -> DistilledExample:
    return DistilledExample(
        query_id=obj["query_id"],
        query_text=obj["query_text"],
        kind=QueryKind(obj["kind"]),
        source_retriever=Source(obj["source_retriever"]),
        doc_ids=tuple(obj["doc_ids"]),
        llm_ranking=tuple(obj["llm_ranking"]),
        raw_response=obj.get("raw_response", ""),
        repaired=bool(obj.get("repaired", False)),
    )


def write_distilled(examples: Iterable[DistilledExample]) -> str:
    return "".join(
        json.dumps(_example_to_obj(ex), ensure_ascii=False) + "\n" for ex in examples
    )


def read_distilled(lines: Iterable[str]) -> list[DistilledExample]:
    """Parse distilled.jsonl; rankings that are not permutations are rejected."""
    line_of: dict[str, int] = {}
    examples: list[DistilledExample] = []
    for lineno, ex in json_records(lines, "distilled", _example_from_obj):
        require_new(line_of, ex.query_id, lineno, "distilled", "query")
        examples.append(ex)
    return examples


def load_corpus(path: str | Path) -> list[Document]:
    return parse_corpus(lines_of(path))


def load_queries(path: str | Path) -> list[Query]:
    return parse_queries(lines_of(path))


def load_run(path: str | Path) -> Run:
    return read_run(lines_of(path))


def load_qrels(path: str | Path) -> Qrels:
    return read_qrels(lines_of(path))


def load_distilled(path: str | Path) -> list[DistilledExample]:
    return read_distilled(lines_of(path))


def save_text(path: str | Path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")

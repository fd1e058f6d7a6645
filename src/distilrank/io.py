"""Codecs for the pipeline's files.

Every line-oriented reader has one shape: a single loop over
``enumerate(lines, 1)`` that skips a blank line (empty or whitespace only),
splits the line, and converts and checks its fields inline. A JSON line is
parsed with ``json.loads``; a TSV line is split on tabs after its newline is
stripped, so a field may hold spaces; a TREC line is split on any
whitespace. A reader reads ``lines`` once, keeping what a later error must
name (such as the first line of each key), so it takes a one-shot iterator
such as ``lines_of(path)`` as well as a list.

Every message a reader raises is worded once, by the functions below. They
run only when a line is rejected, and each DataError names the kind of file
and the line:

  wrong_columns() a line with the wrong number of fields
  malformed()     a JSON line that does not parse, lacks a field or holds a
                  value of the wrong type (RECORD_ERRORS are the exceptions
                  turned into it)
  bad_number()    a field that is not a number, or a number that is not finite
  repeated()      a key given before, with the line of its first appearance

Formats read here (README "Input files" lists every line format):
  corpus.jsonl    {"doc_id": ..., "text": ...} per line, both strings; doc_id
                  unique, an id (types.is_id: it fits one field of a run line)
  queries.tsv     query_id<TAB>text<TAB>kind, kind in {cropped, generated};
                  query_id unique, an id
  run files       TREC 6-column: qid Q0 docid rank score tag; per query, ranks
                  1..n, each docid once, finite non-increasing scores. The
                  tag is not kept: write_run takes it from the command that
                  writes the run
  qrels           TREC 4-column: qid 0 docid rel; each (qid, docid) once, with
                  a non-negative integer rel (a repeat names the pair, not its
                  first line, so the parse keeps no line map); read into
                  Qrels, held per query
  per-pair numbers qid<TAB>docid<TAB> then one finite number per named column
                  (the MonoT5 score map, external logits); each (qid, docid)
                  once. read_pair_numbers reads both into {qid: {docid:
                  value}}, keeping only each query's pair line numbers, in
                  read order
  query values    query_id<TAB>value, each query_id once: per-query values
                  (a finite number; `eval ndcg --per-query` writes them,
                  `eval ttest` reads them) and the source assignment (a
                  Source name). read_per_query and parse_assignment share one
                  loop and differ only in how they convert the value
  generated pool  doc_id<TAB>query_text; a doc_id may have many queries
  distilled.jsonl one JSON object per line with all DistilledExample fields;
                  query_id, query_text and raw_response strings, doc_ids a
                  list of strings (each once), llm_ranking a list of
                  integers, repaired a boolean; query_id unique

Every output file is written through ``replacing``: a new file beside the
target, moved over it only once the whole output is in it, so a write that
fails or is killed leaves the target as it was.

Canonical run text uses a single space separator, %.6f scores, and queries
sorted by query_id, so write_run(read_run(x), tag) == x byte-for-byte when
every line of x carries that tag.
"""

from __future__ import annotations

import json
import os
from array import array
from contextlib import contextmanager
from math import isfinite, nan
from pathlib import Path
from typing import IO, Any, Callable, Hashable, Iterable, Iterator

from .errors import DataError
from .types import (
    DistilledExample,
    Document,
    Qrels,
    Query,
    QueryKind,
    Run,
    ScoredDoc,
    Source,
    not_a_string,
    validate_run,
)

# the exceptions a JSON record's parse or build raises for a malformed line
RECORD_ERRORS = (KeyError, TypeError, ValueError, DataError)

# the first bytes of a zip archive: of the .npz files retrieval.save_index and
# scorer.save_checkpoint write, and of no file in an older layout of either
NPZ_MAGIC = b"PK\x03\x04"


def npz_member(archive: Any, name: str, kind: str, ndim: int, itemsize: int = 0) -> Any:
    """The member ``name`` of an open ``.npz`` archive, refused with a ValueError
    unless it has ``ndim`` dimensions and a dtype of ``kind`` (and of
    ``itemsize`` bytes, when given). Nothing is converted, so this module
    needs no numpy: it reads only ``ndim`` and ``dtype``."""
    value = archive[name]
    dtype = value.dtype
    if value.ndim != ndim or dtype.kind != kind or itemsize and dtype.itemsize != itemsize:
        size = f" of {itemsize} bytes" if itemsize else ""
        raise ValueError(f"{name} must be a {ndim}-d array of dtype kind {kind!r}{size}, "
                         f"got {dtype} of shape {value.shape}")
    return value


@contextmanager
def replacing(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """A handle on a new file in ``path``'s directory, moved over ``path`` with
    ``os.replace`` when the block ends without error; on any error the new
    file is removed and ``path`` keeps what it held. Mode ``"w"`` writes UTF-8
    text, ``"wb"`` bytes. The file is created as ``open`` creates one, with
    mode 0o666 less the umask."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the output, not the new file beside it
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with open(fd, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def lines_of(path: str | Path) -> Iterator[str]:
    """The lines of a UTF-8 text file, read as they are consumed."""
    with open(path, encoding="utf-8") as f:
        yield from f


def wrong_columns(what: str, lineno: int, n_fields: int, fields: list[str]) -> DataError:
    return DataError(f"{what} line {lineno}: expected {n_fields} columns, got {len(fields)}")


def malformed(what: str, lineno: int, reason: object) -> DataError:
    return DataError(f"{what} line {lineno}: malformed record ({reason})")


def bad_number(what: str, lineno: int, field: str, raw: str, kind: type = float) -> DataError:
    """The error for a field that does not parse as ``kind``, or parses as a
    float that is not finite."""
    try:
        kind(raw)
    except ValueError:
        return DataError(f"{what} line {lineno}: non-numeric {field} {raw!r}")
    return DataError(f"{what} line {lineno}: non-finite {field} {raw!r}")


def repeated(what: str, lineno: int, noun: str, key: Hashable, first: int,
             verb: str = "given") -> DataError:
    return DataError(f"{what} line {lineno}: {noun} {key!r} already {verb} on line {first}")


def parse_corpus(lines: Iterable[str]) -> list[Document]:
    """Parse corpus.jsonl lines; each doc_id may appear once."""
    line_of: dict[str, int] = {}
    docs: list[Document] = []
    for lineno, line in enumerate(lines, 1):
        if line.isspace() or not line:
            continue
        try:
            obj = json.loads(line)
            doc = Document(obj["doc_id"], obj["text"])
        except RECORD_ERRORS as exc:
            raise malformed("corpus", lineno, exc) from exc
        first = line_of.setdefault(doc.doc_id, lineno)
        if first != lineno:
            raise repeated("corpus", lineno, "doc_id", doc.doc_id, first)
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
    for lineno, line in enumerate(lines, 1):
        if line.isspace() or not line:
            continue
        fields = line.rstrip("\n").split("\t")
        try:
            query_id, text, kind = fields
        except ValueError:
            raise wrong_columns("queries", lineno, 3, fields) from None
        first = line_of.setdefault(query_id, lineno)
        if first != lineno:
            raise repeated("queries", lineno, "query", query_id, first)
        try:
            queries.append(Query(query_id=query_id, text=text, kind=QueryKind(kind)))
        except ValueError:
            raise DataError(f"queries line {lineno}: unknown kind {kind!r}") from None
        except DataError as exc:
            raise DataError(f"queries line {lineno}: {exc}") from None
    return queries


def write_queries(queries: Iterable[Query]) -> str:
    return "".join(f"{q.query_id}\t{q.text}\t{q.kind.value}\n" for q in queries)


def read_run(lines: Iterable[str]) -> Run:
    """Parse a TREC run file into ranked lists; ranks must be 1..n per query,
    and validate_run's per-query invariants hold."""
    ranked: dict[str, list[tuple[int, ScoredDoc]]] = {}
    for lineno, line in enumerate(lines, 1):
        if line.isspace() or not line:
            continue
        fields = line.split()
        try:
            qid, _q0, docid, raw_rank, raw_score, _tag = fields
        except ValueError:
            raise wrong_columns("run", lineno, 6, fields) from None
        try:
            rank = int(raw_rank)
        except ValueError:
            raise bad_number("run", lineno, "rank", raw_rank, int) from None
        try:
            score = float(raw_score)
        except ValueError:
            score = nan
        if not isfinite(score):
            raise bad_number("run", lineno, "score", raw_score)
        ranked.setdefault(qid, []).append((rank, ScoredDoc(docid, score)))
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
    by_query: dict[str, dict[str, int]] = {}
    for lineno, line in enumerate(lines, 1):
        if line.isspace() or not line:
            continue
        fields = line.split()
        try:
            qid, _iter, docid, rel = fields
        except ValueError:
            raise wrong_columns("qrels", lineno, 4, fields) from None
        try:
            grade = int(rel)
        except ValueError:
            raise bad_number("qrels", lineno, "relevance", rel, int) from None
        if grade < 0:
            raise DataError(f"qrels line {lineno}: negative relevance grade {grade}")
        grades = by_query.get(qid)
        if grades is None:
            grades = by_query[qid] = {}
        elif docid in grades:
            raise DataError(f"qrels line {lineno}: duplicate pair ({qid}, {docid})")
        grades[docid] = grade
    return Qrels(by_query)


def read_pair_numbers(lines: Iterable[str], what: str, columns: tuple[str, ...]) -> dict:
    """``{qid: {docid: value}}`` of TSV lines ``qid<TAB>docid<TAB>`` and one finite
    number per name in ``columns``: the number for one column, a tuple for more.
    Each pair once; a repeat finds its first line by its position in the query's dict."""
    by_query: dict[str, dict] = {}
    linenos_of: dict[str, array] = {}
    n_fields = 2 + len(columns)
    qid_now = None  # a file groups its lines by query, so each line reuses the last lookup
    for lineno, line in enumerate(lines, 1):
        if line.isspace() or not line:
            continue
        fields = line.rstrip("\n").split("\t")
        if len(fields) != n_fields:
            raise wrong_columns(what, lineno, n_fields, fields)
        qid, docid, raw = fields[0], fields[1], fields[2]
        if qid != qid_now:
            qid_now, pairs = qid, by_query.get(qid)
            if pairs is None:
                pairs = by_query[qid] = {}
                linenos_of[qid] = array("q")
            linenos = linenos_of[qid]
        if docid in pairs:
            raise repeated(what, lineno, "pair", (qid, docid), linenos[list(pairs).index(docid)])
        try:  # the first column inline, off the loop over any further ones
            value = float(raw)
        except ValueError:
            value = nan
        if not isfinite(value):
            raise bad_number(what, lineno, columns[0], raw)
        if n_fields > 3:
            value = (value,)
            for column, raw in zip(columns[1:], fields[3:]):
                try:
                    number = float(raw)
                except ValueError:
                    number = nan
                if not isfinite(number):
                    raise bad_number(what, lineno, column, raw)
                value += (number,)
        pairs[docid] = value
        linenos.append(lineno)
    return by_query


def _read_query_values(lines: Iterable[str], what: str, verb: str,
                       convert: Callable[[str, int], object]) -> dict:
    """``{query_id: convert(raw, lineno)}`` of TSV lines ``query_id<TAB>raw``;
    each query once, a repeat worded with ``verb``."""
    values: dict = {}
    line_of: dict[str, int] = {}
    for lineno, line in enumerate(lines, 1):
        if line.isspace() or not line:
            continue
        fields = line.rstrip("\n").split("\t")
        try:
            query_id, raw = fields
        except ValueError:
            raise wrong_columns(what, lineno, 2, fields) from None
        first = line_of.setdefault(query_id, lineno)
        if first != lineno:
            raise repeated(what, lineno, "query", query_id, first, verb)
        values[query_id] = convert(raw, lineno)
    return values


def read_per_query(lines: Iterable[str], what: str) -> dict[str, float]:
    """Per-query values ``query_id<TAB>value``, each a finite number; errors
    name the file as ``what``."""
    def number(raw: str, lineno: int) -> float:
        try:
            value = float(raw)
        except ValueError:
            value = nan
        if not isfinite(value):
            raise bad_number(what, lineno, "value", raw)
        return value
    return _read_query_values(lines, what, "given", number)


def write_per_query(values: dict[str, float]) -> str:
    return "".join(f"{qid}\t{v:.6f}\n" for qid, v in sorted(values.items()))


def _source(raw: str, lineno: int) -> Source:
    try:
        return Source(raw)
    except ValueError:
        raise DataError(f"assignment line {lineno}: unknown source {raw!r}") from None


def parse_assignment(lines: Iterable[str]) -> dict[str, Source]:
    """Parse query_id<TAB>source lines; each query may be assigned once."""
    return _read_query_values(lines, "assignment", "assigned", _source)


def write_assignment(assignment: dict[str, Source]) -> str:
    return "".join(f"{qid}\t{src.value}\n" for qid, src in sorted(assignment.items()))


def parse_generated_pool(lines: Iterable[str]) -> list[tuple[str, str]]:
    """Parse a generated-query pool: TSV doc_id<TAB>query_text, one query per line."""
    pool: list[tuple[str, str]] = []
    for lineno, line in enumerate(lines, 1):
        if line.isspace() or not line:
            continue
        fields = line.rstrip("\n").split("\t")
        try:
            doc_id, text = fields
        except ValueError:
            raise wrong_columns("generated pool", lineno, 2, fields) from None
        pool.append((doc_id, text))
    return pool


def write_generated_pool(pool: Iterable[tuple[str, str]]) -> str:
    return "".join(f"{doc_id}\t{text}\n" for doc_id, text in pool)


def write_qrels(qrels: Qrels) -> str:
    """Serialize qrels sorted by query_id, then by doc_id within a query."""
    return "".join(
        f"{qid} 0 {docid} {rel}\n"
        for qid in sorted(qrels.by_query)
        for docid, rel in sorted(qrels.by_query[qid].items())
    )


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
    """The example of one distilled or journal JSON object; a field of the
    wrong type is a TypeError."""
    query_id, query_text, doc_ids = obj["query_id"], obj["query_text"], obj["doc_ids"]
    if not isinstance(query_id, str):
        raise not_a_string("query_id", query_id)
    if not isinstance(query_text, str):
        raise not_a_string("query_text", query_text)
    if type(doc_ids) is not list or not set(map(type, doc_ids)) <= {str}:
        raise TypeError(f"doc_ids {doc_ids!r} is not a list of strings")
    ranking, raw_response = obj["llm_ranking"], obj.get("raw_response", "")
    repaired = obj.get("repaired", False)
    # type() rather than isinstance(): a JSON true is a bool, and bool is an int
    if type(ranking) is not list or not set(map(type, ranking)) <= {int}:
        raise TypeError(f"llm_ranking {ranking!r} is not a list of integers")
    if not isinstance(raw_response, str):
        raise not_a_string("raw_response", raw_response)
    if type(repaired) is not bool:
        raise TypeError(f"repaired {repaired!r} is not a boolean")
    return DistilledExample(
        query_id=query_id,
        query_text=query_text,
        kind=QueryKind(obj["kind"]),
        source_retriever=Source(obj["source_retriever"]),
        doc_ids=tuple(doc_ids),
        llm_ranking=tuple(ranking),
        raw_response=raw_response,
        repaired=repaired,
    )


def write_distilled(examples: Iterable[DistilledExample]) -> str:
    return "".join(
        json.dumps(_example_to_obj(ex), ensure_ascii=False) + "\n" for ex in examples
    )


def read_distilled(lines: Iterable[str]) -> list[DistilledExample]:
    """Parse distilled.jsonl; rankings that are not permutations are rejected."""
    line_of: dict[str, int] = {}
    examples: list[DistilledExample] = []
    for lineno, line in enumerate(lines, 1):
        if line.isspace() or not line:
            continue
        try:
            ex = _example_from_obj(json.loads(line))
        except RECORD_ERRORS as exc:
            raise malformed("distilled", lineno, exc) from exc
        first = line_of.setdefault(ex.query_id, lineno)
        if first != lineno:
            raise repeated("distilled", lineno, "query", ex.query_id, first)
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
    with replacing(path) as f:
        f.write(text)

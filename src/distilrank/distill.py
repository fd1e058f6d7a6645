"""Second-stage distillation: permutation prompts, response parsing and
repair, sliding-window reranking, the resumable labeling loop, and a
deterministic qrels-backed mock teacher for offline runs.

Journal format: one line per completed query, ``<sha256[:12]><TAB><json>``.
A torn final line (the usual result of killing a run mid-write) is dropped
with a warning, and cut from the file before the resumed run appends to it;
a bad checksum anywhere else aborts, since that means real corruption rather
than an interrupted append.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .errors import BudgetError, DataError, JournalError
from .io import RECORD_ERRORS, _example_from_obj, _example_to_obj, malformed
from .llm import LlmClient, Message
from .types import DistilledExample, Qrels, Query, Source

logger = logging.getLogger(__name__)

_INT_RE = re.compile(r"\d+")

# An llm callable maps (query, [(doc_id, text), ...]) to the teacher's reply text.
LlmFn = Callable[[Query, Sequence[tuple[str, str]]], str]
# A retrieve callable maps a query to (source label, [(doc_id, text), ...]).
RetrieveFn = Callable[[Query], tuple[Source, list[tuple[str, str]]]]


@dataclass(frozen=True)
class PromptTemplate:
    system: str
    preamble: str  # uses {m}
    passage_line: str  # uses {index}, {passage}
    postamble: str  # uses {m}, {query}

    def __post_init__(self) -> None:
        for text, placeholders in [
            (self.preamble, ["{m}"]),
            (self.passage_line, ["{index}", "{passage}"]),
            (self.postamble, ["{m}", "{query}"]),
        ]:
            for ph in placeholders:
                if ph not in text:
                    raise DataError(f"template section missing placeholder {ph}")


DEFAULT_TEMPLATE = PromptTemplate(
    system="You are a helpful assistant that ranks passages by their relevance to a search query.",
    preamble=(
        "I will provide you with {m} passages, each labeled with a numeric identifier "
        "in square brackets. Rank the passages by their relevance to the query.\n\n"
    ),
    passage_line="[{index}] {passage}\n",
    postamble=(
        "\nSearch query: {query}\n"
        "Rank the {m} passages above. Answer with the identifiers in descending order "
        "of relevance, formatted like [2] > [1] > [3]. Output the ranking only."
    ),
)


def load_template(path: str | Path) -> PromptTemplate:
    """Load a prompt template from a JSON file with the four section keys."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        return PromptTemplate(
            system=obj["system"],
            preamble=obj["preamble"],
            passage_line=obj["passage_line"],
            postamble=obj["postamble"],
        )
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise DataError(f"cannot load prompt template {path}: {exc}") from exc


def truncate_words(text: str, budget: int) -> str:
    if budget < 1:
        raise ValueError(f"passage word budget must be >= 1, got {budget}")
    words = text.split()
    if len(words) <= budget:
        return text
    return " ".join(words[:budget])


def build_prompt(
    query_text: str,
    passages: Sequence[str],
    template: PromptTemplate = DEFAULT_TEMPLATE,
    passage_word_budget: int = 120,
) -> list[Message]:
    """System plus user message enumerating the passages as [1], [2], ... in order."""
    if not passages:
        raise DataError("cannot build a ranking prompt with no passages")
    m = str(len(passages))
    parts = [template.preamble.replace("{m}", m)]
    for index, passage in enumerate(passages, 1):
        snippet = truncate_words(passage, passage_word_budget)
        parts.append(
            template.passage_line.replace("{index}", str(index)).replace("{passage}", snippet)
        )
    parts.append(template.postamble.replace("{m}", m).replace("{query}", query_text))
    return [
        {"role": "system", "content": template.system},
        {"role": "user", "content": "".join(parts)},
    ]


def order_from_ranks(ranks: Sequence[int]) -> list[int]:
    """Invert per-document ranks into the relevance order (best index first, 1-based)."""
    order = [0] * len(ranks)
    for index, rank in enumerate(ranks, 1):
        order[rank - 1] = index
    return order


def ranks_from_order(order: Sequence[int]) -> list[int]:
    """Invert a relevance order back into per-document ranks (1-based both ways)."""
    ranks = [0] * len(order)
    for position, index in enumerate(order, 1):
        ranks[index - 1] = position
    return ranks


def format_order(order: Sequence[int]) -> str:
    return " > ".join(f"[{i}]" for i in order)


def parse_permutation(text: str, m: int) -> tuple[list[int], bool]:
    """Parse the teacher's reply into per-document ranks over 1..m.

    Integers are read in textual order; out-of-range values and duplicates are
    dropped, missing indices are appended in ascending order, and a reply with
    no usable integer yields the identity. The repaired flag reports whether
    any of that was needed, so the function is total.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    order: list[int] = []
    seen: set[int] = set()
    repaired = False
    for chunk in _INT_RE.findall(text):
        value = int(chunk)
        if not 1 <= value <= m or value in seen:
            repaired = True
            continue
        seen.add(value)
        order.append(value)
    if len(order) < m:
        repaired = True
        order.extend(i for i in range(1, m + 1) if i not in seen)
    return ranks_from_order(order), repaired


@dataclass(frozen=True)
class WindowPlan:
    window: int = 30
    step: int = 30

    def __post_init__(self) -> None:
        if not 1 <= self.step <= self.window:
            raise ValueError(f"need 1 <= step <= window, got step={self.step}, window={self.window}")


@dataclass(frozen=True)
class WindowResult:
    ranks: tuple[int, ...]
    raw_response: str
    repaired: bool
    n_calls: int


def window_rerank(
    query: Query,
    passages: Sequence[tuple[str, str]],
    llm: LlmFn,
    plan: WindowPlan = WindowPlan(),
) -> WindowResult:
    """Rerank with the teacher, sliding the window from the bottom of the list
    upward; a window covering the whole list means exactly one call."""
    m = len(passages)
    if m == 0:
        raise DataError("cannot window-rerank an empty passage list")
    w = min(plan.window, m)
    order = list(range(m))  # order[position] = original index, best first
    responses: list[str] = []
    repaired = False
    start = m - w
    while True:
        window_passages = [passages[order[p]] for p in range(start, start + w)]
        text = llm(query, window_passages)
        responses.append(text)
        ranks_w, rep = parse_permutation(text, w)
        repaired = repaired or rep
        reordered = [order[start + wi - 1] for wi in order_from_ranks(ranks_w)]
        order[start: start + w] = reordered
        if start == 0:
            break
        start = max(0, start - plan.step)
    ranks = ranks_from_order([i + 1 for i in order])
    return WindowResult(tuple(ranks), "\n".join(responses), repaired, len(responses))


def mock_llm(qrels: Qrels) -> LlmFn:
    """Oracle teacher: orders indices by descending relevance grade, ties by
    input position, and always answers in well-formed bracket notation."""

    def fn(query: Query, passages: Sequence[tuple[str, str]]) -> str:
        judged = qrels.by_query.get(query.query_id, {})
        grades = [judged.get(doc_id, 0) for doc_id, _text in passages]
        order = sorted(range(1, len(passages) + 1), key=lambda i: (-grades[i - 1], i))
        return format_order(order)

    return fn


def api_llm(
    client: LlmClient,
    template: PromptTemplate = DEFAULT_TEMPLATE,
    passage_word_budget: int = 120,
) -> LlmFn:
    """Teacher backed by the chat-completions client."""

    def fn(query: Query, passages: Sequence[tuple[str, str]]) -> str:
        messages = build_prompt(
            query.text, [text for _doc_id, text in passages], template, passage_word_budget
        )
        return client.call(messages, completion_entries=len(passages))

    return fn


def _journal_line(example: DistilledExample) -> str:
    payload = json.dumps(_example_to_obj(example), ensure_ascii=False)
    checksum = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]
    return f"{checksum}\t{payload}\n"


def read_journal(path: str | Path) -> dict[str, DistilledExample]:
    """Load completed examples from a journal, tolerating one torn final line,
    and ready the file for appends: the torn line is cut from it, and a whole
    final line that lacks its newline gets one. The file is read once."""
    completed: dict[str, DistilledExample] = {}
    with open(path, "rb+") as f:
        raw = f.read()
        lines = raw.split(b"\n")
        if lines[-1] == b"":
            lines.pop()
        torn = False
        for i, line in enumerate(lines):
            checksum, sep, payload = line.partition(b"\t")
            if sep and hashlib.sha256(payload).hexdigest()[:12].encode("ascii") == checksum:
                text = payload.decode("utf-8")
                try:
                    example = _example_from_obj(json.loads(text))
                except RECORD_ERRORS as exc:
                    raise malformed("journal", i + 1, exc) from exc
                completed.setdefault(example.query_id, example)
            elif i == len(lines) - 1 and not raw.endswith(b"\n"):
                logger.warning("dropping torn final journal line %d", i + 1)
                torn = True
            else:
                raise JournalError(f"journal line {i + 1} fails its checksum")
        if raw and not raw.endswith(b"\n"):
            if torn:
                f.truncate(raw.rfind(b"\n") + 1)
            else:
                f.write(b"\n")
    return completed


@dataclass
class DistillResult:
    examples: list[DistilledExample]  # sorted by query_id
    failures: list[tuple[str, str]]  # (query_id, error message)
    n_labeled: int  # newly labeled in this run (excludes journal resumes)


def distill(
    queries: Sequence[Query],
    retrieve: RetrieveFn,
    llm: LlmFn,
    journal_path: str | Path | None = None,
    plan: WindowPlan = WindowPlan(),
    max_in_flight: int = 1,
    completed: Mapping[str, DistilledExample] | None = None,
) -> DistillResult:
    """Label every query's pooled documents with the teacher, resumably.

    Completed queries found in the journal are skipped; new completions are
    appended as they finish. ``completed`` hands over the examples the caller
    has already read with ``read_journal(journal_path)``, and the file is then
    not read again. Per-query failures are recorded and skipped; only budget
    exhaustion or journal corruption aborts the run, and the answers of the
    queries still running then are journaled first.
    """
    if completed is None:
        journaled = journal_path is not None and Path(journal_path).exists()
        completed = read_journal(journal_path) if journaled else {}
    completed = dict(completed)
    requested = {q.query_id for q in queries}
    pending = [q for q in queries if q.query_id not in completed]
    failures: list[tuple[str, str]] = []
    n_labeled = 0

    def label(query: Query) -> DistilledExample:
        source, docs = retrieve(query)
        if not docs:
            raise DataError(f"retriever returned no documents for query {query.query_id}")
        result = window_rerank(query, docs, llm, plan)
        return DistilledExample(
            query_id=query.query_id,
            query_text=query.text,
            kind=query.kind,
            source_retriever=source,
            doc_ids=tuple(doc_id for doc_id, _text in docs),
            llm_ranking=result.ranks,
            raw_response=result.raw_response,
            repaired=result.repaired,
        )

    def record(example: DistilledExample) -> None:
        nonlocal n_labeled
        completed[example.query_id] = example
        n_labeled += 1
        if journal_path is not None:
            with open(journal_path, "a", encoding="utf-8") as f:
                f.write(_journal_line(example))

    executor = ThreadPoolExecutor(max_workers=max_in_flight)
    try:
        futures = {executor.submit(label, q): q for q in pending}
        unread = dict.fromkeys(futures)  # in submission order
        for fut in as_completed(futures):
            del unread[fut]
            query = futures[fut]
            try:
                example = fut.result()
            except (BudgetError, JournalError):
                # the calls already running are paid for: keep their answers, start no more
                executor.shutdown(wait=True, cancel_futures=True)
                for other in unread:
                    if not other.cancelled() and other.exception() is None:
                        record(other.result())
                raise
            except Exception as exc:  # noqa: BLE001 - per-query failures are recorded
                logger.warning("query %s failed: %s", query.query_id, exc)
                failures.append((query.query_id, str(exc)))
                continue
            record(example)
    finally:
        executor.shutdown(wait=False, cancel_futures=True)

    examples = sorted(
        (ex for ex in completed.values() if ex.query_id in requested),
        key=lambda ex: ex.query_id,
    )
    return DistillResult(examples=examples, failures=failures, n_labeled=n_labeled)

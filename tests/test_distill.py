import builtins
import hashlib
import io
import json
import os
import threading
import time
from pathlib import Path

import pytest

from distilrank.distill import (
    DEFAULT_TEMPLATE,
    PromptTemplate,
    WindowPlan,
    build_prompt,
    distill,
    format_order,
    load_template,
    mock_llm,
    order_from_ranks,
    parse_permutation,
    ranks_from_order,
    read_journal,
    truncate_words,
    window_rerank,
)
from distilrank.errors import BudgetError, DataError, JournalError
from distilrank.types import Qrels, Query, QueryKind, Source


QUERY = Query("q1", "which fruit is a berry", QueryKind.GENERATED)


def passages(n):
    return [(f"d{i}", f"passage body number {i}") for i in range(n)]


class TestBuildPrompt:
    def test_enumeration_order(self):
        messages = build_prompt("my query", ["first text", "second text"])
        assert messages[0]["role"] == "system"
        user = messages[1]["content"]
        assert user.index("[1]") < user.index("[2]")
        assert "my query" in user

    def test_all_placeholders_substituted(self):
        messages = build_prompt("q", ["a", "b", "c"])
        assert "{" not in messages[0]["content"]
        assert "{" not in messages[1]["content"]

    def test_empty_passages_rejected(self):
        with pytest.raises(DataError):
            build_prompt("q", [])

    def test_passage_word_budget(self):
        long_text = " ".join(f"w{i}" for i in range(500))
        messages = build_prompt("q", [long_text], passage_word_budget=120)
        assert "w119" in messages[1]["content"]
        assert "w120" not in messages[1]["content"]

    @pytest.mark.parametrize("budget", [0, -3])
    def test_word_budget_below_one_rejected(self, budget):
        # a negative budget used to drop the last words, and 0 to send empty passages
        with pytest.raises(ValueError, match=f"must be >= 1, got {budget}"):
            truncate_words("one two three four five", budget)
        with pytest.raises(ValueError, match=f"must be >= 1, got {budget}"):
            build_prompt("q", ["one two three"], passage_word_budget=budget)

    def test_word_budget_of_one_keeps_one_word(self):
        assert truncate_words("one two three", 1) == "one"
        assert truncate_words("one  two", 2) == "one  two"

    def test_template_missing_placeholder_rejected(self):
        with pytest.raises(DataError):
            PromptTemplate(system="s", preamble="no placeholder", passage_line="[{index}] {passage}",
                           postamble="{m} {query}")

    def test_template_file_round_trip(self, tmp_path):
        import json

        path = tmp_path / "template.json"
        path.write_text(json.dumps({
            "system": DEFAULT_TEMPLATE.system,
            "preamble": DEFAULT_TEMPLATE.preamble,
            "passage_line": DEFAULT_TEMPLATE.passage_line,
            "postamble": DEFAULT_TEMPLATE.postamble,
        }))
        assert load_template(path) == DEFAULT_TEMPLATE


class TestParsePermutation:
    def test_clean_response(self):
        ranks, repaired = parse_permutation("[2] > [1] > [3]", 3)
        assert order_from_ranks(ranks) == [2, 1, 3]
        assert ranks == [2, 1, 3]  # this permutation is its own inverse
        assert not repaired

    def test_duplicate_and_missing(self):
        ranks, repaired = parse_permutation("[3] > [3] > [1]", 3)
        assert order_from_ranks(ranks) == [3, 1, 2]
        assert ranks == [2, 3, 1]
        assert repaired

    def test_prose_only_falls_back_to_identity(self):
        ranks, repaired = parse_permutation("I cannot rank these.", 3)
        assert ranks == [1, 2, 3]
        assert repaired

    def test_bare_integers(self):
        ranks, repaired = parse_permutation("2, 1, 3", 3)
        assert order_from_ranks(ranks) == [2, 1, 3]
        assert not repaired

    def test_out_of_range_dropped(self):
        ranks, repaired = parse_permutation("[9] > [2] > [1] > [3]", 3)
        assert order_from_ranks(ranks) == [2, 1, 3]
        assert repaired

    def test_reparse_of_serialized_output_is_fixed_point(self):
        for text in ["[3] > [3] > [1]", "junk 99", "7 7 7", "2 then 1", ""]:
            ranks, _ = parse_permutation(text, 4)
            again, repaired = parse_permutation(format_order(order_from_ranks(ranks)), 4)
            assert again == ranks
            assert not repaired

    def test_ranks_order_inverses(self):
        order = [4, 2, 1, 3]
        assert order_from_ranks(ranks_from_order(order)) == order


class TestWindowRerank:
    def test_single_window_single_call(self):
        calls = []

        def llm(query, window):
            calls.append(len(window))
            return format_order(list(range(len(window), 0, -1)))

        result = window_rerank(QUERY, passages(30), llm, WindowPlan(30, 30))
        assert calls == [30]
        assert result.n_calls == 1
        # reversal: document i gets rank 30 - i
        assert result.ranks == tuple(30 - i for i in range(30))

    def test_sliding_bottom_up(self):
        seen = []

        def llm(query, window):
            seen.append([doc_id for doc_id, _ in window])
            return format_order(list(range(1, len(window) + 1)))  # identity

        result = window_rerank(QUERY, passages(3), llm, WindowPlan(2, 1))
        assert result.n_calls == 2
        assert seen[0] == ["d1", "d2"]  # bottom window first
        assert seen[1] == ["d0", "d1"]

    def test_identity_responder_preserves_order(self):
        def llm(query, window):
            return format_order(list(range(1, len(window) + 1)))

        result = window_rerank(QUERY, passages(7), llm, WindowPlan(3, 2))
        assert result.ranks == tuple(range(1, 8))

    def test_sliding_bubbles_best_to_top(self):
        # teacher always puts the passage with the highest doc number first
        def llm(query, window):
            order = sorted(range(1, len(window) + 1),
                           key=lambda i: -int(window[i - 1][0][1:]))
            return format_order(order)

        result = window_rerank(QUERY, passages(6), llm, WindowPlan(3, 2))
        assert result.ranks[5] == 1  # d5 ends up ranked first overall

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            window_rerank(QUERY, [], lambda q, w: "", WindowPlan(3, 3))


class TestMockLlm:
    def test_orders_by_grade_then_position(self):
        qrels = Qrels({"q1": {"d0": 0, "d1": 3, "d2": 1}})
        llm = mock_llm(qrels)
        assert llm(QUERY, passages(3)) == "[2] > [3] > [1]"

    def test_all_equal_grades_identity(self):
        llm = mock_llm(Qrels({}))
        assert llm(QUERY, passages(3)) == "[1] > [2] > [3]"

    def test_output_parses_clean(self):
        qrels = Qrels({"q1": {f"d{i}": i % 4 for i in range(30)}})
        llm = mock_llm(qrels)
        _, repaired = parse_permutation(llm(QUERY, passages(30)), 30)
        assert not repaired


def queries(n):
    return [
        Query(f"q{i:03d}", f"query number {i}", QueryKind.CROPPED if i % 2 == 0 else QueryKind.GENERATED)
        for i in range(n)
    ]


def simple_retrieve(query):
    return Source.BM25, [(f"{query.query_id}-d{j}", f"text {j}") for j in range(4)]


def grade_llm(query, window):
    order = sorted(range(1, len(window) + 1), key=lambda i: window[i - 1][0])
    return format_order(order)


class TestDistill:
    def test_basic_run(self, tmp_path):
        result = distill(queries(6), simple_retrieve, grade_llm,
                         journal_path=tmp_path / "journal.log", plan=WindowPlan(4, 4))
        assert len(result.examples) == 6
        assert result.n_labeled == 6
        assert [ex.query_id for ex in result.examples] == sorted(ex.query_id for ex in result.examples)
        assert all(sorted(ex.llm_ranking) == [1, 2, 3, 4] for ex in result.examples)

    def test_resume_skips_completed(self, tmp_path):
        journal = tmp_path / "journal.log"
        calls = []

        def counting_llm(query, window):
            calls.append(query.query_id)
            return grade_llm(query, window)

        first = distill(queries(6)[:3], simple_retrieve, counting_llm, journal_path=journal,
                        plan=WindowPlan(4, 4))
        assert len(calls) == 3
        result = distill(queries(6), simple_retrieve, counting_llm, journal_path=journal,
                         plan=WindowPlan(4, 4))
        assert len(calls) == 6  # only the 3 new queries hit the teacher
        assert len(result.examples) == 6
        assert result.n_labeled == 3
        assert first.examples == result.examples[:3]

    def test_interrupted_run_equals_uninterrupted(self, tmp_path):
        all_queries = queries(20)
        reference = distill(all_queries, simple_retrieve, grade_llm, plan=WindowPlan(4, 4))

        journal = tmp_path / "journal.log"
        seen = []

        def killer_llm(query, window):
            if len(seen) >= 10:
                raise KeyboardInterrupt
            seen.append(query.query_id)
            return grade_llm(query, window)

        with pytest.raises(KeyboardInterrupt):
            distill(all_queries, simple_retrieve, killer_llm, journal_path=journal,
                    plan=WindowPlan(4, 4), max_in_flight=1)
        completed = read_journal(journal)
        assert len(completed) == 10

        requested = []

        def counting_llm(query, window):
            requested.append(query.query_id)
            return grade_llm(query, window)

        result = distill(all_queries, simple_retrieve, counting_llm, journal_path=journal,
                         plan=WindowPlan(4, 4), max_in_flight=1)
        assert sorted(requested) == sorted(
            q.query_id for q in all_queries if q.query_id not in completed
        )
        assert len(requested) == 10
        assert result.examples == reference.examples

    def test_budget_stop_journals_the_answers_in_flight(self, tmp_path):
        all_queries = queries(6)
        reference = distill(all_queries, simple_retrieve, grade_llm, plan=WindowPlan(4, 4))
        journal = tmp_path / "journal.log"
        stopped = threading.Event()
        answered = []

        def teacher(query, window):
            if query.query_id == "q002":
                stopped.set()
                raise BudgetError("budget exhausted")
            if query.query_id == "q001":  # still being answered when q002 hits the budget
                assert stopped.wait(5)
                time.sleep(0.2)
            answered.append(query.query_id)
            return grade_llm(query, window)

        with pytest.raises(BudgetError):
            distill(all_queries, simple_retrieve, teacher, journal_path=journal,
                    plan=WindowPlan(4, 4), max_in_flight=2)
        journaled = read_journal(journal)
        assert "q001" in answered and "q002" not in journaled
        assert sorted(journaled) == sorted(answered)  # every paid answer is kept

        asked = []

        def counting_llm(query, window):
            asked.append(query.query_id)
            return grade_llm(query, window)

        result = distill(all_queries, simple_retrieve, counting_llm, journal_path=journal,
                         plan=WindowPlan(4, 4), max_in_flight=2)
        assert sorted(asked) == sorted(q.query_id for q in all_queries
                                       if q.query_id not in journaled)
        assert result.n_labeled == len(asked)
        assert result.examples == reference.examples

    def test_concurrent_run_matches_serial(self, tmp_path):
        serial = distill(queries(12), simple_retrieve, grade_llm, plan=WindowPlan(4, 4))
        threaded = distill(queries(12), simple_retrieve, grade_llm, plan=WindowPlan(4, 4),
                           max_in_flight=4)
        assert serial.examples == threaded.examples

    def test_per_query_failure_recorded_and_skipped(self):
        def flaky_retrieve(query):
            if query.query_id == "q001":
                raise DataError("boom")
            return simple_retrieve(query)

        result = distill(queries(4), flaky_retrieve, grade_llm, plan=WindowPlan(4, 4))
        assert len(result.examples) == 3
        assert result.failures == [("q001", "boom")]

    def test_fewer_documents_than_window(self):
        def small_retrieve(query):
            return Source.BM25, [(f"{query.query_id}-d{j}", f"text {j}") for j in range(2)]

        result = distill(queries(2), small_retrieve, grade_llm, plan=WindowPlan(30, 30))
        assert all(ex.m == 2 for ex in result.examples)
        assert all(sorted(ex.llm_ranking) == [1, 2] for ex in result.examples)

    def test_mock_teacher_rankings_sort_by_grade(self):
        import random

        rng = random.Random(17)
        qrels = Qrels({
            f"q{i:03d}": {f"q{i:03d}-d{j}": rng.randint(0, 3) for j in range(4)}
            for i in range(8)
        })
        result = distill(queries(8), simple_retrieve, mock_llm(qrels), plan=WindowPlan(4, 4))
        for ex in result.examples:
            by_rank = [doc for _, doc in sorted(zip(ex.llm_ranking, ex.doc_ids))]
            grades = [qrels[(ex.query_id, doc)] for doc in by_rank]
            assert grades == sorted(grades, reverse=True)
            assert not ex.repaired


class TestJournal:
    def test_torn_final_line_dropped(self, tmp_path):
        journal = tmp_path / "journal.log"
        distill(queries(3), simple_retrieve, grade_llm, journal_path=journal,
                plan=WindowPlan(4, 4))
        with open(journal, "a", encoding="utf-8") as f:
            f.write("deadbeef\t{\"torn")  # no trailing newline
        completed = read_journal(journal)
        assert len(completed) == 3

    def test_mid_file_corruption_aborts(self, tmp_path):
        journal = tmp_path / "journal.log"
        distill(queries(3), simple_retrieve, grade_llm, journal_path=journal,
                plan=WindowPlan(4, 4))
        lines = journal.read_text().splitlines(keepends=True)
        lines[1] = "0" * 12 + lines[1][12:]
        journal.write_text("".join(lines))
        with pytest.raises(JournalError, match="line 2"):
            read_journal(journal)

    def test_record_listing_a_document_twice_refused(self, tmp_path):
        journal = tmp_path / "journal.log"
        distill(queries(3), simple_retrieve, grade_llm, journal_path=journal,
                plan=WindowPlan(4, 4))
        lines = journal.read_bytes().splitlines(keepends=True)
        record = json.loads(lines[1].split(b"\t", 1)[1])
        record["doc_ids"][1] = record["doc_ids"][0]
        payload = json.dumps(record).encode()
        lines[1] = hashlib.sha256(payload).hexdigest()[:12].encode() + b"\t" + payload + b"\n"
        journal.write_bytes(b"".join(lines))
        with pytest.raises(DataError, match=f"journal line 2: .*doc_id '{record['doc_ids'][0]}' "
                                            "appears twice"):
            read_journal(journal)

    def test_line_torn_inside_a_character_is_dropped(self, tmp_path):
        journal = tmp_path / "journal.log"
        accented = [Query(f"q{i}", f"café numéro {i}", QueryKind.GENERATED) for i in range(3)]
        distill(accented, simple_retrieve, grade_llm, journal_path=journal, plan=WindowPlan(4, 4))
        raw = journal.read_bytes()
        last_start = raw.rstrip(b"\n").rfind(b"\n") + 1
        journal.write_bytes(raw[: raw.index("é".encode(), last_start) + 1])  # half of "é"
        result = distill(accented, simple_retrieve, grade_llm, journal_path=journal,
                         plan=WindowPlan(4, 4))
        assert result.n_labeled == 1
        assert sorted(read_journal(journal)) == ["q0", "q1", "q2"]

    def test_whole_final_line_without_newline_is_kept(self, tmp_path):
        journal = tmp_path / "journal.log"
        distill(queries(3), simple_retrieve, grade_llm, journal_path=journal,
                plan=WindowPlan(4, 4))
        journal.write_bytes(journal.read_bytes()[:-1])  # the last append lost only its newline
        result = distill(queries(4), simple_retrieve, grade_llm, journal_path=journal,
                         plan=WindowPlan(4, 4))
        assert result.n_labeled == 1
        assert sorted(read_journal(journal)) == [q.query_id for q in queries(4)]

    def test_resume_reads_the_journal_once(self, tmp_path, monkeypatch):
        journal = tmp_path / "journal.log"
        distill(queries(3), simple_retrieve, grade_llm, journal_path=journal,
                plan=WindowPlan(4, 4))
        with open(journal, "a", encoding="utf-8") as f:
            f.write("deadbeef\t{\"torn")  # no trailing newline
        modes = []
        real_open = builtins.open

        def watched_open(file, mode="r", *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file) == journal:
                modes.append(mode)
            return real_open(file, mode, *args, **kwargs)

        # pathlib opens through io.open, the rest through the builtin
        monkeypatch.setattr(builtins, "open", watched_open)
        monkeypatch.setattr(io, "open", watched_open)
        result = distill(queries(4), simple_retrieve, grade_llm, journal_path=journal,
                         plan=WindowPlan(4, 4))
        monkeypatch.undo()
        assert [mode for mode in modes if "a" not in mode] == ["rb+"]
        assert result.n_labeled == 1
        assert sorted(read_journal(journal)) == [q.query_id for q in queries(4)]

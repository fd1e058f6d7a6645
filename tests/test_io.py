import ast
import json
import os
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from distilrank.errors import DataError
from distilrank.io import (
    load_qrels,
    parse_corpus,
    parse_generated_pool,
    parse_queries,
    read_distilled,
    read_per_query,
    read_qrels,
    read_run,
    save_text,
    write_distilled,
    write_generated_pool,
    write_per_query,
    write_qrels,
    write_queries,
    write_run,
)
from distilrank.types import DistilledExample, QueryKind, ScoredDoc, Source, validate_run


def lines(text):
    return text.splitlines(keepends=True)


class TestCorpus:
    def test_single_doc(self):
        docs = parse_corpus(['{"doc_id":"d1","text":"hello"}\n'])
        assert len(docs) == 1 and docs[0].doc_id == "d1" and docs[0].text == "hello"

    def test_empty_file(self):
        assert parse_corpus([]) == []

    def test_duplicate_id_names_line(self):
        with pytest.raises(DataError, match="line 2.*d1"):
            parse_corpus(['{"doc_id":"d1","text":"a"}\n', '{"doc_id":"d1","text":"b"}\n'])

    def test_malformed_json_names_line(self):
        with pytest.raises(DataError, match="line 1"):
            parse_corpus(["{oops\n"])

    def test_whitespace_doc_id_rejected(self):
        with pytest.raises(DataError):
            parse_corpus(['{"doc_id":"d 1","text":"a"}\n'])

    @pytest.mark.parametrize("doc_id", ["d\u00a01", "d\u20031", "d\t1", "d\x1c", " ", ""],
                             ids=["nbsp", "em-space", "tab", "file-separator", "space", "empty"])
    def test_doc_id_holding_whitespace_names_line(self, doc_id):
        record = json.dumps({"doc_id": doc_id, "text": "a"}) + "\n"
        with pytest.raises(DataError, match="corpus line 2: malformed record .*non-empty with no "
                                            "whitespace"):
            parse_corpus(['{"doc_id":"d0","text":"a"}\n', record])

    def test_doc_id_with_non_space_format_character_kept(self):
        # U+200B is a format character, not whitespace, to str.isspace()
        assert parse_corpus(['{"doc_id":"d\u200b1","text":"a"}\n'])[0].doc_id == "d\u200b1"

    @given(st.text(max_size=6))
    def test_split_rule_is_the_isspace_rule(self, doc_id):
        assert (doc_id.split() != [doc_id]) == (not doc_id or any(c.isspace() for c in doc_id))

    @pytest.mark.parametrize("record, field", [
        ('{"doc_id": 5, "text": "a"}', "doc_id 5"),
        ('{"doc_id": null, "text": "a"}', "doc_id None"),
        ('{"doc_id": ["d1"], "text": "a"}', r"doc_id \['d1'\]"),
        ('{"doc_id": "d2", "text": 5}', "text 5"),
        ('{"doc_id": "d2", "text": ["a"]}', r"text \['a'\]"),
    ], ids=["number", "null", "list", "number-text", "list-text"])
    def test_non_string_field_names_line(self, record, field):
        with pytest.raises(DataError, match=f"corpus line 2: malformed record \\({field} is not a "
                                            "string\\)"):
            parse_corpus(["\n", record + "\n"])


class TestQueries:
    def test_generated(self):
        q = parse_queries(["q1\twhat is bm25\tgenerated\n"])[0]
        assert q.query_id == "q1" and q.kind is QueryKind.GENERATED

    def test_cropped(self):
        q = parse_queries(["q2\tthe index stores postings\tcropped\n"])[0]
        assert q.kind is QueryKind.CROPPED

    def test_unknown_kind(self):
        with pytest.raises(DataError, match="line 1.*weird"):
            parse_queries(["q3\ttext\tweird\n"])

    def test_wrong_column_count(self):
        with pytest.raises(DataError, match="line 1"):
            parse_queries(["q3\tonly-two-columns\n"])

    @pytest.mark.parametrize("query_id", ["q 1", "", "q\u00a01"], ids=["space", "empty", "nbsp"])
    def test_query_id_no_run_file_holds_names_line(self, query_id):
        # a run or qrels line splits on whitespace, so such an id would not read back
        with pytest.raises(DataError, match="queries line 2: query_id must be non-empty with no "
                                            "whitespace"):
            parse_queries(["q0\ttext\tcropped\n", f"{query_id}\talpha\tcropped\n"])

    def test_round_trip(self):
        text = "q1\twhat is bm25\tgenerated\nq2\tcropped sentence here\tcropped\n"
        assert write_queries(parse_queries(lines(text))) == text


class TestRun:
    def test_single_entry(self):
        assert read_run(["q1 Q0 d7 1 3.25 bm25\n"]) == {"q1": [ScoredDoc("d7", 3.25)]}

    def test_canonical_round_trip_bit_exact(self):
        canonical = (
            "q1 Q0 d1 1 3.000000 t\n"
            "q1 Q0 d2 2 2.500000 t\n"
            "q2 Q0 d3 1 1.000000 t\n"
        )
        assert write_run(read_run(lines(canonical)), "t") == canonical

    def test_lines_out_of_rank_order_round_trip_to_canonical(self):
        shuffled = (
            "q2 Q0 d3 1 1.000000 t\n"
            "q1 Q0 d2 2 2.500000 t\n"
            "q1 Q0 d1 1 3.000000 t\n"
        )
        canonical = (
            "q1 Q0 d1 1 3.000000 t\n"
            "q1 Q0 d2 2 2.500000 t\n"
            "q2 Q0 d3 1 1.000000 t\n"
        )
        assert write_run(read_run(lines(shuffled)), "t") == canonical

    def test_run_of_plain_tuples_equals_scored_docs(self):
        plain = {"q1": [("d1", 2.0), ("d2", 1.0)]}
        scored = {"q1": [ScoredDoc("d1", 2.0), ScoredDoc("d2", 1.0)]}
        assert plain == scored
        validate_run(plain)
        assert write_run(plain, "t") == write_run(scored, "t")

    def test_rank_gap_rejected(self):
        with pytest.raises(DataError, match="q1"):
            read_run(["q1 Q0 d7 2 1.0 t\n"])

    def test_duplicate_rank_rejected(self):
        with pytest.raises(DataError):
            read_run(["q1 Q0 d1 1 1.0 t\n", "q1 Q0 d2 1 0.5 t\n"])

    def test_increasing_score_rejected(self):
        with pytest.raises(DataError, match="score increases"):
            read_run(["q1 Q0 d1 1 1.0 t\n", "q1 Q0 d2 2 2.0 t\n"])

    @pytest.mark.parametrize("docs, error", [
        ([("d1", float("nan")), ("d2", float("nan"))], "non-finite score"),
        ([("d1", float("inf")), ("d2", 1.0)], "non-finite score"),
        ([("d1", 2.0), ("d1", 1.0)], "doc_id 'd1' appears twice"),
    ], ids=["nan", "inf", "repeated-doc"])
    def test_built_run_is_validated(self, docs, error):
        with pytest.raises(DataError, match=f"query q1: {error}"):
            validate_run({"q1": [ScoredDoc(*d) for d in docs]})

    def test_non_numeric_rank(self):
        with pytest.raises(DataError, match="line 1"):
            read_run(["q1 Q0 d1 one 1.0 t\n"])

    def test_tag_override(self):
        # the tag column is not kept on read; the writer supplies it
        run = read_run(["q1 Q0 d1 1 1.0 orig\n"])
        assert "q1 Q0 d1 1 1.000000 new\n" == write_run(run, "new")


class TestQrels:
    def test_single(self):
        assert read_qrels(["q1 0 d1 3\n"]) == {("q1", "d1"): 3}

    @given(pairs=st.dictionaries(
        st.tuples(st.sampled_from(["q1", "q2", "q10"]), st.from_regex(r"d[a-z0-9]{1,4}", fullmatch=True)),
        st.integers(0, 3), max_size=12))
    def test_pair_view_of_a_loaded_file(self, pairs, tmp_path_factory):
        # interleaved queries, as a hand-written file may have them
        path = tmp_path_factory.getbasetemp() / "pair-view-qrels.txt"
        lines_read = [f"{qid} 0 {doc_id} {rel}\n" for (qid, doc_id), rel in pairs.items()]
        path.write_text("".join(lines_read), encoding="utf-8")
        qrels = load_qrels(path)
        assert len(qrels) == len(lines_read)
        assert sorted(qrels.items()) == sorted(pairs.items())
        text = write_qrels(qrels)
        assert text == "".join(f"{q} 0 {d} {rel}\n" for (q, d), rel in sorted(pairs.items()))
        assert read_qrels(lines(text)) == qrels
        if pairs:
            (qid, doc_id), _ = next(iter(pairs.items()))
            with pytest.raises(DataError, match=rf"line {len(pairs) + 1}: duplicate pair "
                                                rf"\({qid}, {doc_id}\)"):
                read_qrels([*lines_read, f"{qid} 0 {doc_id} 1\n"])

    def test_duplicate_pair(self):
        with pytest.raises(DataError, match="duplicate"):
            read_qrels(["q1 0 d1 3\n", "q1 0 d1 2\n"])

    def test_negative_grade(self):
        with pytest.raises(DataError, match="negative"):
            read_qrels(["q1 0 d1 -1\n"])


def make_example(qid="q1", m=3, ranking=(2, 1, 3)):
    return DistilledExample(
        query_id=qid,
        query_text="some query",
        kind=QueryKind.CROPPED,
        source_retriever=Source.BM25,
        doc_ids=tuple(f"d{i}" for i in range(m)),
        llm_ranking=tuple(ranking),
        raw_response="[2] > [1] > [3]",
    )


class TestDistilled:
    def test_write_contains_ranking(self):
        line = write_distilled([make_example()])
        assert '"llm_ranking": [2, 1, 3]'.replace(" ", "") in line.replace(" ", "")

    def test_non_permutation_rejected_with_query_id(self):
        obj = json.loads(write_distilled([make_example()]).strip())
        obj["llm_ranking"] = [1, 1, 2]
        with pytest.raises(DataError, match="q1"):
            read_distilled([json.dumps(obj) + "\n"])

    @pytest.mark.parametrize("field, value, error", [
        ("doc_ids", "ab", "doc_ids 'ab' is not a list of strings"),
        ("doc_ids", ["d0", 1, "d2"], r"doc_ids \['d0', 1, 'd2'\] is not a list of strings"),
        ("doc_ids", None, "doc_ids None is not a list of strings"),
        ("query_text", 7, "query_text 7 is not a string"),
        ("query_id", 7, "query_id 7 is not a string"),
        ("query_id", ["q1"], r"query_id \['q1'\] is not a string"),
        ("repaired", "false", "repaired 'false' is not a boolean"),
        ("llm_ranking", [2.0, 1.0, 3.0], r"llm_ranking \[2.0, 1.0, 3.0\] is not a list of integers"),
        ("llm_ranking", [2, True, 3], r"llm_ranking \[2, True, 3\] is not a list of integers"),
        ("raw_response", 5, "raw_response 5 is not a string"),
    ], ids=["doc-ids-string", "doc-ids-number", "doc-ids-null", "query-text-number",
            "query-id-number", "query-id-list", "repaired-string", "ranking-floats",
            "ranking-bool", "raw-response-number"])
    def test_field_of_wrong_type_names_line(self, field, value, error):
        obj = json.loads(write_distilled([make_example()]))
        if field == "doc_ids" and isinstance(value, str):
            obj["llm_ranking"] = [2, 1]  # "ab" would pass as two documents
        obj[field] = value
        with pytest.raises(DataError, match=f"distilled line 2: malformed record \\({error}\\)"):
            read_distilled(["\n", json.dumps(obj) + "\n"])

    def test_round_trip(self):
        examples = [make_example("q1"), make_example("q2", ranking=(3, 1, 2))]
        assert read_distilled(lines(write_distilled(examples))) == examples

    def test_round_trip_at_train_split_scale(self):
        # 19,000 lines: the size of the training side of a 20K/1K split
        examples = [make_example(f"q{i:05d}") for i in range(19_000)]
        assert read_distilled(lines(write_distilled(examples))) == examples


@given(
    st.dictionaries(
        st.from_regex(r"q[a-z0-9]{1,8}", fullmatch=True),
        st.lists(st.tuples(st.from_regex(r"d[a-z0-9]{1,8}", fullmatch=True),
                           st.integers(0, 1000)),
                 min_size=1, max_size=10, unique_by=lambda t: t[0]),
        min_size=1, max_size=5,
    )
)
def test_run_write_read_round_trip(ranked):
    # scores must be non-increasing in rank order; sort each list descending
    prepared = {
        qid: [(doc, float(score)) for doc, score in
              sorted(docs, key=lambda t: -t[1])]
        for qid, docs in ranked.items()
    }
    run = {qid: [ScoredDoc(*d) for d in docs] for qid, docs in prepared.items()}
    validate_run(run)
    assert read_run(lines(write_run(run, "t"))) == {q: run[q] for q in sorted(run)}


def test_small_tsv_codecs_round_trip():
    pool = [("d2", "a query with spaces "), ("d1", "b"), ("d2", "c")]
    assert parse_generated_pool(lines(write_generated_pool(pool))) == pool
    values = {"q2": 0.25, "q1": 1.0}
    assert read_per_query(lines(write_per_query(values)), "per-query") == values


def test_new_output_gets_the_mode_of_a_new_file(tmp_path):
    # 0o666 less the umask, as open() gives, not the 0o600 of tempfile.mkstemp
    umask = os.umask(0o027)
    try:
        save_text(tmp_path / "out.tsv", "q1\t0.5\n")
    finally:
        os.umask(umask)
    assert (tmp_path / "out.tsv").stat().st_mode & 0o777 == 0o640
    assert [p.name for p in tmp_path.iterdir()] == ["out.tsv"]


def test_output_in_a_missing_directory_names_the_output(tmp_path):
    out = tmp_path / "absent" / "out.tsv"
    with pytest.raises(FileNotFoundError) as exc:
        save_text(out, "q1\t0.5\n")
    assert exc.value.filename == str(out)


def test_io_types_and_errors_import_no_numpy_scipy_or_requests():
    # the readers and the nDCG code stay cheap to import; a module they import
    # from the package is checked the same way
    package = Path(__file__).resolve().parent.parent / "src" / "distilrank"
    heavy = {"numpy", "scipy", "requests"}
    todo, seen = ["io", "types", "errors"], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                todo += [node.module] if node.module else [a.name for a in node.names]
                continue
            if isinstance(node, ast.Import):
                roots = {a.name.partition(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom):
                roots = {node.module.partition(".")[0]}
            else:
                continue
            assert not roots & heavy, f"{name}.py line {node.lineno} imports {roots & heavy}"
    assert {"io", "types", "errors"} <= seen

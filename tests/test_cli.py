import argparse
import copy
import json
import multiprocessing
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from distilrank import cli, io, scorer
from distilrank.cli import build_parser, dispatch
from distilrank.config import OPTIONS, CliConfig, resolve
from distilrank.errors import DataError, NonFiniteError
from distilrank.scorer import ScoreStrategy
from distilrank.training import KindFilter, filter_examples
from distilrank.types import Source


def _rerank_checkpoint(tmp_path: Path, ckpt: Path) -> Path:
    """Rerank a one-line run with ``ckpt``, asserting exit 2; the --out path."""
    (tmp_path / "run.trec").write_text("q1 Q0 d1 1 2.0 bm25\n")
    (tmp_path / "corpus.jsonl").write_text('{"doc_id": "d1", "text": "alpha beta"}\n')
    (tmp_path / "queries.tsv").write_text("q1\talpha\tcropped\n")
    out = tmp_path / "reranked.trec"
    assert dispatch(["rerank", "--run", str(tmp_path / "run.trec"),
                     "--corpus", str(tmp_path / "corpus.jsonl"),
                     "--queries", str(tmp_path / "queries.tsv"),
                     "--checkpoint", str(ckpt), "--out", str(out)]) == 2
    return out


def _training_files(tmp_path: Path, *doc_ids: list[str]) -> tuple[Path, Path]:
    """A two-document corpus and a distilled file with one record per list of
    two doc_ids; their paths."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"doc_id": "d1", "text": "alpha beta"}\n'
                      '{"doc_id": "d2", "text": "gamma"}\n')
    distilled = tmp_path / "distilled.jsonl"
    distilled.write_text("".join(
        json.dumps({"query_id": f"q{i}", "query_text": "alpha", "kind": "cropped",
                    "source_retriever": "BM25", "doc_ids": ids, "llm_ranking": [1, 2]}) + "\n"
        for i, ids in enumerate(doc_ids, 1)))
    return corpus, distilled


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A small synthetic workspace produced entirely through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    assert dispatch([
        "synth", "--topics", "4", "--docs", "80", "--train-queries", "16",
        "--eval-queries", "8", "--seed", "3", "--out-dir", str(root),
    ]) == 0
    assert dispatch([
        "index", "build", "--corpus", str(root / "corpus.jsonl"),
        "--out", str(root / "index.json"),
    ]) == 0
    return root


@pytest.fixture(scope="module")
def four_sources(workdir, tmp_path_factory):
    """The inputs of a `distill` over all four sources, keyed by flag, and the
    assignment: one BM25 run file stands in for SPLADE and DRAGON, and a score
    map covers the BM25 top-20 pool of every MonoT5-assigned query."""
    from distilrank.retrieval import load_index, search_bm25

    root = tmp_path_factory.mktemp("four-sources")
    assignment_path = root / "sources.tsv"
    assert dispatch([
        "assign-sources", "--queries", str(workdir / "queries-train.tsv"),
        "--seed", "2", "--out", str(assignment_path),
    ]) == 0
    assignment = io.parse_assignment(assignment_path.read_text().splitlines(keepends=True))

    run_path = root / "external.trec"
    assert dispatch([
        "retrieve", "--method", "bm25", "--index", str(workdir / "index.json"),
        "--queries", str(workdir / "queries-train.tsv"), "--k", "10",
        "--out", str(run_path),
    ]) == 0

    index = load_index(workdir / "index.json")
    score_lines = []
    for q in io.load_queries(workdir / "queries-train.tsv"):
        if assignment[q.query_id] is Source.MONOT5:
            for hit in search_bm25(index, q.text, 20):
                score_lines.append(f"{q.query_id}\t{hit.doc_id}\t{-len(hit.doc_id)}\n")
    scores_path = root / "monot5-scores.tsv"
    scores_path.write_text("".join(score_lines))

    inputs = {
        "--queries": workdir / "queries-train.tsv",
        "--corpus": workdir / "corpus.jsonl",
        "--assignment": assignment_path,
        "--bm25-index": workdir / "index.json",
        "--run-splade": run_path,
        "--run-dragon": run_path,
        "--monot5-scores": scores_path,
        "--mock-qrels": workdir / "qrels-train.txt",
    }
    return argparse.Namespace(inputs=inputs, assignment=assignment)


def _usable_cpus(monkeypatch, n: int) -> None:
    """Make ``ablate`` see ``n`` usable CPUs: with one it runs its cells in
    this process, with more it forks one worker per CPU."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _four_source_argv(inputs: dict, out, *extra) -> list[str]:
    argv = ["distill"]
    for flag, path in inputs.items():
        argv += [flag, str(path)]
    return argv + ["--k-pool", "20", "--k", "10", "--out", str(out), *extra]


class TestConfigFile:
    def test_parse_and_pick(self):
        cfg = CliConfig.parse(["# comment\n", "bm25.k1 = 1.2\n", "train.epochs = 3\n"])
        defaults = {"bm25.k1": 0.9, "bm25.b": 0.4, "train.epochs": 10}
        assert resolve(defaults, {}, cfg) == {"bm25.k1": 1.2, "bm25.b": 0.4, "train.epochs": 3}
        assert resolve(defaults, {"bm25.k1": 2.0}, cfg)["bm25.k1"] == 2.0  # flag wins
        assert resolve(defaults, {}, CliConfig())["train.epochs"] == 10

    def test_hash_inside_a_value_is_kept(self):
        cfg = CliConfig.parse([
            "llm.model = gpt#4\n",
            "llm.endpoint = http://host:8000/v1#x  # trailing comment\n",
            "train.epochs = 3  # note\n",
            "  # an indented comment line\n",
            "\t#bm25.k1 = 5\n",
        ])
        assert cfg == {"llm.model": "gpt#4", "llm.endpoint": "http://host:8000/v1#x",
                       "train.epochs": 3}

    def test_unknown_key_rejected(self):
        with pytest.raises(DataError, match="unknown key"):
            CliConfig.parse(["no.such.key = 1\n"])

    def test_unread_compose_k_out_rejected(self):
        with pytest.raises(DataError, match="unknown key"):
            CliConfig.parse(["compose.k_out = 10\n"])

    def test_bad_value_rejected(self):
        with pytest.raises(DataError, match="expected int"):
            CliConfig.parse(["train.epochs = soon\n"])

    def test_repeated_key_rejected(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "distilrank.cfg"
        cfg.write_text("retrieve.k = 2\n# a comment\nretrieve.k = 4\n")
        assert dispatch([
            "--config", str(cfg),
            "retrieve", "--method", "bm25", "--index", str(workdir / "index.json"),
            "--queries", str(workdir / "queries-eval.tsv"), "--out", str(tmp_path / "r.trec"),
        ]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "line 1" in err and "retrieve.k" in err


class TestDispatchBasics:
    def test_unknown_subcommand_exits_1(self, capsys):
        assert dispatch(["frobnicate"]) == 1

    def test_no_command_prints_help(self, capsys):
        assert dispatch([]) == 1
        assert "COMMAND" in capsys.readouterr().out

    def test_missing_required_flag_exits_1(self):
        assert dispatch(["index", "build", "--corpus", "x.jsonl"]) == 1

    def test_data_error_exits_2(self, tmp_path):
        bad = tmp_path / "corpus.jsonl"
        bad.write_text("{not json\n")
        assert dispatch([
            "index", "build", "--corpus", str(bad), "--out", str(tmp_path / "i.json"),
        ]) == 2

    @pytest.mark.parametrize("record, field", [
        ({"doc_id": ["d1"], "text": "a"}, "doc_id ['d1']"),
        ({"doc_id": "d1", "text": 5}, "text 5"),
    ], ids=["list-doc-id", "number-text"])
    def test_corpus_field_of_wrong_type_exits_2(self, tmp_path, capsys, record, field):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in ({"doc_id": "d0", "text": "b"}, record)))
        assert dispatch(["index", "build", "--corpus", str(corpus),
                         "--out", str(tmp_path / "i.npz")]) == 2
        assert f"error: corpus line 2: malformed record ({field} is not a string)" in \
            capsys.readouterr().err

    def test_dispatches_share_one_parser_and_carry_no_flag(self, tmp_path, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        cli._parser.cache_clear()
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({"doc_id": "d1", "text": "apple pie"}) + "\n")
        argv = ["index", "build", "--corpus", str(corpus), "--out", str(tmp_path / "i.npz")]
        k1, b = OPTIONS["bm25.k1"].default, OPTIONS["bm25.b"].default
        assert dispatch(argv + ["--k1", "1.5", "--b", "0.75"]) == 0
        assert "k1=1.5 b=0.75" in capsys.readouterr().out
        assert dispatch(argv) == 0
        assert f"k1={k1} b={b}" in capsys.readouterr().out
        assert dispatch(argv + ["--k1", "soon"]) == 1
        assert dispatch(argv[:2] + ["--k1", "2.0"]) == 1
        capsys.readouterr()
        assert dispatch(argv + ["--b", "0.5"]) == 0
        assert f"k1={k1} b=0.5" in capsys.readouterr().out

        runs = {}
        for label in "abc":
            runs[label] = tmp_path / f"{label}.trec"
            runs[label].write_text(f"q1 Q0 d{label} 1 1.0 t\n")
        assert dispatch(["eval", "intersection", "--run", f"a={runs['a']}",
                         "--run", f"b={runs['b']}"]) == 0
        capsys.readouterr()
        assert dispatch(["eval", "intersection", "--run", f"a={runs['a']}",
                         "--run", f"c={runs['c']}"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "\ta\tc"
        assert built == [1]

    def test_doc_id_ending_in_nul_refused(self, tmp_path, capsys):
        # an index file would read the id back as "d1", a document not in the corpus
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({"doc_id": "d1\u0000", "text": "apple pie"}) + "\n")
        out = tmp_path / "index.npz"
        assert dispatch(["index", "build", "--corpus", str(corpus), "--out", str(out)]) == 2
        assert "'d1\\x00'" in capsys.readouterr().err
        assert not out.exists()

    def test_train_on_a_record_listing_a_document_twice_exits_2(self, tmp_path, capsys):
        corpus, distilled = _training_files(tmp_path, ["d1", "d2"], ["d1", "d1"])
        out = tmp_path / "scorer.ckpt"
        assert dispatch(["train", "--train", str(distilled), "--corpus", str(corpus),
                         "--hash-dim", "1024", "--hidden", "2", "--checkpoint", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: distilled line 2: malformed record (query q2: doc_id 'd1' appears twice)")
        assert not out.exists()

    def test_missing_file_exits_2(self, tmp_path):
        assert dispatch([
            "index", "build", "--corpus", str(tmp_path / "absent.jsonl"),
            "--out", str(tmp_path / "i.json"),
        ]) == 2

    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["retrieve", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--method" in out and "default" in out

    @pytest.mark.parametrize("rows", [
        "q1\t0.5\nq2\tabc\n",  # not a number
        "q1\t0.5\nq1\t0.7\n",  # repeated query id
        "q1\t0.5\nq2\tnan\n",  # not finite
    ], ids=["non-numeric", "repeated-query", "nan"])
    def test_ttest_rejects_bad_per_query_rows(self, tmp_path, capsys, rows):
        good = tmp_path / "a.tsv"
        good.write_text("q1\t0.5\nq2\t0.6\n")
        bad = tmp_path / "b.tsv"
        bad.write_text(rows)
        assert dispatch(["eval", "ttest", "--a", str(good), "--b", str(bad)]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "line 2" in err

    def test_intersection_rejects_repeated_label(self, tmp_path, capsys):
        run_a = tmp_path / "a.trec"
        run_b = tmp_path / "b.trec"
        run_a.write_text("q1 Q0 d1 1 2.0 a\n")
        run_b.write_text("q1 Q0 d2 1 2.0 b\n")
        assert dispatch([
            "eval", "intersection",
            "--run", f"x={run_a}", "--run", f"x={run_b}", "--run", f"y={run_b}",
        ]) == 1
        assert "'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_intersection_n_below_one_exits_2(self, tmp_path, capsys, n):
        run = tmp_path / "a.trec"
        run.write_text("q1 Q0 d1 1 2.0 a\n")
        out = tmp_path / "matrix.tsv"
        assert dispatch(["eval", "intersection", "--run", f"a={run}", "--run", f"b={run}",
                         "--n", n, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"n must be >= 1, got {n}" in err
        assert not out.exists()

    @pytest.mark.parametrize("change, message", [
        ({"interaction_cap": np.float64(16.0)},
         "interaction_cap must be a 0-d array of dtype kind 'i', got float64 of shape ()"),
        ({"w1": np.zeros(16, dtype="<f4")},
         "w1 must be a 2-d array of dtype kind 'f' of 4 bytes, got float32 of shape (16,)"),
        ({"b1": np.zeros(2)},  # float64: the loader widens and narrows nothing
         "b1 must be a 1-d array of dtype kind 'f' of 4 bytes, got float64 of shape (2,)"),
        ({"w1": np.zeros((16, 0), dtype="<f4"), "b1": np.zeros(0, dtype="<f4"),
          "w2": np.zeros((0, 2), dtype="<f4")},  # what `train --hidden 0` would write
         "hidden must be >= 1, got w1 of shape (16, 0)"),
        ({"strategy": None}, "strategy is not a file in the archive"),
    ], ids=["mistyped-interaction-cap", "w1-not-2d", "b1-float64", "zero-hidden",
            "missing-member"])
    def test_rerank_rejects_mistyped_checkpoint_header(self, tmp_path, capsys, change, message):
        params = scorer.init_params(scorer.FeatureConfig(hash_dim=1 << 4), hidden=2, seed=0)
        ckpt = tmp_path / "scorer.ckpt"
        scorer.save_checkpoint(params, scorer.ScoreStrategy.LOGIT_DIFFERENCE, ckpt)
        with np.load(ckpt) as z:
            members = {name: z[name] for name in z.files} | change
        with open(ckpt, "wb") as f:
            np.savez(f, **{name: value for name, value in members.items() if value is not None})
        out = _rerank_checkpoint(tmp_path, ckpt)
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read checkpoint {ckpt}") and message in err
        assert not out.exists()

    def test_legacy_checkpoint_exits_2(self, tmp_path, capsys):
        header = {"version": "1", "strategy": "logit-difference", "hash_dim": 16, "hidden": 2,
                  "interaction_cap": 16, "lowercase": True, "min_token_len": 1,
                  "arrays": ["w1", "b1", "w2", "b2"], "dtype": "<f4"}
        ckpt = tmp_path / "scorer.ckpt"
        ckpt.write_bytes(json.dumps(header).encode() + b"\n"
                         + np.zeros(16 * 2 + 2 + 2 * 2 + 2, dtype="<f4").tobytes())
        out = _rerank_checkpoint(tmp_path, ckpt)
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read checkpoint {ckpt}: not an .npz archive")
        assert "re-run `distilrank train`" in err
        assert not out.exists()

    @pytest.mark.parametrize("damage", ["legacy-json", "truncated"])
    def test_unreadable_index_exits_2(self, workdir, tmp_path, capsys, damage):
        index = tmp_path / "index.json"
        if damage == "legacy-json":
            index.write_text(json.dumps({"k1": 0.9, "b": 0.4, "doc_ids": [], "postings": {}}))
        else:
            data = (workdir / "index.json").read_bytes()
            index.write_bytes(data[: len(data) // 2])
        queries = str(workdir / "queries-train.tsv")
        assert dispatch(["retrieve", "--method", "bm25", "--index", str(index),
                         "--queries", queries, "--out", str(tmp_path / "r.trec")]) == 2
        assert dispatch(["distill", "--queries", queries,
                         "--corpus", str(workdir / "corpus.jsonl"), "--bm25-index", str(index),
                         "--mock-qrels", str(workdir / "qrels-train.txt"),
                         "--out", str(tmp_path / "d.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.count(str(index)) == 2 and err.count("index build") == 2

    @pytest.mark.parametrize("name, mistype, message", [
        ("k1", lambda k1: np.str_(str(k1)),
         "k1 must be a 0-d array of dtype kind 'f', got <U3 of shape ()"),
        ("doc_lengths", lambda lengths: lengths + 0.5,
         "doc_lengths must be a 1-d array of dtype kind 'i', got float64"),
        ("ordinals", lambda ordinals: ordinals.astype(np.int64) + (1 << 32),
         "ordinals must be a 1-d array of dtype kind 'i' of 4 bytes, got int64"),
    ], ids=["k1-string", "float-doc-lengths", "int64-ordinals"])
    def test_mistyped_index_member_exits_2(self, workdir, tmp_path, capsys, name, mistype,
                                           message):
        index = tmp_path / "index.npz"
        with np.load(workdir / "index.json") as z:
            members = {member: z[member] for member in z.files}
        members[name] = mistype(members[name])
        with open(index, "wb") as f:
            np.savez(f, **members)
        out = tmp_path / "r.trec"
        assert dispatch(["retrieve", "--method", "bm25", "--index", str(index),
                         "--queries", str(workdir / "queries-train.tsv"),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot load index from {index}: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("records", [
        [("d1", "[1.0, 0.0]"), ("d2", "[0.0, 1.0]"), ("d1", "[0.5, 0.5]")],
        [("d1", "[1.0, 0.0]"), ("d2", "[NaN, 1.0]")],
        [("d1", "[1.0, 0.0]"), ("d2", "[1" + "0" * 400 + ", 1.0]")],
    ], ids=["repeated-doc-id", "nan", "int-beyond-float"])
    def test_retrieve_dense_rejects_bad_store(self, tmp_path, capsys, records):
        store = tmp_path / "store.jsonl"
        store.write_text("".join(f'{{"doc_id": "{d}", "vector": {v}}}\n' for d, v in records))
        qvecs = tmp_path / "qvecs.jsonl"
        qvecs.write_text('{"doc_id": "qa", "vector": [1.0, 0.0]}\n')
        queries = tmp_path / "q.tsv"
        queries.write_text("qa\tsome text\tcropped\n")
        out = tmp_path / "dense.trec"
        assert dispatch(["retrieve", "--method", "dense", "--store", str(store),
                         "--query-vectors", str(qvecs), "--queries", str(queries),
                         "--out", str(out)]) == 2
        assert f"line {len(records)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grades, largest", [([2000], 2000), ([1023] * 3, 1023)],
                             ids=["gain-beyond-float", "dcg-beyond-float"])
    def test_eval_ndcg_of_a_grade_too_large_for_a_float_exits_2(self, tmp_path, capsys, grades,
                                                                largest):
        run = tmp_path / "run.trec"
        run.write_text("".join(f"q1 Q0 d{i} {i} {9 - i}.0 t\n" for i in range(1, 4)))
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("".join(f"q1 0 d{i} {g}\n" for i, g in enumerate(grades, 1)))
        out = tmp_path / "per-query.tsv"
        assert dispatch(["eval", "ndcg", "--run", str(run), "--qrels", str(qrels),
                         "--per-query", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: query q1: nDCG over relevance grades up to {largest} "
                                "is not a finite float\n")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("train, eval_", [("-1", "16"), ("4", "-3")])
    def test_synth_negative_query_count_exits_2(self, tmp_path, capsys, train, eval_):
        out = tmp_path / "bench"
        assert dispatch(["synth", "--topics", "4", "--docs", "40", "--train-queries", train,
                         "--eval-queries", eval_, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: query counts must be >= 0")
        assert not out.exists()

    def test_budget_zero_distill_exits_3(self, workdir, tmp_path, capsys):
        # live endpoint configured but a zero budget: nothing may be sent
        code = dispatch([
            "distill",
            "--queries", str(workdir / "queries-train.tsv"),
            "--corpus", str(workdir / "corpus.jsonl"),
            "--bm25-index", str(workdir / "index.json"),
            "--endpoint", "http://127.0.0.1:1/never-contacted",
            "--budget-usd", "0",
            "--out", str(tmp_path / "d.jsonl"),
        ])
        assert code == 3


class TestRetrievalGlue:
    """The error paths of the first-stage sources behind `retrieve` and `distill`."""

    @pytest.fixture
    def one_query(self, workdir, tmp_path):
        query = io.load_queries(workdir / "queries-train.tsv")[0]
        path = tmp_path / "one.tsv"
        io.save_text(path, io.write_queries([query]))
        return query, path

    def _distill(self, workdir, tmp_path, queries, *flags):
        out = tmp_path / "d.jsonl"
        code = dispatch(["distill", "--queries", str(queries),
                         "--corpus", str(workdir / "corpus.jsonl"),
                         "--mock-qrels", str(workdir / "qrels-train.txt"),
                         "--out", str(out), *flags])
        return code, out

    @pytest.mark.parametrize("method, given, needs", [
        ("bm25", [], "--index"),
        ("dense", [], "--store and --query-vectors"),
        ("dense", ["--store", "store.jsonl"], "--store and --query-vectors"),
        ("runfile", [], "--run"),
    ])
    def test_retrieve_without_inputs_exits_1(self, workdir, tmp_path, capsys,
                                             method, given, needs):
        out = tmp_path / "r.trec"
        assert dispatch(["retrieve", "--method", method, *given,
                         "--queries", str(workdir / "queries-train.tsv"),
                         "--out", str(out)]) == 1
        assert f"--method {method} requires {needs}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["rerank", "--run", "absent.trec", "--corpus", "absent.jsonl"],
         "rerank needs --checkpoint or --external-logits"),
        (["rerank", "--run", "absent.trec", "--corpus", "absent.jsonl",
          "--checkpoint", "missing.ckpt"],
         "reranking with a checkpoint requires --queries for query texts"),
        (["retrieve", "--method", "bm25", "--queries", "absent.tsv"],
         "--method bm25 requires --index"),
        (["retrieve", "--method", "dense", "--queries", "absent.tsv"],
         "--method dense requires --store and --query-vectors"),
    ], ids=["rerank-no-scorer", "rerank-checkpoint-no-queries", "bm25-no-index",
            "dense-no-store"])
    def test_usage_error_comes_before_any_file_is_read(self, tmp_path, capsys, monkeypatch,
                                                       argv, message):
        monkeypatch.chdir(tmp_path)
        assert dispatch([*argv, "--out", "out.trec"]) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("method", ["bm25", "dense"])
    @pytest.mark.parametrize("bad_id", ["q 1", ""], ids=["space", "empty"])
    def test_retrieve_rejects_an_id_no_run_file_holds(self, workdir, tmp_path, capsys, method,
                                                      bad_id):
        # query ids and dense-store doc_ids become fields of run lines, which split on whitespace
        queries = tmp_path / "q.tsv"
        store = tmp_path / "store.jsonl"
        qvecs = tmp_path / "qvecs.jsonl"
        good = {"bm25": "qa\talpha\tcropped\n", "dense": '{"doc_id": "d1", "vector": [1, 0]}\n'}
        bad = {"bm25": f"{bad_id}\tbeta\tcropped\n",
               "dense": json.dumps({"doc_id": bad_id, "vector": [1, 1]}) + "\n"}
        queries.write_text(good["bm25"] + (bad["bm25"] if method == "bm25" else ""))
        store.write_text(good["dense"] + (bad["dense"] if method == "dense" else ""))
        qvecs.write_text('{"doc_id": "qa", "vector": [1, 0]}\n')
        inputs = {"bm25": ["--index", str(workdir / "index.json")],
                  "dense": ["--store", str(store), "--query-vectors", str(qvecs)]}[method]
        error = {"bm25": "queries line 2: query_id must be non-empty with no whitespace",
                 "dense": "dense store line 2: malformed record (doc_id must be non-empty with "
                          "no whitespace"}[method]
        out = tmp_path / "r.trec"
        assert dispatch(["retrieve", "--method", method, *inputs, "--queries", str(queries),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {error}: {bad_id!r}")
        assert not out.exists()

    def test_retrieve_dense_query_without_vector_exits_2(self, tmp_path, capsys):
        store = tmp_path / "store.jsonl"
        store.write_text('{"doc_id": "d1", "vector": [1.0, 0.0]}\n')
        qvecs = tmp_path / "qvecs.jsonl"
        qvecs.write_text('{"doc_id": "qa", "vector": [1.0, 0.0]}\n')
        queries = tmp_path / "q.tsv"
        queries.write_text("qa\tsome text\tcropped\nqb\tmore text\tcropped\n")
        out = tmp_path / "dense.trec"
        assert dispatch(["retrieve", "--method", "dense", "--store", str(store),
                         "--query-vectors", str(qvecs), "--queries", str(queries),
                         "--out", str(out)]) == 2
        assert "no vector for query 'qb'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option, value", [("--k-in", "-1"), ("--k-in", "0"),
                                               ("--k-out", "0")])
    def test_rerank_rejects_k_below_one(self, tmp_path, capsys, option, value):
        run = tmp_path / "base.trec"
        run.write_text("qa Q0 d1 1 3.0 bm25\nqa Q0 d2 2 2.0 bm25\nqa Q0 d3 3 1.0 bm25\n")
        logits = tmp_path / "logits.tsv"
        logits.write_text("qa\td1\t0.0\t0.0\nqa\td2\t1.0\t0.0\nqa\td3\t2.0\t0.0\n")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(f'{{"doc_id": "d{i}", "text": "t"}}\n' for i in (1, 2, 3)))
        out = tmp_path / "reranked.trec"
        assert dispatch(["rerank", "--run", str(run), "--external-logits", str(logits),
                         "--corpus", str(corpus), option, value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be >= 1" in err
        assert not out.exists()

    def test_retrieve_runfile_warns_of_missing_queries(self, tmp_path, capsys):
        run = tmp_path / "ext.trec"
        run.write_text("qb Q0 d1 1 2.0 ext\nqb Q0 d2 2 1.0 ext\nqz Q0 d3 1 1.0 ext\n")
        queries = tmp_path / "q.tsv"
        queries.write_text("qa\ta\tcropped\nqb\tb\tcropped\nqc\tc\tgenerated\n")
        out = tmp_path / "r.trec"
        assert dispatch(["retrieve", "--method", "runfile", "--run", str(run),
                         "--queries", str(queries), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert f"warning: 2 queries missing from {run}" in captured.err
        assert "retrieve: 1 queries with results" in captured.out
        assert out.read_text().splitlines() == [
            "qb Q0 d1 1 2.000000 runfile", "qb Q0 d2 2 1.000000 runfile"]

    @pytest.mark.parametrize("tag", ["my run", "a\tb", ""])
    @pytest.mark.parametrize("command", ["retrieve", "rerank"])
    def test_unreadable_tag_exits_2_before_any_input_is_read(self, workdir, tmp_path, capsys,
                                                             command, tag):
        # a tag that is empty or holds whitespace writes a run no reader can parse
        run = tmp_path / "base.trec"
        run.write_text("qa Q0 d1 1 3.0 bm25\nqa Q0 d2 2 2.0 bm25\n")
        logits = tmp_path / "logits.tsv"
        logits.write_text("qa\td1\t0.0\t0.0\nqa\td2\t1.0\t0.0\n")
        inputs = {
            "retrieve": {"--method": "bm25", "--index": workdir / "index.json",
                         "--queries": workdir / "queries-train.tsv"},
            "rerank": {"--run": run, "--external-logits": logits,
                       "--corpus": workdir / "corpus.jsonl"},
        }[command]
        out = tmp_path / "out.trec"
        for given in (inputs, {flag: tmp_path / "absent" if flag != "--method" else value
                               for flag, value in inputs.items()}):
            argv = [command] + [str(x) for pair in given.items() for x in pair]
            assert dispatch(argv + ["--tag", tag, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err == f"error: --tag must be non-empty and hold no whitespace, got {tag!r}\n"
            assert not out.exists()
        # the default tags are accepted
        assert dispatch([command] + [str(x) for pair in inputs.items() for x in pair]
                        + ["--out", str(out)]) == 0
        assert out.read_text().split()[5] == {"retrieve": "bm25", "rerank": "reranked"}[command]

    @pytest.mark.parametrize("source, message", [
        ("SPLADE", "a query is assigned to SPLADE but no run was given"),
        ("BM25", "a query is assigned to BM25 but no --bm25-index was given"),
    ])
    def test_distill_source_without_input_is_a_failure(self, workdir, tmp_path, capsys,
                                                       one_query, source, message):
        query, queries = one_query
        assignment = tmp_path / "sources.tsv"
        assignment.write_text(f"{query.query_id}\t{source}\n")
        # a SPLADE-assigned query fails even with a BM25 index at hand
        index = ["--bm25-index", str(workdir / "index.json")] if source == "SPLADE" else []
        code, out = self._distill(workdir, tmp_path, queries,
                                  "--assignment", str(assignment), *index)
        assert code == 0
        assert io.load_distilled(out) == []
        assert f"failed {query.query_id}: {message}" in capsys.readouterr().err

    def test_monot5_scores_without_bm25_index_exits_1(self, workdir, tmp_path, capsys,
                                                      one_query):
        scores = tmp_path / "scores.tsv"
        scores.write_text("q\td\t1.0\n")
        code, out = self._distill(workdir, tmp_path, one_query[1],
                                  "--monot5-scores", str(scores))
        assert code == 1
        assert "--monot5-scores needs --bm25-index" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rows, line", [
        ("{q}\t{d}\t0.5\n{q}\t{d}\t0.7\n", "line 2"),
        ("{q}\t{d}\tnan\n", "line 1"),
        ("{q}\t{d}\tinf\n", "line 1"),
    ], ids=["repeated-pair", "nan", "inf"])
    def test_distill_rejects_bad_monot5_scores(self, workdir, tmp_path, capsys, one_query,
                                               rows, line):
        query, queries = one_query
        scores = tmp_path / "scores.tsv"
        scores.write_text(rows.format(q=query.query_id, d="doc-x"))
        code, out = self._distill(workdir, tmp_path, queries,
                                  "--bm25-index", str(workdir / "index.json"),
                                  "--monot5-scores", str(scores))
        assert code == 2
        assert f"score map {line}" in capsys.readouterr().err
        assert not out.exists()

    def test_distill_rejects_repeated_assignment(self, workdir, tmp_path, capsys, one_query):
        query, queries = one_query
        assignment = tmp_path / "sources.tsv"
        assignment.write_text(f"{query.query_id}\tBM25\n{query.query_id}\tSPLADE\n")
        code, out = self._distill(workdir, tmp_path, queries,
                                  "--bm25-index", str(workdir / "index.json"),
                                  "--assignment", str(assignment))
        assert code == 2
        assert "assignment line 2" in (err := capsys.readouterr().err) and "line 1" in err
        assert not out.exists()

    def test_composed_monot5_run_overrides_run_monot5(self, workdir, tmp_path, one_query):
        from distilrank.retrieval import load_index, search_bm25

        query, queries = one_query
        pool = [h.doc_id for h in search_bm25(load_index(workdir / "index.json"), query.text, 5)]
        assert len(pool) == 5
        # the score map reverses the BM25 pool; the run file names none of it
        scores = tmp_path / "scores.tsv"
        scores.write_text("".join(f"{query.query_id}\t{d}\t{i}\n" for i, d in enumerate(pool)))
        others = [d.doc_id for d in io.load_corpus(workdir / "corpus.jsonl")
                  if d.doc_id not in pool][:3]
        run = tmp_path / "monot5.trec"
        run.write_text("".join(f"{query.query_id} Q0 {d} {r} {10 - r} ext\n"
                               for r, d in enumerate(others, 1)))
        assignment = tmp_path / "sources.tsv"
        assignment.write_text(f"{query.query_id}\tMonoT5\n")
        code, out = self._distill(workdir, tmp_path, queries,
                                  "--assignment", str(assignment),
                                  "--bm25-index", str(workdir / "index.json"),
                                  "--run-monot5", str(run), "--monot5-scores", str(scores),
                                  "--k-pool", "5", "--k", "3")
        assert code == 0
        [example] = io.load_distilled(out)
        assert example.source_retriever is Source.MONOT5
        assert set(example.doc_ids) == set(pool[:-4:-1])

    def test_monot5_scores_leave_run_monot5_unread(self, workdir, tmp_path, capsys,
                                                   monkeypatch, one_query):
        query, queries = one_query
        scores = tmp_path / "scores.tsv"
        scores.write_text("".join(f"{query.query_id}\t{d.doc_id}\t0.5\n"
                                  for d in io.load_corpus(workdir / "corpus.jsonl")))
        missing = tmp_path / "no-such-run.trec"
        opened = []
        lines_of = io.lines_of
        monkeypatch.setattr(io, "lines_of", lambda path: opened.append(str(path)) or lines_of(path))
        code, _out = self._distill(workdir, tmp_path, queries,
                                   "--bm25-index", str(workdir / "index.json"),
                                   "--run-monot5", str(missing), "--monot5-scores", str(scores))
        assert code == 0
        assert "warning: --monot5-scores overrides --run-monot5" in capsys.readouterr().err
        assert str(missing) not in opened and str(scores) in opened

    def test_repeated_query_id_exits_2(self, workdir, tmp_path, capsys, one_query):
        query, _queries = one_query
        queries = tmp_path / "twice.tsv"
        queries.write_text(f"{query.query_id}\talpha\tcropped\n"
                           f"{query.query_id}\tbeta\tcropped\n")
        code, out = self._distill(workdir, tmp_path, queries,
                                  "--bm25-index", str(workdir / "index.json"))
        assert code == 2
        err = capsys.readouterr().err
        assert "queries line 2" in err and "line 1" in err and query.query_id in err
        assert not out.exists()


class TestDistillResume:
    """What a resume of the four-source `distill` reads: the queries and the
    journal, and the other inputs only when some query is still pending."""

    # a line that is no valid record in any of the inputs' formats
    DAMAGE = "one two\n"
    # what the error of a damaged input names
    NAMED = {"--corpus": "corpus line 1", "--assignment": "assignment line 1",
             "--bm25-index": "cannot load index from", "--run-splade": "run line 1",
             "--run-dragon": "run line 1", "--monot5-scores": "score map line 1",
             "--mock-qrels": "qrels line 1"}

    @pytest.fixture(scope="class")
    def fresh(self, four_sources, tmp_path_factory):
        """The journal and the output bytes of an uninterrupted run."""
        root = tmp_path_factory.mktemp("fresh")
        journal, out = root / "journal.log", root / "out.jsonl"
        assert dispatch(_four_source_argv(four_sources.inputs, out,
                                          "--journal", str(journal))) == 0
        return journal.read_bytes(), out.read_bytes()

    def _resume(self, inputs, tmp_path, journal_bytes, *extra):
        journal, out = tmp_path / "journal.log", tmp_path / "out.jsonl"
        journal.write_bytes(journal_bytes)
        code = dispatch(_four_source_argv(inputs, out, "--journal", str(journal), *extra))
        return code, out

    def _broken(self, inputs, tmp_path, flag, damage):
        broken = dict(inputs)
        broken[flag] = tmp_path / f"broken-{flag.lstrip('-')}"
        if damage == "damaged":
            broken[flag].write_text(self.DAMAGE)
        return broken

    @pytest.mark.parametrize("damage", ["missing", "damaged"])
    @pytest.mark.parametrize("flag", list(NAMED))
    def test_full_resume_leaves_the_other_inputs_unread(self, four_sources, fresh, tmp_path,
                                                         capsys, flag, damage):
        journal_bytes, full = fresh
        broken = self._broken(four_sources.inputs, tmp_path, flag, damage)
        code, out = self._resume(broken, tmp_path, journal_bytes)
        assert code == 0
        assert "(0 newly labeled, 0 failures)" in capsys.readouterr().out
        assert out.read_bytes() == full

    @pytest.mark.parametrize("damage", ["missing", "damaged"])
    @pytest.mark.parametrize("flag", list(NAMED))
    def test_partial_resume_reads_every_input(self, four_sources, fresh, tmp_path, capsys,
                                              flag, damage):
        journal_bytes, _full = fresh
        broken = self._broken(four_sources.inputs, tmp_path, flag, damage)
        lines = journal_bytes.splitlines(keepends=True)
        code, out = self._resume(broken, tmp_path, b"".join(lines[:-1]))
        assert code == 2
        err = capsys.readouterr().err
        assert (str(broken[flag]) if damage == "missing" else self.NAMED[flag]) in err
        assert not out.exists()

    @pytest.mark.parametrize("dropped, message", [
        ("--bm25-index", "--monot5-scores needs --bm25-index"),
        ("--mock-qrels", "either --mock-qrels or --endpoint is required"),
    ])
    def test_full_resume_still_rejects_usage_errors(self, four_sources, fresh, tmp_path, capsys,
                                                    dropped, message):
        inputs = {flag: path for flag, path in four_sources.inputs.items() if flag != dropped}
        code, out = self._resume(inputs, tmp_path, fresh[0])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option, value", [("--k", "0"), ("--k", "-1"),
                                               ("--max-in-flight", "0"),
                                               ("--passage-words", "0"),
                                               ("--passage-words", "-3")])
    def test_option_below_one_exits_2_before_any_input_is_read(
            self, four_sources, fresh, tmp_path, capsys, option, value):
        code, out = self._resume(four_sources.inputs, tmp_path, fresh[0], option, value)
        assert code == 2
        assert f"error: {option} must be >= 1, got {value}" in capsys.readouterr().err
        assert not out.exists()
        # the check comes first even on a fresh run whose queries file is missing
        inputs = dict(four_sources.inputs, **{"--queries": tmp_path / "absent.tsv"})
        assert dispatch(_four_source_argv(inputs, out, option, value)) == 2
        err = capsys.readouterr().err
        assert f"{option} must be >= 1" in err and "absent.tsv" not in err

    @pytest.mark.parametrize("setting, message", [
        ("llm.retry_max_attempts = 0", "max_attempts must be >= 1, got 0"),
        ("llm.backoff_base = -1", "backoff_base must be finite and >= 0, got -1.0"),
        ("llm.backoff_factor = nan", "backoff_factor must be finite and >= 0, got nan"),
        ("llm.timeout_s = 0", "timeout_s must be finite and > 0, got 0.0"),
        ("llm.timeout_s = inf", "timeout_s must be finite and > 0, got inf"),
        ("llm.budget_usd = nan", "budget must be >= 0 (inf for no cap), got nan"),
        ("llm.prompt_price_per_1k = nan", "prompt_price_per_1k must be finite and >= 0, got nan"),
        ("llm.completion_price_per_1k = inf",
         "completion_price_per_1k must be finite and >= 0, got inf"),
        ("llm.temperature = nan", "temperature must be finite and >= 0, got nan"),
    ])
    def test_teacher_setting_that_fails_every_query_exits_2_before_any_input_is_read(
            self, four_sources, fresh, tmp_path, capsys, setting, message):
        cfg = tmp_path / "distilrank.cfg"
        cfg.write_text(setting + "\n")
        teacher = ("--endpoint", "http://127.0.0.1:1/never-contacted")
        inputs = {flag: path for flag, path in four_sources.inputs.items()
                  if flag != "--mock-qrels"}
        journal, out = tmp_path / "journal.log", tmp_path / "out.jsonl"
        journal.write_bytes(fresh[0])
        assert dispatch(["--config", str(cfg)] + _four_source_argv(
            inputs, out, "--journal", str(journal), *teacher)) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()
        # the check comes first even on a fresh run whose queries file is missing
        inputs["--queries"] = tmp_path / "absent.tsv"
        assert dispatch(["--config", str(cfg)] + _four_source_argv(inputs, out, *teacher)) == 2
        err = capsys.readouterr().err
        assert message in err and "absent.tsv" not in err

    def test_k_above_k_pool_exits_2_on_a_full_resume(self, four_sources, fresh, tmp_path,
                                                     capsys):
        code, out = self._resume(four_sources.inputs, tmp_path, fresh[0], "--k", "30")
        assert code == 2
        assert "error: --k 30 must not exceed --k-pool 20" in capsys.readouterr().err
        assert not out.exists()

    def test_partial_resume_labels_only_what_the_journal_lacks(
            self, four_sources, fresh, tmp_path, monkeypatch):
        from distilrank import cli

        journal_bytes, full = fresh
        kept, removed = [], []
        sources_left = set(Source)
        for line in journal_bytes.splitlines(keepends=True):
            obj = json.loads(line.split(b"\t", 1)[1])
            source = Source(obj["source_retriever"])
            if source in sources_left:  # the first journaled query of each source
                sources_left.discard(source)
                removed.append(obj["query_id"])
            else:
                kept.append(line)
        assert len(removed) == len(Source)

        asked = []
        mock_llm = cli.mock_llm

        def counting_mock_llm(qrels):
            teacher = mock_llm(qrels)

            def ask(query, passages):
                asked.append(query.query_id)
                return teacher(query, passages)

            return ask

        monkeypatch.setattr(cli, "mock_llm", counting_mock_llm)
        code, out = self._resume(four_sources.inputs, tmp_path, b"".join(kept))
        assert code == 0
        assert sorted(asked) == sorted(removed)  # one window per query at --k 10
        assert out.read_bytes() == full


_TRAIN = ["train", "--train", "absent.jsonl", "--val", "absent.jsonl", "--corpus", "absent.jsonl",
          "--checkpoint", "out.ckpt"]
_ABLATE = ["ablate", "--train", "absent.jsonl", "--corpus", "absent.jsonl", "--queries",
           "absent.tsv", "--qrels", "absent.txt", "--base-run", "absent.trec", "--out", "out.tsv"]
_RERANK = ["rerank", "--run", "absent.trec", "--corpus", "absent.jsonl", "--queries", "absent.tsv",
           "--checkpoint", "absent.ckpt", "--out", "out.trec"]


@pytest.mark.parametrize("argv, message", [
    (["retrieve", "--method", "runfile", "--run", "absent.trec", "--queries", "absent.tsv",
      "--k", "0", "--out", "out.trec"], "--k must be >= 1, got 0"),
    ([*_RERANK, "--k-in", "0"], "k_in and k_out must be >= 1, got k_in=0, k_out=0"),
    ([*_RERANK, "--k-out", "0"], "k_in and k_out must be >= 1, got k_in=100, k_out=0"),
    (["rerank", "--run", "absent.trec", "--corpus", "absent.jsonl", "--external-logits",
      "absent.tsv", "--out", "out.trec", "--k-in", "5", "--k-out", "10"],
     "k_out=10 must not exceed k_in=5"),
    ([*_TRAIN, "--lr", "-1"], "learning rate must be finite and positive, got -1.0"),
    ([*_TRAIN, "--hash-dim", "3"], "hash_dim must be a power of two, got 3"),
    ([*_TRAIN, "--hash-dim", "4294967296"], "hash_dim must be at most 2**31, got 4294967296"),
    ([*_TRAIN, "--hidden", "0"], "hidden must be >= 1, got 0"),
    ([*_TRAIN, "--strategy", "bogus"], "unknown ScoreStrategy 'bogus'"),
    ([*_ABLATE, "--lr", "-1"], "learning rate must be finite and positive, got -1.0"),
    ([*_ABLATE, "--hash-dim", "3"], "hash_dim must be a power of two, got 3"),
    ([*_ABLATE, "--hash-dim", "4294967296"], "hash_dim must be at most 2**31, got 4294967296"),
    ([*_ABLATE, "--hidden", "0"], "hidden must be >= 1, got 0"),
    ([*_ABLATE, "--k-in", "0"], "k_in and k_out must be >= 1, got k_in=0, k_out=0"),
    ([*_ABLATE, "--k", "0"], "k must be >= 1, got 0"),
    (["eval", "ndcg", "--run", "absent.trec", "--qrels", "absent.txt", "--per-query", "out.tsv",
      "--k", "0"], "k must be >= 1, got 0"),
    (["eval", "intersection", "--run", "a=absent.trec", "--run", "b=absent.trec",
      "--out", "out.tsv", "--n", "0"], "n must be >= 1, got 0"),
    (["index", "build", "--corpus", "absent.jsonl", "--out", "out.npz", "--k1", "-1"],
     "BM25 parameters out of range: k1=-1.0, b=0.4"),
    (["split", "--distilled", "absent.jsonl", "--out-train", "t.jsonl", "--out-val", "v.jsonl",
      "--n-val", "3"], "n_val must be even, got 3"),
    (["split", "--distilled", "absent.jsonl", "--out-train", "t.jsonl", "--out-val", "v.jsonl",
      "--n-val", "-2"], "n_val must be >= 0, got -2"),
    (["augment", "load-generated", "--pool", "absent.tsv", "--out", "out.tsv", "--n", "-1"],
     "n must be >= 0, got -1"),
], ids=["retrieve-k", "rerank-k-in", "rerank-k-out", "rerank-k-out-above-k-in", "train-lr",
        "train-hash-dim", "train-hash-dim-above-2**31", "train-hidden", "train-strategy",
        "ablate-lr", "ablate-hash-dim", "ablate-hash-dim-above-2**31", "ablate-hidden",
        "ablate-k-in", "ablate-k", "ndcg-k", "intersection-n", "index-k1", "split-odd",
        "split-negative", "load-generated-n"])
def test_bad_option_value_comes_before_any_file_is_read(tmp_path, capsys, monkeypatch, argv,
                                                        message):
    # every input is missing, so reading any of them first would name that file instead
    monkeypatch.chdir(tmp_path)
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "absent" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("runs, message", [
    (["--run", "a=absent.trec"], "eval intersection needs at least two --run"),
    (["--run", "a=absent.trec", "--run", "b"], "expected label=path, got 'b'"),
    (["--run", "a=absent.trec", "--run", "b=absent.trec", "--run-lower", "b=absent.trec",
      "--run-lower", "a=absent.trec"], None),
], ids=["one-run", "no-label", "lower-labels-differ"])
def test_intersection_checks_its_run_flags_before_reading_a_run(tmp_path, capsys, monkeypatch,
                                                                runs, message):
    monkeypatch.chdir(tmp_path)
    status = dispatch(["eval", "intersection", *runs, "--out", "out.tsv"])
    err = capsys.readouterr().err
    if message is None:  # a data error, as when the runs are read
        assert (status, err) == (
            2, "error: upper and lower run sets must use the same labels in the same order\n")
    else:
        assert (status, err) == (1, f"usage error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs most of the CLI's start-up time and is not needed
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, distilrank.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_eval_and_mock_distill_leave_out_requests(workdir, tmp_path):
    # only a teacher behind an endpoint posts, so only `distill --endpoint`
    # pays for importing requests
    run = tmp_path / "run.trec"
    assert dispatch(["retrieve", "--method", "bm25", "--index", str(workdir / "index.json"),
                     "--queries", str(workdir / "queries-eval.tsv"), "--out", str(run)]) == 0
    argvs = [
        ["eval", "ndcg", "--run", str(run), "--qrels", str(workdir / "qrels-eval.txt")],
        ["distill", "--queries", str(workdir / "queries-train.tsv"),
         "--corpus", str(workdir / "corpus.jsonl"), "--bm25-index", str(workdir / "index.json"),
         "--mock-qrels", str(workdir / "qrels-train.txt"), "--k", "10",
         "--out", str(tmp_path / "distilled.jsonl")],
    ]
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys; from distilrank.cli import dispatch\n"
         "seen = [(dispatch(argv), 'requests' in sys.modules) for argv in json.loads(sys.argv[1])]\n"
         "print(json.dumps(seen))",
         json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    # each pair is (exit status, requests imported) after that dispatch
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, False], [0, False]]


# runs one subcommand with every file write past 4 KiB failing with EFBIG
# (SIGXFSZ ignored, so the write returns the error instead of killing the process)
_CUT_SHORT = """
import resource, signal, sys
from distilrank.cli import dispatch
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (4096, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
sys.exit(dispatch(sys.argv[1:]))
"""


@pytest.mark.parametrize("writer", ["save_text", "save_index", "save_checkpoint"])
def test_output_cut_short_leaves_the_old_file(workdir, tmp_path, writer):
    out = tmp_path / "out"
    out.write_bytes(b"the previous output\n")
    if writer == "save_text":
        argv = ["retrieve", "--method", "bm25", "--index", str(workdir / "index.json"),
                "--queries", str(workdir / "queries-train.tsv"), "--out", str(out)]
    elif writer == "save_index":
        argv = ["index", "build", "--corpus", str(workdir / "corpus.jsonl"), "--out", str(out)]
    else:
        corpus, distilled = _training_files(tmp_path, ["d1", "d2"])
        argv = ["train", "--train", str(distilled), "--corpus", str(corpus), "--epochs", "1",
                "--hash-dim", "1024", "--hidden", "8", "--checkpoint", str(out)]
    before = sorted(tmp_path.iterdir())
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-B", "-c", _CUT_SHORT, *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stderr.startswith("error: ") and "File too large" in proc.stderr
    assert out.read_bytes() == b"the previous output\n"
    assert sorted(tmp_path.iterdir()) == before


def test_perfbench_finds_every_name_it_traces():
    # perfbench/spans.py wraps program functions by their module-global names,
    # so renaming or removing one of them must fail here, not only in perfbench
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), str(root / "perfbench"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import distilrank.cli; import spans; spans.install(spans.Tracer('t'))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_perfbench_trace_hooks_run_on_the_pipeline(tmp_path):
    # runs every hook spans.py installs, so a traced function whose arguments
    # or result changed shape fails here, and checks that the traced forward
    # is the one every training batch, history evaluation and scored query calls
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "worker.py"), "--workload", "pipeline-small",
         "--scale", "tiny", "--seed", "7", "--mode", "trace", "--reference", "0",
         "--dir", str(tmp_path / "work"), "--spans", str(tmp_path / "spans.tsv"),
         "--t0", repr(time.monotonic())],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["problems"] == [] and result["failed"] == 0
    calls = result["per_layer"]
    assert calls["scorer.forward.calls"] == (calls["training.batch_loss_and_grads.calls"]
                                             + calls["training.batch_loss.calls"]
                                             + calls["evaluation.score_fn.calls"])


@pytest.mark.parametrize("workload", ["pool-large", "ablate-grid"])
def test_perfbench_traced_workload_runs(tmp_path, workload):
    # pool-large reads qrels through the pair view, writes and reads the MonoT5
    # score map and resumes distill; ablate-grid shares one feature store
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "worker.py"), "--workload", workload,
         "--scale", "tiny", "--seed", "7", "--mode", "trace", "--reference", "0",
         "--dir", str(tmp_path / "work"), "--spans", str(tmp_path / "spans.tsv"),
         "--t0", repr(time.monotonic())],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["problems"] == [] and result["failed"] == 0


@pytest.mark.parametrize("workload, multiplied", [
    ("pipeline-small", {("train", "forward"), ("train", "backward"), ("rerank", "forward")}),
    ("ablate-grid", {("ablate", "forward"), ("ablate", "backward")}),
])
def test_every_matrix_multiplied_has_int32_indices(tmp_path, monkeypatch, capsys, workload,
                                                    multiplied):
    # with an indptr of another width than its indices, scipy copies both to
    # int64 before every product; runs a perfbench workload at its tiny scale
    # in this process and records each CSR matrix the forward and the w1
    # gradient multiply, and that its values are float32
    from distilrank import evaluation, training

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import worker

    seen, command = set(), [None]
    forward, backward, real_dispatch = (scorer.forward, training.batch_loss_and_grads,
                                        cli.dispatch)

    def dispatching(argv):
        command[0] = argv[0]
        return real_dispatch(argv)

    def record(kind, matrix):
        seen.add((command[0], kind, matrix.indices.dtype, matrix.indptr.dtype, matrix.data.dtype))

    def recording_forward(params, rows):
        record("forward", rows)
        return forward(params, rows)

    def recording_backward(params, batch, strategy):
        record("backward", batch.rows.T)  # what the w1 gradient multiplies
        return backward(params, batch, strategy)

    monkeypatch.setattr(cli, "dispatch", dispatching)
    monkeypatch.setattr(training, "forward", recording_forward)
    monkeypatch.setattr(evaluation, "forward", recording_forward)
    monkeypatch.setattr(cli, "forward", recording_forward)  # ablate's rerank
    monkeypatch.setattr(training, "batch_loss_and_grads", recording_backward)
    _usable_cpus(monkeypatch, 1)  # ablate's cells run here, where the recorders are
    monkeypatch.setattr(sys, "argv", [
        "worker.py", "--workload", workload, "--scale", "tiny", "--seed", "7", "--mode", "run",
        "--reference", "0", "--dir", str(tmp_path / "work"), "--t0", repr(time.monotonic())])
    worker.main()
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["problems"] == [] and result["failed"] == 0
    assert {entry[:2] for entry in seen} == multiplied
    int32, float32 = np.dtype(np.int32), np.dtype(np.float32)
    assert {entry[2:] for entry in seen} == {(int32, int32, float32)}  # indices, indptr, data


class TestPipelineThroughCli(object):
    def test_full_flow(self, workdir, tmp_path, capsys):
        run_train = tmp_path / "train.trec"
        run_eval = tmp_path / "eval.trec"
        assert dispatch([
            "retrieve", "--method", "bm25", "--index", str(workdir / "index.json"),
            "--queries", str(workdir / "queries-train.tsv"),
            "--k", "10", "--out", str(run_train),
        ]) == 0
        assert dispatch([
            "retrieve", "--method", "bm25", "--index", str(workdir / "index.json"),
            "--queries", str(workdir / "queries-eval.tsv"),
            "--k", "10", "--out", str(run_eval),
        ]) == 0

        assignment = tmp_path / "sources.tsv"
        assert dispatch([
            "assign-sources", "--queries", str(workdir / "queries-train.tsv"),
            "--seed", "1", "--out", str(assignment),
        ]) == 0

        distilled = tmp_path / "distilled.jsonl"
        assert dispatch([
            "distill",
            "--queries", str(workdir / "queries-train.tsv"),
            "--corpus", str(workdir / "corpus.jsonl"),
            "--bm25-index", str(workdir / "index.json"),
            "--mock-qrels", str(workdir / "qrels-train.txt"),
            "--k", "10",
            "--journal", str(tmp_path / "journal.log"),
            "--out", str(distilled),
        ]) == 0
        examples = io.load_distilled(distilled)
        assert len(examples) == 16

        out_train = tmp_path / "part-train.jsonl"
        out_val = tmp_path / "part-val.jsonl"
        assert dispatch([
            "split", "--distilled", str(distilled), "--n-val", "4", "--seed", "0",
            "--out-train", str(out_train), "--out-val", str(out_val),
        ]) == 0
        assert len(io.load_distilled(out_val)) == 4

        ckpt = tmp_path / "scorer.ckpt"
        history = tmp_path / "history.tsv"
        assert dispatch([
            "train", "--train", str(distilled), "--val", str(out_val),
            "--corpus", str(workdir / "corpus.jsonl"),
            "--epochs", "4", "--batch", "4", "--docs", "10",
            "--hash-dim", "4096", "--hidden", "16",
            "--checkpoint", str(ckpt), "--history", str(history),
        ]) == 0
        assert history.read_text().startswith("epoch\ttrain_loss\tval_loss")
        # the checkpoint lands at exactly --checkpoint, with no ".npz" appended
        assert ckpt.is_file() and not (tmp_path / "scorer.ckpt.npz").exists()

        reranked = tmp_path / "reranked.trec"
        assert dispatch([
            "rerank", "--run", str(run_eval), "--corpus", str(workdir / "corpus.jsonl"),
            "--queries", str(workdir / "queries-eval.tsv"),
            "--checkpoint", str(ckpt), "--k-in", "10", "--k-out", "10",
            "--out", str(reranked),
        ]) == 0

        per_query = tmp_path / "perq.tsv"
        assert dispatch([
            "eval", "ndcg", "--run", str(reranked), "--qrels", str(workdir / "qrels-eval.txt"),
            "--k", "10", "--per-query", str(per_query),
        ]) == 0
        out = capsys.readouterr().out
        assert "ndcg@10" in out
        assert len(per_query.read_text().splitlines()) == 8

        assert dispatch([
            "eval", "intersection",
            "--run", f"bm25={run_eval}", "--run", f"rerank={reranked}",
            "--n", "10", "--out", str(tmp_path / "matrix.tsv"),
        ]) == 0

        assert dispatch([
            "eval", "ttest", "--a", str(per_query), "--b", str(per_query),
        ]) == 0
        assert "p = 1" in capsys.readouterr().out

    def test_augment_commands(self, workdir, tmp_path):
        crops = tmp_path / "crops.tsv"
        assert dispatch([
            "augment", "crop", "--corpus", str(workdir / "corpus.jsonl"),
            "--n", "12", "--seed", "5", "--out", str(crops),
        ]) == 0
        queries = io.load_queries(crops)
        assert len(queries) == 12

        generated = tmp_path / "gen.tsv"
        assert dispatch([
            "augment", "load-generated", "--pool", str(workdir / "genpool.tsv"),
            "--n", "9", "--seed", "5", "--out", str(generated),
        ]) == 0
        assert len(io.load_queries(generated)) == 9

    def test_rerank_with_external_logits(self, workdir, tmp_path):
        run_eval = tmp_path / "eval2.trec"
        assert dispatch([
            "retrieve", "--method", "bm25", "--index", str(workdir / "index.json"),
            "--queries", str(workdir / "queries-eval.tsv"),
            "--k", "5", "--out", str(run_eval),
        ]) == 0
        run = io.load_run(run_eval)
        logit_lines = []
        for qid, entries in run.items():
            for e in entries:
                rel = 1.0 if e.doc_id.endswith("1") else 0.0
                logit_lines.append(f"{qid}\t{e.doc_id}\t{rel}\t0.0\n")
        logits = tmp_path / "logits.tsv"
        logits.write_text("".join(logit_lines))
        out = tmp_path / "ext.trec"
        assert dispatch([
            "rerank", "--run", str(run_eval), "--corpus", str(workdir / "corpus.jsonl"),
            "--external-logits", str(logits), "--k-in", "5", "--out", str(out),
        ]) == 0
        assert io.load_run(out)

    def test_rerank_with_external_logits_leaves_corpus_unread(self, workdir, tmp_path,
                                                             monkeypatch):
        run = tmp_path / "run.trec"
        run.write_text("q1 Q0 d1 1 2.0 bm25\nq1 Q0 d2 2 1.0 bm25\n")
        logits = tmp_path / "logits.tsv"
        logits.write_text("q1\td1\t0.0\t0.0\nq1\td2\t0.5\t0.0\n")
        loaded = []
        monkeypatch.setattr(io, "load_corpus", loaded.append)
        out = tmp_path / "ext.trec"
        assert dispatch([
            "rerank", "--run", str(run), "--corpus", str(workdir / "corpus.jsonl"),
            "--external-logits", str(logits), "--k-in", "2", "--out", str(out),
        ]) == 0
        assert loaded == []
        assert [e.doc_id for e in io.load_run(out)["q1"]] == ["d2", "d1"]

    # ties under every strategy: equal differences (d3, d4), equal single
    # logits (q2's d1, d3), and softmax saturated to exactly 1.0 (d5, d6)
    _TIED_RUN = "".join(f"q1 Q0 d{i} {i} {10 - i}.0 bm25\n" for i in range(1, 7)) + (
        "q2 Q0 d3 1 3.0 bm25\nq2 Q0 d1 2 2.0 bm25\nq2 Q0 d2 3 1.0 bm25\n")
    _TIED_LOGITS = ("q1\td1\t0.5\t0.5\nq1\td2\t1.5\t1.5\nq1\td3\t2.0\t1.0\nq1\td4\t1.0\t0.0\n"
                    "q1\td5\t40.0\t0.0\nq1\td6\t45.0\t-1.0\nq2\td3\t-1.0\t-1.0\n"
                    "q2\td1\t-1.0\t0.0\nq2\td2\t0.0\t1.0\nq3\td9\t1.0\t0.0\n")
    _TIED_OUT = {
        "softmax-true-false": (
            "q1 Q0 d5 1 1.000000 reranked\n"
            "q1 Q0 d6 2 1.000000 reranked\n"
            "q1 Q0 d3 3 0.731059 reranked\n"
            "q1 Q0 d4 4 0.731059 reranked\n"
            "q1 Q0 d1 5 0.500000 reranked\n"
            "q2 Q0 d3 1 0.500000 reranked\n"
            "q2 Q0 d1 2 0.268941 reranked\n"
            "q2 Q0 d2 3 0.268941 reranked\n"
        ),
        "single-logit": (
            "q1 Q0 d6 1 45.000000 reranked\n"
            "q1 Q0 d5 2 40.000000 reranked\n"
            "q1 Q0 d3 3 2.000000 reranked\n"
            "q1 Q0 d2 4 1.500000 reranked\n"
            "q1 Q0 d4 5 1.000000 reranked\n"
            "q2 Q0 d2 1 0.000000 reranked\n"
            "q2 Q0 d1 2 -1.000000 reranked\n"
            "q2 Q0 d3 3 -1.000000 reranked\n"
        ),
        "logit-difference": (
            "q1 Q0 d6 1 46.000000 reranked\n"
            "q1 Q0 d5 2 40.000000 reranked\n"
            "q1 Q0 d3 3 1.000000 reranked\n"
            "q1 Q0 d4 4 1.000000 reranked\n"
            "q1 Q0 d1 5 0.000000 reranked\n"
            "q2 Q0 d3 1 0.000000 reranked\n"
            "q2 Q0 d1 2 -1.000000 reranked\n"
            "q2 Q0 d2 3 -1.000000 reranked\n"
        ),
    }

    @pytest.mark.parametrize("strategy", sorted(_TIED_OUT))
    def test_rerank_external_logits_bytes_with_ties(self, workdir, tmp_path, strategy):
        run = tmp_path / "run.trec"
        run.write_text(self._TIED_RUN)
        logits = tmp_path / "logits.tsv"
        logits.write_text(self._TIED_LOGITS)
        out = tmp_path / "ext.trec"
        assert dispatch([
            "rerank", "--run", str(run), "--corpus", str(workdir / "corpus.jsonl"),
            "--external-logits", str(logits), "--strategy", strategy,
            "--k-in", "6", "--k-out", "5", "--out", str(out),
        ]) == 0
        assert out.read_bytes() == self._TIED_OUT[strategy].encode()

    @pytest.mark.parametrize("bad", ["nan", "inf", "high"])
    def test_rerank_rejects_non_finite_external_logits(self, workdir, tmp_path, bad):
        run = tmp_path / "run.trec"
        run.write_text("q1 Q0 d1 1 2.0 bm25\nq1 Q0 d2 2 1.0 bm25\n")
        logits = tmp_path / "logits.tsv"
        logits.write_text(f"q1\td1\t{bad}\t0.0\nq1\td2\t0.5\t0.0\n")
        out = tmp_path / "ext.trec"
        assert dispatch([
            "rerank", "--run", str(run), "--corpus", str(workdir / "corpus.jsonl"),
            "--external-logits", str(logits), "--k-in", "2", "--out", str(out),
        ]) == 2
        assert not out.exists()

    def test_rerank_names_a_pair_the_external_logits_lack(self, workdir, tmp_path, capsys):
        run = tmp_path / "run.trec"
        run.write_text("q1 Q0 d1 1 3.0 bm25\nq1 Q0 d2 2 2.0 bm25\nq1 Q0 d3 3 1.0 bm25\n")
        logits = tmp_path / "logits.tsv"
        logits.write_text("q1\td1\t0.0\t0.0\nq1\td2\t0.5\t0.0\n")
        out = tmp_path / "ext.trec"
        assert dispatch([
            "rerank", "--run", str(run), "--corpus", str(workdir / "corpus.jsonl"),
            "--external-logits", str(logits), "--k-in", "3", "--out", str(out),
        ]) == 2
        assert "external logits missing pair (q1, d3)" in capsys.readouterr().err
        assert not out.exists()

    def test_rerank_refuses_checkpoint_with_external_logits(self, workdir, tmp_path, capsys):
        params = scorer.init_params(scorer.FeatureConfig(hash_dim=1 << 4), hidden=2, seed=0)
        ckpt = tmp_path / "scorer.ckpt"
        scorer.save_checkpoint(params, scorer.ScoreStrategy.LOGIT_DIFFERENCE, ckpt)
        run = tmp_path / "run.trec"
        run.write_text("q1 Q0 d1 1 2.0 bm25\n")
        queries = tmp_path / "queries.tsv"
        queries.write_text("q1\talpha\tcropped\n")
        out = tmp_path / "ext.trec"
        assert dispatch([
            "rerank", "--run", str(run), "--corpus", str(workdir / "corpus.jsonl"),
            "--queries", str(queries), "--checkpoint", str(ckpt),
            "--external-logits", str(tmp_path / "absent.tsv"), "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert err == "usage error: rerank takes --checkpoint or --external-logits, not both\n"
        assert not out.exists()

    def test_retrieve_dense_and_runfile(self, workdir, tmp_path):
        # dense: one-hot vectors make scores predictable
        store = tmp_path / "store.jsonl"
        qvecs = tmp_path / "qvecs.jsonl"
        store.write_text(
            json.dumps({"doc_id": "d1", "vector": [1.0, 0.0]}) + "\n"
            + json.dumps({"doc_id": "d2", "vector": [0.0, 1.0]}) + "\n"
        )
        queries = tmp_path / "q.tsv"
        queries.write_text("qa\tsome text\tcropped\n")
        qvecs.write_text(json.dumps({"doc_id": "qa", "vector": [1.0, 0.0]}) + "\n")
        out = tmp_path / "dense.trec"
        assert dispatch([
            "retrieve", "--method", "dense", "--store", str(store),
            "--query-vectors", str(qvecs), "--queries", str(queries),
            "--k", "2", "--out", str(out),
        ]) == 0
        run = io.load_run(out)
        assert run["qa"][0].doc_id == "d1"

        out2 = tmp_path / "runfile.trec"
        assert dispatch([
            "retrieve", "--method", "runfile", "--run", str(out),
            "--queries", str(queries), "--k", "1", "--out", str(out2),
        ]) == 0
        assert len(io.load_run(out2)["qa"]) == 1

    def test_distill_with_four_source_backends(self, four_sources, tmp_path):
        out = tmp_path / "d4.jsonl"
        assert dispatch(_four_source_argv(four_sources.inputs, out)) == 0
        examples = io.load_distilled(out)
        assert {ex.source_retriever for ex in examples} == set(Source)
        for ex in examples:
            assert ex.source_retriever is four_sources.assignment[ex.query_id]

    def test_assigned_source_without_backend_is_recorded_failure(self, workdir, tmp_path, capsys):
        assignment_path = tmp_path / "sources.tsv"
        assert dispatch([
            "assign-sources", "--queries", str(workdir / "queries-train.tsv"),
            "--seed", "2", "--out", str(assignment_path),
        ]) == 0
        out = tmp_path / "partial.jsonl"
        assert dispatch([
            "distill",
            "--queries", str(workdir / "queries-train.tsv"),
            "--corpus", str(workdir / "corpus.jsonl"),
            "--assignment", str(assignment_path),
            "--bm25-index", str(workdir / "index.json"),
            "--mock-qrels", str(workdir / "qrels-train.txt"),
            "--k", "10",
            "--out", str(out),
        ]) == 0
        # only the BM25-assigned quarter could be labeled; the rest are failures
        examples = io.load_distilled(out)
        assert 0 < len(examples) < 16
        err = capsys.readouterr().err
        assert "failed" in err

    def test_intersection_two_kind_layout(self, workdir, tmp_path, capsys):
        run_a = tmp_path / "a.trec"
        run_b = tmp_path / "b.trec"
        for path, k in [(run_a, 5), (run_b, 8)]:
            assert dispatch([
                "retrieve", "--method", "bm25", "--index", str(workdir / "index.json"),
                "--queries", str(workdir / "queries-eval.tsv"),
                "--k", str(k), "--out", str(path),
            ]) == 0
        assert dispatch([
            "eval", "intersection",
            "--run", f"x={run_a}", "--run", f"y={run_b}",
            "--run-lower", f"x={run_b}", "--run-lower", f"y={run_a}",
            "--n", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "\tx\ty" in out.splitlines()

    def test_config_file_supplies_defaults(self, workdir, tmp_path):
        cfg = tmp_path / "distilrank.cfg"
        cfg.write_text("retrieve.k = 3\n")
        out = tmp_path / "k3.trec"
        assert dispatch([
            "--config", str(cfg),
            "retrieve", "--method", "bm25", "--index", str(workdir / "index.json"),
            "--queries", str(workdir / "queries-eval.tsv"), "--out", str(out),
        ]) == 0
        run = io.load_run(out)
        assert all(len(entries) <= 3 for entries in run.values())

    def test_ablate_skips_cells_without_training_examples(self, workdir, tmp_path, capsys):
        # a BM25-only distilled set leaves no examples once BM25 is excluded
        distilled = tmp_path / "bm25-only.jsonl"
        assert dispatch([
            "distill",
            "--queries", str(workdir / "queries-train.tsv"),
            "--corpus", str(workdir / "corpus.jsonl"),
            "--bm25-index", str(workdir / "index.json"),
            "--mock-qrels", str(workdir / "qrels-train.txt"),
            "--k", "10", "--out", str(distilled),
        ]) == 0
        assert {ex.source_retriever for ex in io.load_distilled(distilled)} == {Source.BM25}
        base_run = tmp_path / "eval.trec"
        assert dispatch([
            "retrieve", "--method", "bm25", "--index", str(workdir / "index.json"),
            "--queries", str(workdir / "queries-eval.tsv"), "--k", "10", "--out", str(base_run),
        ]) == 0
        grid = tmp_path / "grid.tsv"
        capsys.readouterr()
        assert dispatch([
            "ablate", "--train", str(distilled), "--corpus", str(workdir / "corpus.jsonl"),
            "--queries", str(workdir / "queries-eval.tsv"),
            "--qrels", str(workdir / "qrels-eval.txt"), "--base-run", str(base_run),
            "--epochs", "1", "--batch", "8", "--hash-dim", "1024", "--hidden", "8",
            "--k-in", "10", "--out", str(grid),
        ]) == 0
        rows = [line.split("\t") for line in grid.read_text().splitlines()[1:]]
        assert len(rows) == 90
        assert len({tuple(r[:4]) for r in rows}) == 90
        skipped = [r for r in rows if r[4] == "nan"]
        assert all(r[5] == "nan" for r in skipped)
        excluded = {tuple(r[:4]) for r in rows if r[3] == Source.BM25.value}
        assert {tuple(r[:4]) for r in skipped} == excluded
        assert all(0.0 <= float(r[4]) <= 1.0 and float(r[5]) >= 0.0
                   for r in rows if r[4] != "nan")
        err = capsys.readouterr().err
        assert err.count("skipped") == len(skipped)
        assert f"mixed\t{Source.BM25.value}" in err

    @staticmethod
    def _distill_and_retrieve(workdir, tmp_path):
        """A distilled training set and a BM25 run over the eval queries."""
        distilled = tmp_path / "distilled.jsonl"
        assert dispatch([
            "distill",
            "--queries", str(workdir / "queries-train.tsv"),
            "--corpus", str(workdir / "corpus.jsonl"),
            "--bm25-index", str(workdir / "index.json"),
            "--mock-qrels", str(workdir / "qrels-train.txt"),
            "--k", "10", "--out", str(distilled),
        ]) == 0
        base_run = tmp_path / "eval.trec"
        assert dispatch([
            "retrieve", "--method", "bm25", "--index", str(workdir / "index.json"),
            "--queries", str(workdir / "queries-eval.tsv"), "--k", "10", "--out", str(base_run),
        ]) == 0
        return distilled, base_run

    def test_ablate_featurizes_each_pair_once(self, workdir, tmp_path, monkeypatch):
        distilled, base_run = self._distill_and_retrieve(workdir, tmp_path)
        calls = []

        def counted(query, doc_ids, corpus, table):
            calls.extend((query, corpus[d]) for d in doc_ids)
            return featurize_batch(query, doc_ids, corpus, table)

        featurize_batch = scorer.featurize_batch
        monkeypatch.setattr(scorer, "featurize_batch", counted)
        assert dispatch([
            "ablate", "--train", str(distilled), "--corpus", str(workdir / "corpus.jsonl"),
            "--queries", str(workdir / "queries-eval.tsv"),
            "--qrels", str(workdir / "qrels-eval.txt"), "--base-run", str(base_run),
            "--epochs", "1", "--batch", "8", "--hash-dim", "1024", "--hidden", "8",
            "--k-in", "10", "--out", str(tmp_path / "grid.tsv"),
        ]) == 0
        corpus = {d.doc_id: d.text for d in io.load_corpus(workdir / "corpus.jsonl")}
        texts = {q.query_id: q.text for q in io.load_queries(workdir / "queries-eval.tsv")}
        pairs = {(ex.query_text, d) for ex in io.load_distilled(distilled) for d in ex.doc_ids}
        pairs |= {(texts[qid], e.doc_id) for qid, entries in io.load_run(base_run).items()
                  for e in entries}
        assert len(calls) == len(pairs)
        assert set(calls) == {(text, corpus[d]) for text, d in pairs}

    def test_ablate_gathers_each_evaluation_list_once_from_the_trimmed_store(
            self, workdir, tmp_path, monkeypatch):
        # the lists' matrices are made after the fill, so none sits beside a growth
        distilled, base_run = self._distill_and_retrieve(workdir, tmp_path)
        events = []
        trim, take = scorer.FeatureStore.trim, scorer.FeatureStore.take

        def counted_trim(store):
            events.append("trim")
            return trim(store)

        def counted_take(store, ids):
            events.append("take")
            return take(store, ids)

        monkeypatch.setattr(scorer.FeatureStore, "trim", counted_trim)
        monkeypatch.setattr(scorer.FeatureStore, "take", counted_take)
        _usable_cpus(monkeypatch, 1)  # the recorders see the calls made in this process only
        assert self._ablate(workdir, distilled, base_run, tmp_path / "grid.tsv") == 0
        # ablate's own trim, its gathers, then the first group's prepare_fit trims again
        lists = len(io.load_run(base_run))
        assert events[: lists + 2] == ["trim"] + ["take"] * lists + ["trim"]

    def test_ablate_scores_each_list_as_rerank_does(self, workdir, tmp_path, monkeypatch):
        # every cell's scores have the bits of `rerank`'s score function over the
        # model the cell fitted: one forward per evaluation list. At hidden 32,
        # ablate's default, a row's head product depends on where the row falls
        # in a forward over several lists stacked together
        from distilrank.evaluation import model_score_fn

        distilled, base_run = self._distill_and_retrieve(workdir, tmp_path)
        queries = {q.query_id: q.text for q in io.load_queries(workdir / "queries-eval.tsv")}
        corpus = {d.doc_id: d.text for d in io.load_corpus(workdir / "corpus.jsonl")}
        fit, rerank_run = cli.fit, cli.rerank_run
        fitted, compared = [], []

        def recording_fit(config, *args):
            params, history = fit(config, *args)
            fitted.append((params, config.strategy))
            return params, history

        def comparing_rerank_run(run, score_fn, k_in, k_out):
            params, strategy = fitted[-1]
            want_fn = model_score_fn(params, strategy, queries, corpus)
            for query_id, entries in run.items():
                doc_ids = [e.doc_id for e in entries[:k_in]]
                got, want = score_fn(query_id, doc_ids), want_fn(query_id, doc_ids)
                assert got.dtype == want.dtype == np.float64
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            compared.append(len(run))
            return rerank_run(run, score_fn, k_in=k_in, k_out=k_out)

        monkeypatch.setattr(cli, "fit", recording_fit)
        monkeypatch.setattr(cli, "rerank_run", comparing_rerank_run)
        _usable_cpus(monkeypatch, 1)  # the cells run here, where the recorders are
        assert self._ablate(workdir, distilled, base_run, tmp_path / "grid.tsv",
                            "--hidden", "32") == 0
        assert len(compared) == len(fitted) > 0
        assert set(compared) == {len(io.load_run(base_run))}

    @staticmethod
    def _ablate(workdir, distilled, base_run, grid, *extra):
        return dispatch([
            "ablate", "--train", str(distilled), "--corpus", str(workdir / "corpus.jsonl"),
            "--queries", str(workdir / "queries-eval.tsv"),
            "--qrels", str(workdir / "qrels-eval.txt"), "--base-run", str(base_run),
            "--epochs", "1", "--batch", "8", "--hash-dim", "1024", "--hidden", "8",
            "--k-in", "10", "--out", str(grid), *extra,
        ])

    def test_ablate_prepares_each_group_once(self, workdir, tmp_path, monkeypatch):
        # both strategies of a (documents, kind, source) group train on one preparation,
        # each through fit
        from distilrank import cli, training

        distilled, base_run = self._distill_and_retrieve(workdir, tmp_path)
        groups, prepared, fitted = [], [], []
        prepare_fit, prepare_example, fit = cli.prepare_fit, training.prepare_example, cli.fit

        def counted_prepare(config, train, val, corpus, store):
            groups.append((config.docs_per_query, config.kind_filter, config.excluded_source))
            return prepare_fit(config, train, val, corpus, store)

        def counted_example(example, corpus, store):
            prepared.append(example.query_id)
            return prepare_example(example, corpus, store)

        def counted_fit(config, *args):
            fitted.append((config.docs_per_query, config.kind_filter, config.excluded_source))
            return fit(config, *args)

        monkeypatch.setattr(cli, "prepare_fit", counted_prepare)
        monkeypatch.setattr(training, "prepare_example", counted_example)
        monkeypatch.setattr(cli, "fit", counted_fit)
        _usable_cpus(monkeypatch, 1)  # the recorders see the calls made in this process only
        assert self._ablate(workdir, distilled, base_run, tmp_path / "grid.tsv") == 0
        examples = io.load_distilled(distilled)
        # from the most documents down, so that the smaller subsets find their pairs featurized
        expected = [(docs, kind, source) for docs in (30, 20, 10) for kind in KindFilter
                    for source in (None, *Source) if filter_examples(examples, kind, source)]
        assert groups == expected and len(expected) < 45
        assert fitted == [group for group in expected for _ in range(2)]
        # a fit per cell prepared each kept example once per strategy
        per_cell = 2 * sum(len(filter_examples(examples, kind, source))
                           for _, kind, source in expected)
        assert 2 * len(prepared) == per_cell

    def test_ablate_writes_a_diverged_cell_as_nan(self, workdir, tmp_path, monkeypatch, capsys):
        from distilrank import cli

        distilled, base_run = self._distill_and_retrieve(workdir, tmp_path)
        fit = cli.fit

        def diverging(config, *args):
            if config.strategy is ScoreStrategy.SINGLE_LOGIT:
                raise NonFiniteError("training diverged at epoch 1, batch 0: non-finite loss")
            return fit(config, *args)

        monkeypatch.setattr(cli, "fit", diverging)
        grid = tmp_path / "grid.tsv"
        capsys.readouterr()
        assert self._ablate(workdir, distilled, base_run, grid) == 0
        rows = [line.split("\t") for line in grid.read_text().splitlines()[1:]]
        assert len({tuple(r[:4]) for r in rows}) == 90
        # the distilled set is BM25-only, so excluding BM25 skips a cell
        trained = [r for r in rows if r[3] != Source.BM25.value]
        failed = [r for r in trained if r[0] == ScoreStrategy.SINGLE_LOGIT.value]
        assert failed and all(r[4:] == ["nan", "nan"] for r in failed)
        assert all(0.0 <= float(r[4]) <= 1.0 and float(r[5]) >= 0.0
                   for r in trained if r not in failed)
        err = capsys.readouterr().err
        assert err.count("failed") == len(failed)
        for r in failed:
            cell_no = rows.index(r) + 1
            assert (f"[{cell_no}/90] failed, training diverged at epoch 1, batch 0: "
                    "non-finite loss: " + "\t".join(r[:4])) in err

    def test_ablate_ends_on_an_error_that_is_not_a_divergence(
            self, workdir, tmp_path, monkeypatch, capsys):
        # a fault of the program, such as a shape mismatch, is no diverged cell
        from distilrank import cli

        distilled, base_run = self._distill_and_retrieve(workdir, tmp_path)

        def broken(*args):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(cli, "fit", broken)
        grid = tmp_path / "grid.tsv"
        for cpus in (1, 2):  # in this process and in forked workers
            _usable_cpus(monkeypatch, cpus)
            capsys.readouterr()
            assert self._ablate(workdir, distilled, base_run, grid) == 2
            assert multiprocessing.active_children() == []
            assert not grid.exists()
            err = capsys.readouterr().err
            assert "operands could not be broadcast together" in err and "] failed, " not in err

    def test_ablate_exits_2_when_every_trained_cell_diverges(self, workdir, tmp_path, capsys):
        distilled, base_run = self._distill_and_retrieve(workdir, tmp_path)
        grid = tmp_path / "grid.tsv"
        capsys.readouterr()
        assert self._ablate(workdir, distilled, base_run, grid, "--lr", "1e200") == 2  # 1 epoch
        rows = [line.split("\t") for line in grid.read_text().splitlines()[1:]]
        assert len(rows) == 90 and all(r[4:] == ["nan", "nan"] for r in rows)
        err = capsys.readouterr().err
        skipped = err.count("skipped, no training examples")
        failed = [line for line in err.splitlines() if "] failed, " in line]
        assert len(failed) == 90 - skipped > 0
        # each line says where its cell diverged: in a batch or in the history evaluation
        where = re.compile(r"\] failed, training diverged at epoch 1, "
                           r"(batch \d+|in the history evaluation): ")
        assert [line for line in failed if not where.search(line)] == []
        assert f"error: all {90 - skipped} trained cells failed, {skipped} skipped" in err

    def test_ablate_names_a_cell_that_fails_in_its_rerank(
            self, workdir, tmp_path, monkeypatch, capsys):
        from distilrank import cli

        distilled, base_run = self._distill_and_retrieve(workdir, tmp_path)

        def diverging(run, score_fn, **kwargs):
            raise NonFiniteError("forward pass produced non-finite logits")

        monkeypatch.setattr(cli, "rerank_run", diverging)
        grid = tmp_path / "grid.tsv"
        for cpus in (1, 2):  # in this process and in forked workers
            _usable_cpus(monkeypatch, cpus)
            capsys.readouterr()
            assert self._ablate(workdir, distilled, base_run, grid) == 2
            assert multiprocessing.active_children() == []
            err = capsys.readouterr().err
            failed = [line for line in err.splitlines() if "] failed, " in line]
            assert failed and all("] failed, in the rerank, forward pass produced non-finite "
                                  "logits: " in line for line in failed)
            assert err.endswith(f"error: all {len(failed)} trained cells failed, "
                                f"{90 - len(failed)} skipped\n")

    def test_ablate_names_a_ranked_query_without_text(
            self, workdir, tmp_path, monkeypatch, capsys):
        # every cell would rerank the query, so ablate refuses it before any cell trains
        distilled, base_run = self._distill_and_retrieve(workdir, tmp_path)
        doc_id = base_run.read_text().split()[2]
        base_run.write_text(base_run.read_text() + f"q-untexted Q0 {doc_id} 1 1.000000 bm25\n")
        fit, fitted_in = cli.fit, tmp_path / "pids.txt"

        def recording_fit(*args):  # a forked worker's call shows in the file
            with open(fitted_in, "a", encoding="utf-8") as f:
                f.write(f"{os.getpid()}\n")
            return fit(*args)

        monkeypatch.setattr(cli, "fit", recording_fit)
        grid = tmp_path / "grid.tsv"
        for cpus in (1, 2):
            _usable_cpus(monkeypatch, cpus)
            fitted_in.write_text("")
            capsys.readouterr()
            assert self._ablate(workdir, distilled, base_run, grid, "--verbose") == 2
            assert multiprocessing.active_children() == []
            assert not grid.exists()
            assert capsys.readouterr().err == (
                "error: query 'q-untexted' has no text available for scoring\n")
            assert fitted_in.read_text() == ""

    def test_ablate_output_is_the_same_in_forked_workers(
            self, workdir, tmp_path, monkeypatch, capsys):
        # the BM25-excluded cells are skipped and the 20-document single-logit cells
        # diverge, in this process and in two forked workers, which inherit the patched fit
        from distilrank import cli

        distilled, base_run = self._distill_and_retrieve(workdir, tmp_path)
        fit, fitted_in = cli.fit, tmp_path / "pids.txt"

        def diverging(config, *args):
            with open(fitted_in, "a", encoding="utf-8") as f:
                f.write(f"{os.getpid()}\n")
            if config.strategy is ScoreStrategy.SINGLE_LOGIT and config.docs_per_query == 20:
                raise NonFiniteError("training diverged at epoch 1, batch 0: non-finite loss")
            return fit(config, *args)

        monkeypatch.setattr(cli, "fit", diverging)
        grid = tmp_path / "grid.tsv"
        outputs, pids = [], []
        for cpus in (1, 2):
            _usable_cpus(monkeypatch, cpus)
            fitted_in.write_text("")
            capsys.readouterr()
            assert self._ablate(workdir, distilled, base_run, grid, "--verbose") == 0
            assert multiprocessing.active_children() == []
            outputs.append((grid.read_bytes(), *capsys.readouterr()))
            pids.append(set(fitted_in.read_text().split()))
        assert outputs[0] == outputs[1]
        err = outputs[0][2]
        assert "] skipped, no training examples" in err
        assert "] failed, training diverged at epoch 1, batch 0: non-finite loss: " in err
        # one CPU fits every cell here; two fit none here
        assert pids[0] == {str(os.getpid())}
        assert pids[1] and str(os.getpid()) not in pids[1]

    def test_train_and_rerank_never_featurize_per_pair(self, workdir, tmp_path, monkeypatch):
        distilled, base_run = self._distill_and_retrieve(workdir, tmp_path)

        def per_pair(*args, **kwargs):
            raise AssertionError("the pipeline featurized one pair at a time")

        monkeypatch.setattr(scorer, "featurize", per_pair)
        ckpt = tmp_path / "scorer.ckpt"
        history = tmp_path / "history.tsv"
        assert dispatch([
            "train", "--train", str(distilled), "--corpus", str(workdir / "corpus.jsonl"),
            "--epochs", "2", "--batch", "4", "--docs", "10", "--hash-dim", "1024",
            "--hidden", "8", "--checkpoint", str(ckpt), "--history", str(history),
        ]) == 0
        assert len(history.read_text().splitlines()) == 1 + 3  # header, epochs 0..2
        assert dispatch([
            "rerank", "--run", str(base_run), "--corpus", str(workdir / "corpus.jsonl"),
            "--queries", str(workdir / "queries-eval.tsv"), "--checkpoint", str(ckpt),
            "--k-in", "10", "--out", str(tmp_path / "reranked.trec"),
        ]) == 0

    def test_rerank_scores_the_model_train_fitted(self, workdir, tmp_path, monkeypatch):
        # the checkpoint holds the arrays fit returned, bit for bit, so rerank
        # scores the trained model and not a rounded copy of it
        distilled, base_run = self._distill_and_retrieve(workdir, tmp_path)
        fitted, scored = [], {}
        fit, model_score_fn = cli.fit, cli.model_score_fn

        def recording_fit(*args):
            params, history = fit(*args)
            fitted.append(copy.deepcopy(params))
            return params, history

        def recording_score_fn(*args):
            fn = model_score_fn(*args)

            def scoring(query_id, doc_ids):
                scored[query_id] = (list(doc_ids), fn(query_id, doc_ids))
                return scored[query_id][1]

            return scoring

        monkeypatch.setattr(cli, "fit", recording_fit)
        monkeypatch.setattr(cli, "model_score_fn", recording_score_fn)
        ckpt = tmp_path / "scorer.ckpt"
        assert dispatch([
            "train", "--train", str(distilled), "--corpus", str(workdir / "corpus.jsonl"),
            "--epochs", "2", "--batch", "4", "--docs", "10", "--hash-dim", "1024",
            "--hidden", "8", "--strategy", "softmax-true-false", "--checkpoint", str(ckpt),
        ]) == 0
        assert dispatch([
            "rerank", "--run", str(base_run), "--corpus", str(workdir / "corpus.jsonl"),
            "--queries", str(workdir / "queries-eval.tsv"), "--checkpoint", str(ckpt),
            "--k-in", "10", "--out", str(tmp_path / "reranked.trec"),
        ]) == 0

        (trained,) = fitted
        loaded, strategy = scorer.load_checkpoint(ckpt)
        assert strategy is ScoreStrategy.SOFTMAX_TRUE_FALSE
        for got, want in zip(loaded.arrays(), trained.arrays()):
            assert got.dtype == want.dtype == np.float32
            np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
        queries = {q.query_id: q.text for q in io.load_queries(workdir / "queries-eval.tsv")}
        corpus = {d.doc_id: d.text for d in io.load_corpus(workdir / "corpus.jsonl")}
        table = scorer.TermTable(trained.feature)
        assert len(scored) == len(queries)
        for qid, (doc_ids, scores) in scored.items():
            rows = scorer.featurize_batch(queries[qid], doc_ids, corpus, table)
            want = scorer.score_batch(scorer.forward(trained, rows)[2], strategy)
            np.testing.assert_array_equal(scores, want)

    @pytest.mark.parametrize(
        "command, option, value, message",
        [
            ("ablate", "--epochs", "-1", "epochs must be >= 0"),
            ("train", "--epochs", "-1", "epochs must be >= 0"),
            ("train", "--lr", "nan", "learning rate must be finite and positive"),
            ("train", "--weight-decay", "-5", "weight decay must be finite and non-negative"),
            ("train", "--hidden", "0", "hidden must be >= 1, got 0"),
            ("ablate", "--hidden", "0", "hidden must be >= 1, got 0"),
        ],
    )
    def test_invalid_training_option_is_an_error(
        self, workdir, tmp_path, capsys, command, option, value, message
    ):
        distilled, base_run = self._distill_and_retrieve(workdir, tmp_path)
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--train", str(distilled), "--checkpoint", str(out)],
            "ablate": ["ablate", "--train", str(distilled),
                       "--queries", str(workdir / "queries-eval.tsv"),
                       "--qrels", str(workdir / "qrels-eval.txt"), "--base-run", str(base_run),
                       "--k-in", "10", "--out", str(out)],
        }[command]
        capsys.readouterr()
        assert dispatch(argv + ["--corpus", str(workdir / "corpus.jsonl"), "--hash-dim", "1024",
                                "--hidden", "8", option, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not out.exists()


def _subcommands(parser, path=()):
    """(argv prefix, parser) of every subcommand, groups such as ``eval`` included."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield path + (name,), sub
                yield from _subcommands(sub, path + (name,))


class TestHelpAndTable:
    def test_every_subcommand_help_exits_0(self, capsys):
        paths = [path for path, _ in _subcommands(build_parser())]
        assert len(paths) == 17  # 14 runnable, 3 groups
        for path in paths:
            with pytest.raises(SystemExit) as exc:
                dispatch([*path, "--help"])
            assert exc.value.code == 0, path
            assert "usage: distilrank " + " ".join(path) in capsys.readouterr().out

    @pytest.mark.parametrize("command,default", [("train", 10), ("ablate", 5)])
    def test_help_shows_key_and_subcommand_default(self, capsys, command, default):
        with pytest.raises(SystemExit):
            dispatch([command, "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert f"--epochs EPOCHS training epochs [train.epochs] (default: {default})" in out

    def test_help_lists_file_only_keys(self, capsys):
        with pytest.raises(SystemExit):
            dispatch(["distill", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "[llm.timeout_s] (default: 60.0)" in out

    def test_every_key_is_attached_to_a_subcommand(self):
        attached = set()
        for _, parser in _subcommands(build_parser()):
            attached |= set(parser.get_default("options") or {})
        assert attached == set(OPTIONS)

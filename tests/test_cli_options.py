"""Pins of the option values each subcommand hands the library.

Every library entry point a subcommand reaches is replaced by a recorder in
``distilrank.cli``; the run stops at one named call, and the test compares
the recorded arguments with the documented defaults, a ``--config`` file's
value, and a flag on top of that file.
"""

import math
import os
from types import SimpleNamespace
from typing import Callable, NamedTuple

import pytest

from distilrank import cli, io
from distilrank.augment import CropConfig
from distilrank.cli import dispatch
from distilrank.distill import WindowPlan
from distilrank.llm import LlmConfig, RetryPolicy
from distilrank.retrieval import build_index, save_index
from distilrank.scorer import FeatureConfig, ScoreStrategy
from distilrank.training import KindFilter, TrainConfig
from distilrank.types import DistilledExample, Document, Qrels, Query, QueryKind, ScoredDoc, Source


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A two-document workspace: just enough input for every subcommand to start."""
    root = tmp_path_factory.mktemp("options")
    docs = [Document("d1", "alpha beta gamma. delta epsilon zeta eta."),
            Document("d2", "beta gamma theta. iota kappa lambda mu.")]
    queries = [Query("q1", "beta gamma", QueryKind.CROPPED),
               Query("q2", "theta iota", QueryKind.GENERATED)]
    io.save_text(root / "corpus.jsonl", io.write_corpus(docs))
    io.save_text(root / "queries.tsv", io.write_queries(queries))
    io.save_text(root / "qrels.txt", io.write_qrels(Qrels({"q1": {"d1": 1}, "q2": {"d2": 1}})))
    io.save_text(root / "run.trec", io.write_run({
        q.query_id: [ScoredDoc("d1", 2.0), ScoredDoc("d2", 1.0)] for q in queries
    }, "bm25"))
    io.save_text(root / "distilled.jsonl", io.write_distilled([
        DistilledExample(q.query_id, q.text, q.kind, Source.BM25, ("d1", "d2"), (1, 2))
        for q in queries
    ]))
    (root / "logits.tsv").write_text("q1\td1\t1.0\t0.0\nq1\td2\t0.0\t0.0\n")
    (root / "scores.tsv").write_text("q1\td1\t1.0\n")
    (root / "sources.tsv").write_text("q1\tMonoT5\nq2\tBM25\n")
    save_index(build_index(docs), root / "index.json")
    return root


class _Reached(Exception):
    """Raised by the recorder that ends a pinned run."""


def _pin(monkeypatch, argv, stop_at):
    """Dispatch ``argv`` with the library replaced by recorders.

    Returns ``{name: (args, kwargs)}`` of each recorder's first call; the
    run ends when ``stop_at`` is called.
    """
    calls = {}

    def recorder(name, result=None):
        def fake(*args, **kwargs):
            calls.setdefault(name, (args, kwargs))
            if name == stop_at:
                raise _Reached
            return result(*args, **kwargs) if result else None
        monkeypatch.setattr(cli, name, fake)

    for name in ("build_index", "search_bm25", "crop_sentences", "LlmClient", "api_llm",
                 "init_params", "model_score_fn", "rerank_run", "evaluate_run",
                 "intersection_matrix", "compose_rerank"):
        recorder(name)
    recorder("distill", lambda queries, retrieve, llm, **kw: retrieve(queries[0]))
    recorder("fit", lambda config, prepared, params, *rest:
             (params, [SimpleNamespace(train_loss=0.0)]))
    # one usable CPU: ablate runs its cells in this process, where the recorders are
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    with pytest.raises(_Reached):
        dispatch(argv)
    return calls


def _argv(ws):
    """Each subcommand with tunables, run with only the flags it requires."""
    return {
        "index build": ["index", "build", "--corpus", str(ws / "corpus.jsonl"),
                        "--out", str(ws / "unused.json")],
        "retrieve": ["retrieve", "--method", "bm25", "--index", str(ws / "index.json"),
                     "--queries", str(ws / "queries.tsv"), "--out", str(ws / "unused.trec")],
        "augment crop": ["augment", "crop", "--corpus", str(ws / "corpus.jsonl"), "--n", "3",
                         "--out", str(ws / "unused.tsv")],
        "distill mock": ["distill", "--queries", str(ws / "queries.tsv"),
                         "--corpus", str(ws / "corpus.jsonl"),
                         "--bm25-index", str(ws / "index.json"),
                         "--mock-qrels", str(ws / "qrels.txt"), "--out", str(ws / "unused.jsonl")],
        "distill compose": ["distill", "--queries", str(ws / "queries.tsv"),
                            "--corpus", str(ws / "corpus.jsonl"),
                            "--bm25-index", str(ws / "index.json"),
                            "--assignment", str(ws / "sources.tsv"),
                            "--monot5-scores", str(ws / "scores.tsv"),
                            "--mock-qrels", str(ws / "qrels.txt"),
                            "--out", str(ws / "unused.jsonl")],
        "distill endpoint": ["distill", "--queries", str(ws / "queries.tsv"),
                             "--corpus", str(ws / "corpus.jsonl"),
                             "--bm25-index", str(ws / "index.json"),
                             "--endpoint", "http://127.0.0.1:1/never-contacted",
                             "--out", str(ws / "unused.jsonl")],
        "distill teacher": ["distill", "--queries", str(ws / "queries.tsv"),
                            "--corpus", str(ws / "corpus.jsonl"),
                            "--bm25-index", str(ws / "index.json"),
                            "--out", str(ws / "unused.jsonl")],
        "train": ["train", "--train", str(ws / "distilled.jsonl"),
                  "--corpus", str(ws / "corpus.jsonl"), "--checkpoint", str(ws / "unused.ckpt")],
        "rerank": ["rerank", "--run", str(ws / "run.trec"), "--corpus", str(ws / "corpus.jsonl"),
                   "--external-logits", str(ws / "logits.tsv"), "--out", str(ws / "unused.trec")],
        "eval ndcg": ["eval", "ndcg", "--run", str(ws / "run.trec"), "--qrels", str(ws / "qrels.txt")],
        "eval intersection": ["eval", "intersection", "--run", f"a={ws / 'run.trec'}",
                              "--run", f"b={ws / 'run.trec'}"],
        "ablate": ["ablate", "--train", str(ws / "distilled.jsonl"),
                   "--corpus", str(ws / "corpus.jsonl"), "--queries", str(ws / "queries.tsv"),
                   "--qrels", str(ws / "qrels.txt"), "--base-run", str(ws / "run.trec"),
                   "--out", str(ws / "unused.tsv")],
    }


class TestDefaults:
    def test_index_build(self, ws, monkeypatch):
        calls = _pin(monkeypatch, _argv(ws)["index build"], "build_index")
        assert calls["build_index"][1] == {"k1": 0.9, "b": 0.4}

    def test_retrieve(self, ws, monkeypatch):
        calls = _pin(monkeypatch, _argv(ws)["retrieve"], "search_bm25")
        assert calls["search_bm25"][0][1:] == ("beta gamma", 30)

    def test_augment_crop(self, ws, monkeypatch):
        calls = _pin(monkeypatch, _argv(ws)["augment crop"], "crop_sentences")
        assert calls["crop_sentences"][0][1] == CropConfig(n=3, min_tokens=5, max_tokens=40, seed=0)

    def test_distill_with_mock_teacher(self, ws, monkeypatch):
        calls = _pin(monkeypatch, _argv(ws)["distill mock"], "search_bm25")
        assert calls["distill"][1]["plan"] == WindowPlan(window=30, step=30)
        assert calls["distill"][1]["max_in_flight"] == 4
        assert calls["search_bm25"][0][2] == 30
        assert "LlmClient" not in calls

    def test_distill_composes_the_monot5_run(self, ws, monkeypatch):
        calls = _pin(monkeypatch, _argv(ws)["distill compose"], "compose_rerank")
        assert calls["search_bm25"][0][1:] == ("beta gamma", 100)
        assert calls["compose_rerank"][0][2:] == (100, 30)

    def test_distill_with_endpoint(self, ws, monkeypatch):
        calls = _pin(monkeypatch, _argv(ws)["distill endpoint"], "search_bm25")
        assert calls["LlmClient"][0][0] == LlmConfig(
            endpoint="http://127.0.0.1:1/never-contacted",
            model="gpt-3.5-turbo-16k-0613",
            temperature=0.0,
            retry=RetryPolicy(max_attempts=5, backoff_base=1.0, backoff_factor=2.0),
            budget_usd=math.inf,
            prompt_price_per_1k=0.003,
            completion_price_per_1k=0.004,
            timeout_s=60.0,
        )
        assert calls["api_llm"][0][2] == 120
        assert calls["distill"][1]["plan"] == WindowPlan(window=30, step=30)
        assert calls["distill"][1]["max_in_flight"] == 4
        assert calls["search_bm25"][0][2] == 30

    def test_train(self, ws, monkeypatch):
        calls = _pin(monkeypatch, _argv(ws)["train"], "fit")
        assert calls["init_params"] == (
            (FeatureConfig(hash_dim=1 << 18, interaction_cap=16),), {"hidden": 64, "seed": 0})
        assert calls["fit"][0][0] == TrainConfig(
            batch_queries=32, docs_per_query=30, learning_rate=1e-3,
            beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.01, epochs=10, seed=0,
            strategy=ScoreStrategy.LOGIT_DIFFERENCE, kind_filter=KindFilter.MIXED,
            excluded_source=None,
        )

    def test_rerank(self, ws, monkeypatch):
        calls = _pin(monkeypatch, _argv(ws)["rerank"], "rerank_run")
        assert calls["rerank_run"][1] == {"k_in": 100, "k_out": 100}

    def test_eval_ndcg(self, ws, monkeypatch):
        calls = _pin(monkeypatch, _argv(ws)["eval ndcg"], "evaluate_run")
        assert calls["evaluate_run"][0][2] == 10

    def test_eval_intersection(self, ws, monkeypatch):
        calls = _pin(monkeypatch, _argv(ws)["eval intersection"], "intersection_matrix")
        assert calls["intersection_matrix"][0][1] == 30

    def test_ablate_has_smaller_defaults(self, ws, monkeypatch):
        calls = _pin(monkeypatch, _argv(ws)["ablate"], "evaluate_run")
        assert calls["init_params"] == (
            (FeatureConfig(hash_dim=1 << 14, interaction_cap=16),), {"hidden": 32, "seed": 0})
        # the grid trains its 30-document cells first
        assert calls["fit"][0][0] == TrainConfig(
            batch_queries=8, docs_per_query=30, learning_rate=1e-3, epochs=5, seed=0,
            strategy=ScoreStrategy.LOGIT_DIFFERENCE, kind_filter=KindFilter.MIXED,
            excluded_source=None,
        )
        assert calls["rerank_run"][1] == {"k_in": 30, "k_out": 30}
        assert calls["evaluate_run"][0][2] == 10


def _fit_config(calls):
    return calls["fit"][0][0]


def _llm_config(calls):
    return calls["LlmClient"][0][0]


class _Case(NamedTuple):
    command: str
    stop_at: str
    key: str
    file_value: str
    from_file: object
    flag: list[str] | None  # None: the key has no flag
    from_flag: object
    read: Callable[[dict], object]


_CASES = [
    _Case("index build", "build_index", "bm25.k1", "1.2", 1.2, ["--k1", "2.0"], 2.0,
          lambda c: c["build_index"][1]["k1"]),
    _Case("index build", "build_index", "bm25.b", "0.5", 0.5, ["--b", "0.6"], 0.6,
          lambda c: c["build_index"][1]["b"]),
    _Case("retrieve", "search_bm25", "retrieve.k", "7", 7, ["--k", "9"], 9,
          lambda c: c["search_bm25"][0][2]),
    _Case("augment crop", "crop_sentences", "crop.min_tokens", "2", 2, ["--min-tokens", "3"], 3,
          lambda c: c["crop_sentences"][0][1].min_tokens),
    _Case("augment crop", "crop_sentences", "crop.max_tokens", "20", 20, ["--max-tokens", "21"], 21,
          lambda c: c["crop_sentences"][0][1].max_tokens),
    _Case("distill mock", "search_bm25", "retrieve.k", "7", 7, ["--k", "9"], 9,
          lambda c: c["search_bm25"][0][2]),
    _Case("distill mock", "search_bm25", "window.size", "40", 40, ["--window", "35"], 35,
          lambda c: c["distill"][1]["plan"].window),
    _Case("distill mock", "search_bm25", "window.step", "10", 10, ["--step", "5"], 5,
          lambda c: c["distill"][1]["plan"].step),
    _Case("distill mock", "search_bm25", "llm.max_in_flight", "2", 2, ["--max-in-flight", "3"], 3,
          lambda c: c["distill"][1]["max_in_flight"]),
    _Case("distill compose", "compose_rerank", "compose.k_pool", "50", 50, ["--k-pool", "60"], 60,
          lambda c: c["compose_rerank"][0][2]),
    _Case("distill teacher", "search_bm25", "llm.endpoint", "http://127.0.0.1:1/file",
          "http://127.0.0.1:1/file", ["--endpoint", "http://127.0.0.1:1/flag"],
          "http://127.0.0.1:1/flag", lambda c: _llm_config(c).endpoint),
    _Case("distill endpoint", "search_bm25", "llm.model", "m-file", "m-file",
          ["--model", "m-flag"], "m-flag", lambda c: _llm_config(c).model),
    _Case("distill endpoint", "search_bm25", "llm.temperature", "0.5", 0.5,
          ["--temperature", "0.7"], 0.7, lambda c: _llm_config(c).temperature),
    _Case("distill endpoint", "search_bm25", "llm.budget_usd", "2.5", 2.5,
          ["--budget-usd", "3.5"], 3.5, lambda c: _llm_config(c).budget_usd),
    _Case("distill endpoint", "search_bm25", "prompt.passage_word_budget", "80", 80,
          ["--passage-words", "90"], 90, lambda c: c["api_llm"][0][2]),
    _Case("distill endpoint", "search_bm25", "llm.timeout_s", "5", 5.0, None, None,
          lambda c: _llm_config(c).timeout_s),
    _Case("distill endpoint", "search_bm25", "llm.retry_max_attempts", "2", 2, None, None,
          lambda c: _llm_config(c).retry.max_attempts),
    _Case("distill endpoint", "search_bm25", "llm.backoff_base", "0.5", 0.5, None, None,
          lambda c: _llm_config(c).retry.backoff_base),
    _Case("distill endpoint", "search_bm25", "llm.backoff_factor", "3", 3.0, None, None,
          lambda c: _llm_config(c).retry.backoff_factor),
    _Case("distill endpoint", "search_bm25", "llm.prompt_price_per_1k", "0.1", 0.1, None, None,
          lambda c: _llm_config(c).prompt_price_per_1k),
    _Case("distill endpoint", "search_bm25", "llm.completion_price_per_1k", "0.2", 0.2, None, None,
          lambda c: _llm_config(c).completion_price_per_1k),
    _Case("train", "fit", "train.epochs", "3", 3, ["--epochs", "2"], 2,
          lambda c: _fit_config(c).epochs),
    _Case("train", "fit", "train.batch", "4", 4, ["--batch", "2"], 2,
          lambda c: _fit_config(c).batch_queries),
    _Case("train", "fit", "train.docs", "20", 20, ["--docs", "10"], 10,
          lambda c: _fit_config(c).docs_per_query),
    _Case("train", "fit", "train.lr", "0.01", 0.01, ["--lr", "0.02"], 0.02,
          lambda c: _fit_config(c).learning_rate),
    _Case("train", "fit", "train.weight_decay", "0.1", 0.1, ["--weight-decay", "0.2"], 0.2,
          lambda c: _fit_config(c).weight_decay),
    _Case("train", "fit", "train.beta1", "0.8", 0.8, None, None, lambda c: _fit_config(c).beta1),
    _Case("train", "fit", "train.beta2", "0.99", 0.99, None, None, lambda c: _fit_config(c).beta2),
    _Case("train", "fit", "train.eps", "1e-6", 1e-6, None, None, lambda c: _fit_config(c).eps),
    _Case("train", "fit", "train.strategy", "single-logit", ScoreStrategy.SINGLE_LOGIT,
          ["--strategy", "logit-difference"], ScoreStrategy.LOGIT_DIFFERENCE,
          lambda c: _fit_config(c).strategy),
    _Case("train", "fit", "train.kind", "cropped-only", KindFilter.CROPPED_ONLY,
          ["--kind", "generated-only"], KindFilter.GENERATED_ONLY,
          lambda c: _fit_config(c).kind_filter),
    _Case("train", "fit", "train.exclude_source", "SPLADE", Source.SPLADE,
          ["--exclude-source", "DRAGON"], Source.DRAGON,
          lambda c: _fit_config(c).excluded_source),
    _Case("train", "fit", "feature.hash_dim", "4096", 4096, ["--hash-dim", "2048"], 2048,
          lambda c: c["init_params"][0][0].hash_dim),
    _Case("train", "fit", "feature.interaction_cap", "8", 8, ["--interaction-cap", "4"], 4,
          lambda c: c["init_params"][0][0].interaction_cap),
    _Case("train", "fit", "feature.hidden", "16", 16, ["--hidden", "8"], 8,
          lambda c: c["init_params"][1]["hidden"]),
    # k_out follows k_in when it is not set
    _Case("rerank", "rerank_run", "rerank.k_in", "7", (7, 7), ["--k-in", "9"], (9, 9),
          lambda c: (c["rerank_run"][1]["k_in"], c["rerank_run"][1]["k_out"])),
    _Case("rerank", "rerank_run", "rerank.k_out", "5", 5, ["--k-out", "6"], 6,
          lambda c: c["rerank_run"][1]["k_out"]),
    _Case("eval ndcg", "evaluate_run", "eval.k", "5", 5, ["--k", "3"], 3,
          lambda c: c["evaluate_run"][0][2]),
    _Case("eval intersection", "intersection_matrix", "eval.n", "5", 5, ["--n", "3"], 3,
          lambda c: c["intersection_matrix"][0][1]),
    _Case("ablate", "evaluate_run", "train.epochs", "3", 3, ["--epochs", "2"], 2,
          lambda c: _fit_config(c).epochs),
    _Case("ablate", "evaluate_run", "train.batch", "4", 4, ["--batch", "2"], 2,
          lambda c: _fit_config(c).batch_queries),
    _Case("ablate", "evaluate_run", "train.lr", "0.01", 0.01, ["--lr", "0.02"], 0.02,
          lambda c: _fit_config(c).learning_rate),
    _Case("ablate", "evaluate_run", "train.weight_decay", "0.5", 0.5, ["--weight-decay", "0.2"], 0.2,
          lambda c: _fit_config(c).weight_decay),
    _Case("ablate", "evaluate_run", "train.beta1", "0.8", 0.8, None, None,
          lambda c: _fit_config(c).beta1),
    _Case("ablate", "evaluate_run", "train.beta2", "0.99", 0.99, None, None,
          lambda c: _fit_config(c).beta2),
    _Case("ablate", "evaluate_run", "train.eps", "0.1", 0.1, None, None,
          lambda c: _fit_config(c).eps),
    _Case("ablate", "evaluate_run", "feature.hash_dim", "4096", 4096, ["--hash-dim", "2048"], 2048,
          lambda c: c["init_params"][0][0].hash_dim),
    _Case("ablate", "evaluate_run", "feature.interaction_cap", "8", 8,
          ["--interaction-cap", "4"], 4, lambda c: c["init_params"][0][0].interaction_cap),
    _Case("ablate", "evaluate_run", "feature.hidden", "16", 16, ["--hidden", "8"], 8,
          lambda c: c["init_params"][1]["hidden"]),
    _Case("ablate", "evaluate_run", "rerank.k_in", "7", 7, ["--k-in", "9"], 9,
          lambda c: c["rerank_run"][1]["k_in"]),
    _Case("ablate", "evaluate_run", "eval.k", "5", 5, ["--k", "3"], 3,
          lambda c: c["evaluate_run"][0][2]),
]


def _config_file(tmp_path, case):
    path = tmp_path / "distilrank.cfg"
    path.write_text(f"{case.key} = {case.file_value}\n")
    return ["--config", str(path)]


@pytest.mark.parametrize("case", _CASES, ids=[f"{c.command}:{c.key}" for c in _CASES])
def test_config_file_beats_default(ws, tmp_path, monkeypatch, case):
    argv = _config_file(tmp_path, case) + _argv(ws)[case.command]
    assert case.read(_pin(monkeypatch, argv, case.stop_at)) == case.from_file


_FLAG_CASES = [c for c in _CASES if c.flag is not None]


@pytest.mark.parametrize("case", _FLAG_CASES, ids=[f"{c.command}:{c.key}" for c in _FLAG_CASES])
def test_flag_beats_config_file(ws, tmp_path, monkeypatch, case):
    argv = _config_file(tmp_path, case) + _argv(ws)[case.command] + case.flag
    assert case.read(_pin(monkeypatch, argv, case.stop_at)) == case.from_flag


def test_config_file_reaches_train_and_ablate(ws, tmp_path, monkeypatch):
    cfg = tmp_path / "distilrank.cfg"
    cfg.write_text("train.epochs = 3\n")
    for command, stop_at in [("train", "fit"), ("ablate", "evaluate_run")]:
        calls = _pin(monkeypatch, ["--config", str(cfg)] + _argv(ws)[command], stop_at)
        assert _fit_config(calls).epochs == 3


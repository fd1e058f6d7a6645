"""The whole distillation pipeline at desk scale, in one script.

Generates a synthetic benchmark, pools BM25 candidates, labels them with the
deterministic oracle teacher, trains the compact scorer with RankNet +
AdamW under the logit-difference strategy, and reranks held-out queries.

Run:  python3 demos/04_end_to_end_pipeline.py   (~10 seconds)
"""

from distilrank import (
    FeatureConfig,
    ScoreStrategy,
    Source,
    TrainConfig,
    WindowPlan,
    build_index,
    distill,
    evaluate_run,
    fit,
    init_params,
    mock_llm,
    rerank_run,
    search_bm25,
    synth_benchmark,
)
from distilrank.evaluation import model_score_fn

bench = synth_benchmark(n_topics=6, n_docs=180, n_train_queries=36, n_eval_queries=12, seed=42)
corpus = {d.doc_id: d.text for d in bench.corpus}
index = build_index(bench.corpus)
print(f"benchmark: {len(bench.corpus)} docs, {len(bench.train_queries)} train / "
      f"{len(bench.eval_queries)} eval queries")


def retrieve(query):
    hits = search_bm25(index, query.text, 30)
    return Source.BM25, [(h.doc_id, corpus[h.doc_id]) for h in hits]


# second-stage distillation with the qrels-backed oracle standing in for the teacher
result = distill(bench.train_queries, retrieve, mock_llm(bench.train_qrels),
                 plan=WindowPlan(window=30, step=30))
print(f"labeled {len(result.examples)} training examples "
      f"({sum(ex.repaired for ex in result.examples)} needed repair)")

params = init_params(FeatureConfig(hash_dim=1 << 14), hidden=64, seed=0)
config = TrainConfig(batch_queries=8, docs_per_query=30, epochs=15, seed=42,
                     strategy=ScoreStrategy.LOGIT_DIFFERENCE)
params, history = fit(config, result.examples, [], corpus, params)
print(f"train loss: {history[0].train_loss:.2f} -> {history[-1].train_loss:.2f} "
      f"over {config.epochs} epochs")

# build the evaluation run (query_id -> ranked hits) and rerank it with the trained scorer
bm25_run = {q.query_id: search_bm25(index, q.text, 30) for q in bench.eval_queries}

eval_texts = {q.query_id: q.text for q in bench.eval_queries}
student_run = rerank_run(bm25_run, model_score_fn(params, config.strategy, eval_texts, corpus),
                         k_in=30, k_out=30)

base = evaluate_run(bm25_run, bench.eval_qrels, k=10)
student = evaluate_run(student_run, bench.eval_qrels, k=10)
print(f"\nnDCG@10  bm25={base.mean:.4f}  distilled={student.mean:.4f}  "
      f"lift={student.mean - base.mean:+.4f}")

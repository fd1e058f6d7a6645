"""Diversity of retrieval sources and paired significance testing.

Pools from differently parameterized retrievers overlap only partially; the
intersection-rate matrix quantifies that, and a paired t-test compares two
systems' per-query scores.

Run:  python3 demos/05_diversity_and_significance.py
"""

from distilrank import build_index, paired_t_test, search_bm25, synth_benchmark
from distilrank.evaluation import evaluate_run, format_intersection_tsv, intersection_matrix

bench = synth_benchmark(n_topics=4, n_docs=120, n_train_queries=16, n_eval_queries=8, seed=5)


def run_with(k1, b):
    index = build_index(bench.corpus, k1=k1, b=b)
    return {q.query_id: search_bm25(index, q.text, 30) for q in bench.eval_queries}


runs = {
    "bm25": run_with(0.9, 0.4),
    "heavy-norm": run_with(1.5, 0.75),
    "light-norm": run_with(0.4, 0.1),
    "mid": run_with(1.2, 0.2),
}

labels, matrix = intersection_matrix(runs, n=30)
print("pairwise top-30 intersection rates:\n")
print(format_intersection_tsv(labels, matrix))
print("(parameter variants of one lexical model overlap heavily; genuinely "
      "heterogeneous retrievers, e.g. dense vs lexical, sit far lower)\n")

a = evaluate_run(runs["bm25"], bench.eval_qrels, k=10)
b = evaluate_run(runs["heavy-norm"], bench.eval_qrels, k=10)
p = paired_t_test(a.per_query, b.per_query)
print(f"nDCG@10 bm25={a.mean:.4f} vs heavy-norm={b.mean:.4f}, "
      f"two-sided paired t-test p={p:.4f}")

"""Passage reranking via LLM distillation: query augmentation, diverse
first-stage pooling, permutation labeling, RankNet training of a compact
scorer, and trec-style evaluation."""

from .distill import WindowPlan, build_prompt, distill, mock_llm, parse_permutation
from .evaluation import evaluate_run, paired_t_test, rerank_run
from .retrieval import bm25_score, build_index, search_bm25
from .scorer import FeatureConfig, FeatureStore, ScoreStrategy, init_params, score_batch
from .synthetic import synth_benchmark
from .training import TrainConfig, fit, prepare_fit
from .types import Document, Qrels, Query, QueryKind, Source

__version__ = "0.1.0"

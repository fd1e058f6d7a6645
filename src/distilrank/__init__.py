"""Passage reranking via LLM distillation: query augmentation, diverse
first-stage pooling, permutation labeling, RankNet training of a compact
scorer, and trec-style evaluation."""

from .augment import CropConfig, assign_sources, crop_sentences, load_generated, split_dataset
from .distill import (
    DEFAULT_TEMPLATE,
    DistillResult,
    PromptTemplate,
    WindowPlan,
    api_llm,
    build_prompt,
    distill,
    mock_llm,
    parse_permutation,
    window_rerank,
)
from .errors import BudgetError, DataError, DistilrankError, JournalError, TransportError
from .evaluation import (
    EvalReport,
    evaluate_run,
    intersection_matrix,
    intersection_rate,
    ndcg_at_k,
    paired_t_test,
    rerank_run,
)
from .llm import LlmClient, LlmConfig, RetryPolicy, estimate_cost
from .retrieval import (
    DenseStore,
    InvertedIndex,
    bm25_score,
    build_index,
    compose_rerank,
    search_bm25,
    search_dense,
)
from .scorer import (
    FeatureConfig,
    FeatureStore,
    ScorerParams,
    ScoreStrategy,
    SparseVector,
    TermTable,
    featurize,
    featurize_batch,
    forward,
    init_params,
    load_checkpoint,
    load_external_logits,
    save_checkpoint,
    score_batch,
)
from .synthetic import SynthBenchmark, synth_benchmark
from .tokenization import TokenizerConfig, tokenize
from .training import (
    AdamState,
    KindFilter,
    TrainConfig,
    adamw_step,
    fit,
    init_adam_state,
    prepare_fit,
    ranknet_grad,
    ranknet_loss,
    subsample_docs,
)
from .types import DistilledExample, Document, Qrels, Query, QueryKind, Run, ScoredDoc, Source

__version__ = "0.1.0"

"""Training laboratory for dual-encoder retrievers.

Implements two training objectives over the same batch similarity
matrix: the per-query softmax contrastive loss and the pairwise
Mann-Whitney loss (binary cross-entropy over positive-negative score
differences), together with a toy feature-hashing dual encoder, analytic
gradients, hard-negative mining, a training loop, and an evaluation
suite (Mann-Whitney U, pooled AUC, ROC, MRR@10, nDCG@10).
"""

from .data import (
    Corpus,
    Document,
    Query,
    QuerySet,
    SplitSpec,
    batch_rows,
    load_corpus,
    load_queries,
    mine_hard_negatives,
    sample_batch,
    save_queries,
    split_queries,
)
from .encoder import (
    EncoderConfig,
    EncoderGrads,
    EncoderParams,
    encode_backward,
    init_params,
    load_checkpoint,
    make_scorer,
    save_checkpoint,
)
from .metrics import (
    Histogram,
    RankedList,
    ROCCurve,
    ScorePool,
    auc,
    evaluate,
    histogram,
    mann_whitney_u,
    mrr_at_k,
    ndcg_at_k,
    pooled_auc_protocol,
    roc_curve,
    strict_aoc,
)
from .objectives import (
    LossOutput,
    cl_loss,
    gaussian_degradation_demo,
    mw_bound_check,
    mw_loss,
    mw_value,
)
from .prng import Xoshiro256StarStar, derive_seed
from .scoring import ScoreBatch, backprop_scores, comparison_counts, score_batch
from .trainer import OptimizerState, RunReport, TrainConfig, adam_step, lr_at, train

__version__ = "0.1.0"

__all__ = [
    "Corpus", "Document", "Query", "QuerySet", "SplitSpec",
    "load_corpus", "load_queries", "save_queries", "mine_hard_negatives",
    "batch_rows", "sample_batch", "split_queries",
    "EncoderConfig", "EncoderParams", "EncoderGrads", "encode_backward",
    "init_params", "make_scorer", "save_checkpoint", "load_checkpoint",
    "ScoreBatch", "score_batch", "comparison_counts", "backprop_scores",
    "LossOutput", "cl_loss", "mw_loss", "mw_value",
    "gaussian_degradation_demo", "mw_bound_check",
    "ScorePool", "ROCCurve", "RankedList", "Histogram", "mann_whitney_u",
    "auc", "strict_aoc", "roc_curve", "pooled_auc_protocol", "mrr_at_k",
    "ndcg_at_k", "histogram", "evaluate",
    "TrainConfig", "OptimizerState", "RunReport", "lr_at", "adam_step", "train",
    "Xoshiro256StarStar", "derive_seed",
    "__version__",
]

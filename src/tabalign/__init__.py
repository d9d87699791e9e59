"""Augmentation-free self-supervised pretraining for tabular few-shot learning.

The pipeline separates each batch of records into complementary feature and
target views, pairs rows by nearest neighbors in target space, and aligns the
paired feature-view projections contrastively. Downstream, frozen embeddings
feed prototype, linear-probe, k-NN, or fine-tuning heads, optionally fused
across an ensemble of models trained at different separation ratios.
"""

from .analysis import latent_consistency, neighbor_fraction_curve
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, load_run_config
from .data import (
    ColumnSchema,
    Dataset,
    Episode,
    SplitIndices,
    load_csv,
    sample_episode,
    split,
)
from .errors import TabAlignError
from .fewshot import (
    EmbeddingSet,
    EvalReport,
    ProbeConfig,
    Protocol,
    embed,
    ensemble_predict,
    evaluate,
    finetune_probs,
    knn_probs,
    linear_probe_probs,
    prototype_probs,
)
from .nncore import AdamState, DenseLayer, adam_step, cosine_sim, infonce_loss
from .preprocess import (
    Preprocessor,
    SeparationMask,
    encode,
    fit,
    make_views,
    sample_mask,
)
from .pretrain import (
    EncoderStack,
    PretrainConfig,
    PretrainReport,
    init_stack,
    pretrain,
    pretrain_ensemble,
    target_nearest_neighbor,
    train_step,
)
from .synthetic import make_gaussian_dataset
from .theory import (
    BoundReport,
    GaussianPairSpec,
    MismatchEstimate,
    check_bound,
    expected_mismatch,
    mismatch_trial,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "BoundReport",
    "ColumnSchema",
    "Dataset",
    "DenseLayer",
    "EmbeddingSet",
    "EncoderStack",
    "Episode",
    "EvalReport",
    "GaussianPairSpec",
    "MismatchEstimate",
    "Preprocessor",
    "PretrainConfig",
    "PretrainReport",
    "ProbeConfig",
    "Protocol",
    "RunConfig",
    "SeparationMask",
    "SplitIndices",
    "TabAlignError",
    "adam_step",
    "check_bound",
    "cosine_sim",
    "embed",
    "encode",
    "ensemble_predict",
    "evaluate",
    "expected_mismatch",
    "finetune_probs",
    "fit",
    "infonce_loss",
    "init_stack",
    "knn_probs",
    "latent_consistency",
    "linear_probe_probs",
    "load_checkpoint",
    "load_csv",
    "load_run_config",
    "make_gaussian_dataset",
    "make_views",
    "mismatch_trial",
    "neighbor_fraction_curve",
    "pretrain",
    "pretrain_ensemble",
    "prototype_probs",
    "sample_episode",
    "sample_mask",
    "save_checkpoint",
    "split",
    "target_nearest_neighbor",
    "train_step",
]

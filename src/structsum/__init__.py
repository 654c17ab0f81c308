"""Budgeted submodular sentence selection with large-margin training."""

from .corpus import (
    DatasetError,
    DocumentSet,
    ReferenceSet,
    Sentence,
    Token,
    build_document_set,
    load_dataset,
    load_stopwords,
    segment_sentences,
    tokenize,
)
from .features import (
    FeatureConfig,
    FeatureRegistry,
    FeatureVector,
    coverage_features,
    joint_feature_map_coverage,
    joint_feature_map_pairwise,
    pairwise_features,
    registry_for,
)
from .greedy import GreedyConfig, exhaustive_maximize, greedy_maximize
from .learner import (
    Model,
    ModelError,
    TrainerConfig,
    TrainResult,
    predict,
    separation_oracle,
    train,
)
from .rouge import LossConfig, RougeGain, make_target
from .scoring import (
    CoverageScorer,
    PairwiseScorer,
    SplitPairwiseScorer,
    Summary,
    gain_state,
    marginal_gain,
    score,
)

__version__ = "0.1.0"

__all__ = [
    "CoverageScorer",
    "DatasetError",
    "DocumentSet",
    "FeatureConfig",
    "FeatureRegistry",
    "FeatureVector",
    "GreedyConfig",
    "LossConfig",
    "Model",
    "ModelError",
    "PairwiseScorer",
    "ReferenceSet",
    "RougeGain",
    "Sentence",
    "SplitPairwiseScorer",
    "Summary",
    "Token",
    "TrainResult",
    "TrainerConfig",
    "build_document_set",
    "coverage_features",
    "exhaustive_maximize",
    "gain_state",
    "greedy_maximize",
    "joint_feature_map_coverage",
    "joint_feature_map_pairwise",
    "load_dataset",
    "load_stopwords",
    "make_target",
    "marginal_gain",
    "pairwise_features",
    "predict",
    "registry_for",
    "score",
    "segment_sentences",
    "separation_oracle",
    "tokenize",
    "train",
]

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
    joint_feature_map_coverage,
    joint_feature_map_pairwise,
    registry_for,
)
from .greedy import GreedyConfig, greedy_maximize
from .learner import (
    Model,
    ModelError,
    PreparedSet,
    TrainerConfig,
    TrainResult,
    predict,
    train,
)
from .rouge import LossConfig, RougeGain
from .scoring import PairwiseScorer, Summary, gain_state

__version__ = "0.1.0"

__all__ = [
    "DatasetError",
    "DocumentSet",
    "FeatureConfig",
    "FeatureRegistry",
    "GreedyConfig",
    "LossConfig",
    "Model",
    "ModelError",
    "PairwiseScorer",
    "PreparedSet",
    "ReferenceSet",
    "RougeGain",
    "Sentence",
    "Summary",
    "Token",
    "TrainResult",
    "TrainerConfig",
    "build_document_set",
    "gain_state",
    "greedy_maximize",
    "joint_feature_map_coverage",
    "joint_feature_map_pairwise",
    "load_dataset",
    "load_stopwords",
    "predict",
    "registry_for",
    "segment_sentences",
    "tokenize",
    "train",
]

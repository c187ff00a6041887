"""Partial domain adaptation for the case where the target covers only a
subset of the source classes.

The package alternates between learning a discriminative linear projection
from weighted alignment matrices and propagating labels over a
cross-domain graph, re-estimating target class weights each round so that
source-only classes stop influencing the embedding.

The loop's building blocks are importable from their submodules, and the
dense reference matrices from ``partialda.oracles``.
"""

from .core import AdaptationConfig, accuracy, make_one_hot
from .pipeline import AdaptationResult, IterationRecord, adapt, baseline_propagate
from .data import (
    SyntheticDataset,
    SyntheticSpec,
    generate_synthetic,
    load_features_csv,
    load_labels,
    save_features_csv,
    save_labels,
)
from .errors import (
    AdaptationError,
    ConfigurationError,
    NumericalError,
    ParseError,
    ValidationError,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptationConfig",
    "AdaptationError",
    "AdaptationResult",
    "ConfigurationError",
    "IterationRecord",
    "NumericalError",
    "ParseError",
    "SyntheticDataset",
    "SyntheticSpec",
    "ValidationError",
    "accuracy",
    "adapt",
    "baseline_propagate",
    "generate_synthetic",
    "load_features_csv",
    "load_labels",
    "make_one_hot",
    "save_features_csv",
    "save_labels",
    "__version__",
]

"""Core conventions, label encodings and the adaptation configuration.

Feature matrices are dense float arrays of shape (d, n) holding one sample
per column.  Hard labels are 0-based integers.  A label matrix is the
one-hot encoding with one row per sample; a soft label matrix stores one
column of class probabilities per target sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigurationError, ValidationError


def as_feature_matrix(x, name: str = "features") -> np.ndarray:
    """Coerce ``x`` to a (d, n) float array and check every entry is finite."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got shape {x.shape}")
    if x.shape[0] < 1 or x.shape[1] < 1:
        raise ValidationError(f"{name} must be non-empty, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValidationError(f"{name} contains NaN or Inf entries")
    return x


def check_label_matrix(y, n_samples: int | None = None) -> np.ndarray:
    """Validate a one-hot label matrix: 0/1 entries, one 1 per row, no empty class."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[0] < 1 or y.shape[1] < 1:
        raise ValidationError(f"label matrix must be 2-dimensional and non-empty, got shape {y.shape}")
    if n_samples is not None and y.shape[0] != n_samples:
        raise ValidationError(
            f"label matrix has {y.shape[0]} rows, expected {n_samples} (one per sample)"
        )
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValidationError("label matrix entries must be 0 or 1")
    if not (y.sum(axis=1) == 1.0).all():
        raise ValidationError("each label matrix row must contain exactly one 1")
    counts = y.sum(axis=0)
    if (counts == 0).any():
        c = int(np.flatnonzero(counts == 0)[0])
        raise ValidationError(f"class {c} has no samples")
    return y


def make_one_hot(labels, num_classes: int) -> np.ndarray:
    """Encode integer labels as a one-hot matrix with one row per sample.

    Parameters
    ----------
    labels : array-like of int, shape (n,)
        Class of each sample, in ``[0, num_classes)``.  Every class must
        occur at least once.
    num_classes : int
        Number of columns of the encoding.

    Returns
    -------
    ndarray of shape (n, num_classes)
    """
    if num_classes < 1:
        raise ValidationError(f"num_classes must be >= 1, got {num_classes}")
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise ValidationError("labels must be a non-empty 1-dimensional sequence")
    if labels.dtype.kind not in "iu":
        as_int = labels.astype(int, casting="unsafe") if labels.dtype.kind == "f" else None
        if as_int is None or not np.array_equal(as_int, labels):
            raise ValidationError("labels must be integers")
        labels = as_int
    bad = (labels < 0) | (labels >= num_classes)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ValidationError(
            f"label {int(labels[i])} out of range [0, {num_classes}) at index {i}"
        )
    # check coverage before allocating: n labels cover at most n classes
    present = np.unique(labels)
    if present.size < num_classes:
        gaps = np.flatnonzero(present != np.arange(present.size))
        c = int(gaps[0]) if gaps.size else present.size
        raise ValidationError(f"class {c} has no samples")
    y = np.zeros((labels.size, num_classes))
    y[np.arange(labels.size), labels] = 1.0
    return y


def hard_labels(p) -> np.ndarray:
    """Column-wise argmax of a soft label matrix; ties go to the lowest class index."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[1] < 1:
        raise ValidationError(f"soft labels must be 2-dimensional with >= 1 column, got shape {p.shape}")
    if np.isnan(p).any():
        raise ValidationError("soft labels contain NaN entries")
    return np.argmax(p, axis=0)


def accuracy(pred, truth) -> tuple[float, dict[int, float]]:
    """Overall and per-class agreement between two hard label vectors.

    The class set of the per-class breakdown is taken from ``truth``.

    Returns
    -------
    overall : float in [0, 1]
    per_class : dict mapping class id to its accuracy
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.ndim != 1 or truth.ndim != 1 or pred.shape != truth.shape:
        raise ValidationError(
            f"length mismatch between predictions {pred.shape} and truth {truth.shape}"
        )
    if pred.size == 0:
        raise ValidationError("empty input")
    hits = pred == truth
    overall = float(np.mean(hits))
    per_class = {int(c): float(np.mean(hits[truth == c])) for c in np.unique(truth)}
    return overall, per_class


@dataclass(frozen=True)
class AdaptationConfig:
    """Knobs of the adaptation loop.

    Attributes
    ----------
    alpha_p : weight of the target-to-source-center alignment term.
    alpha_c : weight of the within-class contraction term.
    lam : ridge penalty on the projection columns, must be positive.
    k : embedding dimension, at most the feature dimension d.
    sigma : bandwidth of the graph affinity.
    delta : threshold at or below which a class weight is set to 0, masking its class.
    max_iterations : upper bound on alternating rounds; the loop stops
        earlier after the first round that changes no hard label.
    rhs_reg : scale of the trace-proportional regularizer added to the
        constraint side of the eigenproblem.
    """

    alpha_p: float = 1.0
    alpha_c: float = 1.0
    lam: float = 0.1
    k: int = 100
    sigma: float = 0.1
    delta: float = 1e-3
    max_iterations: int = 10
    rhs_reg: float = 1e-6

    def __post_init__(self):
        # NaN passes every comparison below and inf overflows int(); a
        # Python int is finite (and may be too large for math.isfinite)
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, int) and not math.isfinite(value):
                raise ConfigurationError(f"{f.name} must be finite, got {value}")
        if self.alpha_p < 0 or self.alpha_c < 0:
            raise ConfigurationError("alpha_p and alpha_c must be non-negative")
        if self.lam <= 0:
            raise ConfigurationError(f"lam must be positive, got {self.lam}")
        if int(self.k) != self.k or self.k < 1:
            raise ConfigurationError(f"k must be an integer >= 1, got {self.k}")
        object.__setattr__(self, "k", int(self.k))  # 5.0 would break slicing
        if self.sigma <= 0:
            raise ConfigurationError(f"sigma must be positive, got {self.sigma}")
        if self.delta < 0:
            raise ConfigurationError(f"delta must be non-negative, got {self.delta}")
        if int(self.max_iterations) != self.max_iterations or self.max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be an integer >= 1, got {self.max_iterations}"
            )
        object.__setattr__(self, "max_iterations", int(self.max_iterations))
        if self.rhs_reg < 0:
            raise ConfigurationError(f"rhs_reg must be non-negative, got {self.rhs_reg}")

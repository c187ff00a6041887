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

# How far soft labels may stray from probabilities: a target's may sum
# this far from 1 before it counts as having received no source mass, and
# the loop's may fall this far below 0 or sum this far above 1.  With
# one-hot source labels a target connected to source mass sums to 1 up to
# rounding (within 8.4e-11 on the 4000 targets of each baseline-large
# benchmark dataset); one cut off from every source sums to about 0, or to
# whatever a nearly singular solve leaves.
_MASS_TOL = 1e-6


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


def as_domain_pair(x_s, x_t) -> tuple[np.ndarray, np.ndarray]:
    """Source and target feature matrices, checked alike and in the same dimension d."""
    x_s = as_feature_matrix(x_s, "source features")
    x_t = as_feature_matrix(x_t, "target features")
    if x_s.shape[0] != x_t.shape[0]:
        raise ValidationError(
            f"source and target feature dimensions differ: {x_s.shape[0]} vs {x_t.shape[0]}"
        )
    return x_s, x_t


def as_weights(w, n: int, name: str) -> np.ndarray:
    """Coerce ``w`` to ``n`` finite, non-negative weights, not all 0; errors name it ``name``."""
    w = np.asarray(w, dtype=float)
    if w.shape != (n,):
        raise ValidationError(f"{name} has shape {w.shape}, expected ({n},)")
    if not np.isfinite(w).all():
        raise ValidationError(f"{name} contains NaN or Inf entries")
    if (w < 0).any():
        raise ValidationError(f"{name} must be non-negative")
    if not w.any():
        raise ValidationError(f"{name} are all 0: no source sample carries a label")
    return w


def check_one_hot_rows(y: np.ndarray) -> None:
    """Raise ``ValidationError`` unless every entry of the 2-D ``y`` is 0 or 1, one 1 per row."""
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValidationError("label matrix entries must be 0 or 1")
    if not (y.sum(axis=1) == 1.0).all():
        raise ValidationError("each label matrix row must contain exactly one 1")


def check_label_matrix(y, n_samples: int | None = None) -> np.ndarray:
    """Validate a one-hot label matrix: 0/1 entries, one 1 per row, no empty class."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[0] < 1 or y.shape[1] < 1:
        raise ValidationError(f"label matrix must be 2-dimensional and non-empty, got shape {y.shape}")
    if n_samples is not None and y.shape[0] != n_samples:
        raise ValidationError(
            f"label matrix has {y.shape[0]} rows, expected {n_samples} (one per sample)"
        )
    check_one_hot_rows(y)
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
        Number of columns of the encoding; an integral float is taken as
        its int.

    Returns
    -------
    ndarray of shape (n, num_classes)
    """
    num_classes = _as_integer(num_classes, "num_classes", ValidationError)
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


def check_truth_shape(pred_shape: tuple[int, ...], truth: np.ndarray) -> None:
    """Raise ``ValidationError`` unless ``truth`` is a label vector of ``pred_shape``."""
    if truth.ndim != 1 or truth.shape != pred_shape:
        raise ValidationError(
            f"length mismatch between predictions {pred_shape} and truth {truth.shape}"
        )


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
    check_truth_shape(pred.shape, truth)
    if pred.size == 0:
        raise ValidationError("empty input")
    hits = pred == truth
    overall = float(np.mean(hits))
    per_class = {int(c): float(np.mean(hits[truth == c])) for c in np.unique(truth)}
    return overall, per_class


def is_finite_number(value, name: str, error: type[ValueError]) -> bool:
    """Whether a field's ``value`` is finite; raises ``error`` naming it unless it is a number.

    A bool is not a number here, though Python counts it as an int; any
    other Python int is finite (and may be too large for math.isfinite).
    """
    if isinstance(value, (bool, np.bool_)):
        raise error(f"{name} must be a number, got {value!r}")
    if isinstance(value, int):
        return True
    try:
        return math.isfinite(value)
    except TypeError:
        raise error(f"{name} must be a number, got {value!r}") from None


def _as_integer(value, name: str, error: type[ValueError]) -> int:
    """``value`` as an int, an integral float taken as its int; anything else raises ``error``."""
    # NaN passes every range comparison and inf overflows int()
    if not (is_finite_number(value, name, error) and int(value) == value):
        raise error(f"{name} must be an integer, got {value}")
    return int(value)


def check_numeric_fields(obj, error: type[ValueError]) -> None:
    """Raise ``error`` unless every field of the frozen dataclass ``obj`` is a finite number.

    A field whose default is an int must hold an integer, and is stored as
    one: 5.0 would break shapes and slicing.
    """
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(f.default, int):
            object.__setattr__(obj, f.name, _as_integer(value, f.name, error))
        elif not is_finite_number(value, f.name, error):
            raise error(f"{f.name} must be finite, got {value}")


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
    """

    alpha_p: float = 1.0
    alpha_c: float = 1.0
    lam: float = 0.1
    k: int = 100
    sigma: float = 0.1
    delta: float = 1e-3
    max_iterations: int = 10

    def __post_init__(self):
        check_numeric_fields(self, ConfigurationError)
        if self.alpha_p < 0 or self.alpha_c < 0:
            raise ConfigurationError("alpha_p and alpha_c must be non-negative")
        if self.lam <= 0:
            raise ConfigurationError(f"lam must be positive, got {self.lam}")
        if self.k < 1:
            raise ConfigurationError(f"k must be an integer >= 1, got {self.k}")
        if self.sigma <= 0:
            raise ConfigurationError(f"sigma must be positive, got {self.sigma}")
        if self.delta < 0:
            raise ConfigurationError(f"delta must be non-negative, got {self.delta}")
        if self.max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be an integer >= 1, got {self.max_iterations}"
            )

    def check_k(self, d: int) -> None:
        """Raise ``ConfigurationError`` unless ``k`` fits the feature dimension ``d``."""
        if self.k > d:
            raise ConfigurationError(f"k={self.k} exceeds the feature dimension {d}")

"""The alternating adaptation loop and its single-shot baseline.

One round first learns a projection for the current target soft labels and
class weights, then rebuilds the cross-domain graph in the projected space,
down-weights source samples from low-mass classes and re-propagates labels.
Class weights, one (C,) vector of estimated target class proportions, are
re-estimated from every fresh propagation, so source classes absent from
the target lose their influence over the rounds instead of dragging the
projection toward them.  :func:`binarize_weights` zeroes the classes at or
below ``delta``, and from then on a class is masked exactly when its
weight is 0.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .core import AdaptationConfig, as_domain_pair, check_label_matrix, hard_labels
from .errors import AdaptationError, ConfigurationError, ValidationError
from .graph import propagate_labels
from .subspace import Projection, embed, gram_matrix, solve_projection


@dataclass(frozen=True)
class IterationRecord:
    """Per-round diagnostics of the adaptation loop."""

    objective: float
    label_change_fraction: float
    surviving_classes: int
    mask_fallbacks: int
    graph_fallbacks: int


@dataclass(frozen=True)
class AdaptationResult:
    """Final state of a run: labels, weights, projection and history."""

    projection: Projection | None
    soft_labels: np.ndarray
    hard_labels: np.ndarray
    class_weights: np.ndarray  # (C,), 0 for every masked class
    history: list[IterationRecord] = field(default_factory=list)

    @property
    def iterations_run(self) -> int:
        """The number of completed rounds, one record each."""
        return len(self.history)


def label_change_fraction(previous, current) -> float:
    """Fraction of positions whose hard label differs between two snapshots."""
    previous = np.asarray(previous)
    current = np.asarray(current)
    if previous.shape != current.shape or previous.ndim != 1:
        raise ValidationError(
            f"length mismatch between label snapshots: {previous.shape} vs {current.shape}"
        )
    if previous.size == 0:
        raise ValidationError("empty input")
    return float(np.mean(previous != current))


def compute_class_weights(p) -> np.ndarray:
    """Estimated target class proportions: the row sums of ``p``, normalized to sum to one."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 2:
        raise ValidationError(f"soft labels must be 2-dimensional, got shape {p.shape}")
    total = p.sum()
    if total <= 0:
        raise ValidationError("soft label matrix sums to zero, cannot derive class weights")
    return p.sum(axis=1) / total


def binarize_weights(w, delta: float) -> np.ndarray:
    """Zero out classes whose weight does not exceed ``delta``.

    This is the one place a weight is compared with ``delta``.  Surviving
    weights are kept as-is, deliberately not renormalized, so a weight of
    exactly 0 stays 0 and the operation is idempotent.
    """
    if delta < 0:
        raise ConfigurationError(f"delta must be non-negative, got {delta}")
    w = np.asarray(w, dtype=float)
    masked = w * (w > delta)
    if not masked.any():
        raise ConfigurationError(
            f"no class survives threshold delta={delta} "
            f"(largest class weight is {w.max()})"
        )
    return masked


def source_sample_weights(w, y_s) -> np.ndarray:
    """Per-sample weights: each source sample inherits its masked class weight."""
    w = np.asarray(w, dtype=float)
    y_s = np.asarray(y_s, dtype=float)
    if y_s.ndim != 2 or y_s.shape[1] != w.size:
        raise ValidationError(
            f"label matrix shape {y_s.shape} does not match {w.size} class weights"
        )
    omega = y_s @ w
    if omega.sum() <= 0:
        raise ConfigurationError(
            "all source sample weights are zero; every sample belongs to a masked class"
        )
    return omega


def apply_mask(p, w) -> tuple[np.ndarray, int]:
    """Zero the soft label rows of masked classes, those whose weight in ``w`` is 0.

    Columns are not renormalized.  A column left all-zero is replaced by the
    uniform distribution over surviving classes; the number of such columns
    is returned alongside the masked matrix.
    """
    p = np.asarray(p, dtype=float)
    keep = np.asarray(w, dtype=float) > 0
    if p.ndim != 2 or p.shape[0] != keep.size:
        raise ValidationError(
            f"soft labels shape {p.shape} does not match {keep.size} classes"
        )
    masked = p * keep[:, None]
    dead = masked.sum(axis=0) == 0.0
    n_dead = int(dead.sum())
    if n_dead:
        survivors = keep.sum()
        if survivors == 0:
            raise ConfigurationError("cannot repair empty columns, no class survives the mask")
        masked[:, dead] = (keep / survivors)[:, None]
    return masked, n_dead


def _validated_inputs(x_s, y_s, x_t):
    x_s, x_t = as_domain_pair(x_s, x_t)
    return x_s, check_label_matrix(y_s, n_samples=x_s.shape[1]), x_t


@contextmanager
def _round(it: int):
    """Prefix errors raised inside round ``it`` with ``iteration it:``."""
    try:
        yield
    except AdaptationError as exc:
        raise type(exc)(f"iteration {it}: {exc}") from exc


def adapt(x_s, y_s, x_t, config: AdaptationConfig | None = None) -> AdaptationResult:
    """Adapt source knowledge to a target domain covering fewer classes.

    Parameters
    ----------
    x_s : ndarray (d, n_s)
        Source features, one column per sample.
    y_s : ndarray (n_s, C)
        One-hot source labels; every class must occur.
    x_t : ndarray (d, n_t)
        Target features in the same coordinate system.
    config : AdaptationConfig, optional
        Loop parameters; defaults are used when omitted.

    Returns
    -------
    AdaptationResult
        Final soft and hard target labels, masked class weights, the last
        projection and one IterationRecord per completed round.

    Notes
    -----
    The run is deterministic: identical inputs give identical outputs.
    Errors raised inside round ``i`` carry an ``iteration i:`` prefix; the
    constraint side, factored once before the first round, counts as
    round 1.
    """
    config = config or AdaptationConfig()
    x_s, y_s, x_t = _validated_inputs(x_s, y_s, x_t)
    d, n_s = x_s.shape
    config.check_k(d)  # before the first propagation, which costs more

    p, _ = propagate_labels(x_s, x_t, config.sigma, y_s)
    weights = binarize_weights(compute_class_weights(p), config.delta)
    hard_prev = hard_labels(p)

    with _round(1):  # factored once per run, so its failures belong to round one
        data = gram_matrix(x_s, x_t, config)

    history: list[IterationRecord] = []
    proj: Projection | None = None
    for it in range(1, config.max_iterations + 1):
        with _round(it):
            p_masked, mask_fallbacks = apply_mask(p, weights)
            omega = source_sample_weights(weights, y_s)
            proj = solve_projection(data, omega, y_s, p_masked)
            z = embed(proj, data)
            p, graph_fallbacks = propagate_labels(z[:, :n_s], z[:, n_s:], config.sigma,
                                                  y_s, omega)
            weights = binarize_weights(compute_class_weights(p), config.delta)
            hard = hard_labels(p)

            fraction = label_change_fraction(hard_prev, hard)
            history.append(IterationRecord(
                objective=proj.objective,
                label_change_fraction=fraction,
                surviving_classes=int(np.count_nonzero(weights)),
                mask_fallbacks=mask_fallbacks,
                graph_fallbacks=graph_fallbacks,
            ))
            hard_prev = hard
        if fraction == 0.0:
            break
    return AdaptationResult(
        projection=proj,
        soft_labels=p,
        hard_labels=hard_prev,
        class_weights=weights,
        history=history,
    )


def baseline_propagate(x_s, y_s, x_t,
                       sigma: float = AdaptationConfig.sigma) -> AdaptationResult:
    """Single unweighted propagation on the original features, no projection.

    This reproduces the initialization of :func:`adapt` and serves as the
    reference point when judging whether adaptation helped.
    """
    x_s, y_s, x_t = _validated_inputs(x_s, y_s, x_t)
    p, _ = propagate_labels(x_s, x_t, sigma, y_s)
    return AdaptationResult(
        projection=None,
        soft_labels=p,
        hard_labels=hard_labels(p),
        class_weights=compute_class_weights(p),
    )

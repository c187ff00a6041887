"""The alternating adaptation loop and its single-shot baseline.

One round first learns a projection for the current target soft labels and
class weights, then rebuilds the cross-domain graph in the projected space,
down-weights source samples from low-mass classes and re-propagates labels.
Class weights are re-estimated from every fresh propagation, so source
classes absent from the target lose their influence over the rounds instead
of dragging the projection toward them.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .alignment import (
    alignment_scatter,
    apply_mask,
    binarize_weights,
    compute_class_weights,
    source_sample_weights,
)
from .core import AdaptationConfig, as_feature_matrix, check_label_matrix, hard_labels
from .errors import AdaptationError, ConfigurationError, ValidationError
from .graph import propagate_labels
from .subspace import Projection, embed, gram_matrix, projection_objective, solve_projection


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
    iterations_run: int = 0


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


def _validated_inputs(x_s, y_s, x_t):
    x_s = as_feature_matrix(x_s, "source features")
    x_t = as_feature_matrix(x_t, "target features")
    if x_s.shape[0] != x_t.shape[0]:
        raise ValidationError(
            f"source and target feature dimensions differ: {x_s.shape[0]} vs {x_t.shape[0]}"
        )
    y_s = check_label_matrix(y_s, n_samples=x_s.shape[1])
    return x_s, y_s, x_t


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
    if config.k > d:
        raise ConfigurationError(f"k={config.k} exceeds the feature dimension {d}")

    p, _ = propagate_labels(x_s, x_t, config.sigma, y_s)
    weights = binarize_weights(compute_class_weights(p), config.delta)
    hard_prev = hard_labels(p)

    with _round(1):  # factored once per run, so its failures belong to round one
        data = gram_matrix(np.hstack([x_s, x_t]), config.lam, config.rhs_reg)

    history: list[IterationRecord] = []
    proj: Projection | None = None
    for it in range(1, config.max_iterations + 1):
        with _round(it):
            p_masked, mask_fallbacks = apply_mask(p, weights)
            omega = source_sample_weights(weights, y_s)
            scatter = alignment_scatter(data.whitened, n_s, omega, y_s, p_masked,
                                        config.alpha_p, config.alpha_c)
            proj = solve_projection(data, scatter, config.k)

            z = embed(proj, data)
            objective = projection_objective(
                proj, alignment_scatter(z, n_s, omega, y_s, p_masked,
                                        config.alpha_p, config.alpha_c), config.lam)
            p, graph_fallbacks = propagate_labels(z[:, :n_s], z[:, n_s:], config.sigma,
                                                  y_s, omega)
            weights = binarize_weights(compute_class_weights(p), config.delta)
            hard = hard_labels(p)

            fraction = label_change_fraction(hard_prev, hard)
            history.append(IterationRecord(
                objective=objective,
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
        iterations_run=len(history),
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
        history=[],
        iterations_run=0,
    )

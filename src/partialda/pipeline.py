"""The alternating adaptation loop and its single-shot baseline.

One round first learns a projection for the current target soft labels and
class weights, then rebuilds the cross-domain graph in the projected space,
down-weights source samples from low-mass classes and re-propagates labels.
Class weights, one (C,) vector of estimated target class proportions, are
re-estimated from every fresh propagation, so source classes absent from
the target lose their influence over the rounds instead of dragging the
projection toward them.  The classes at or below ``delta`` get weight 0,
and from then on a class is masked exactly when its weight is 0.  The
alignment loss and the graph both take these class weights, and each
gives every source sample its class's weight.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .core import AdaptationConfig, as_domain_pair, check_label_matrix, hard_labels
from .errors import AdaptationError, ConfigurationError, ValidationError
from .graph import propagate_labels
from .subspace import Projection, gram_matrix, solve_projection


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


def _class_weights(p: np.ndarray, delta: float) -> np.ndarray:
    """Estimated target class proportions, zeroed for every class at or below ``delta``.

    The proportions are the row sums of ``p``, normalized to sum to one.
    This is the one place a weight is compared with ``delta``.  Surviving
    weights are kept as-is, deliberately not renormalized, so a masked class
    has weight exactly 0.
    """
    w = p.sum(axis=1) / p.sum()
    masked = w * (w > delta)
    if not masked.any():
        raise ConfigurationError(
            f"no class survives threshold delta={delta} "
            f"(largest class weight is {w.max()})"
        )
    return masked


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
    config.check_k(x_s.shape[0])  # before the first propagation, which costs more

    p, _ = propagate_labels(x_s, x_t, config.sigma, y_s)
    weights = _class_weights(p, config.delta)
    hard_prev = hard_labels(p)

    with _round(1):  # factored once per run, so its failures belong to round one
        data = gram_matrix(x_s, y_s, x_t, config)

    history: list[IterationRecord] = []
    proj: Projection | None = None
    for it in range(1, config.max_iterations + 1):
        with _round(it):
            p_masked, mask_fallbacks = apply_mask(p, weights)
            proj = solve_projection(data, weights, p_masked)
            p, graph_fallbacks = propagate_labels(proj.a.T @ x_s, proj.a.T @ x_t, config.sigma,
                                                  y_s, weights)
            weights = _class_weights(p, config.delta)
            hard = hard_labels(p)

            fraction = float(np.mean(hard_prev != hard))
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
        class_weights=p.sum(axis=1) / p.sum(),
    )

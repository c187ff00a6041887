"""Cross-domain graph construction and harmonic label propagation.

Target samples connect to every source sample and to every other target
sample through a Gaussian affinity on cosine distances.  Labels reach the
targets by solving the harmonic system: each target distribution is the
affinity-weighted average of its neighbors' distributions, source rows
clamped to their one-hot labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError


@dataclass(frozen=True)
class CrossDomainGraph:
    """Row-stochastic affinities from targets to sources (w_ts) and targets (w_tt).

    Every row of the concatenation [w_ts | w_tt] sums to one and the w_tt
    diagonal is zero, so the propagation system is well posed.
    """

    w_ts: np.ndarray
    w_tt: np.ndarray
    sigma: float


def cosine_distances(a, b) -> np.ndarray:
    """Pairwise 1 - cosine similarity between columns of a and columns of b.

    A zero column has similarity 0 with everything, hence distance 1.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na = np.linalg.norm(a, axis=0)
    nb = np.linalg.norm(b, axis=0)
    ua = a / np.where(na > 0, na, 1.0)
    ub = b / np.where(nb > 0, nb, 1.0)
    out = ua.T @ ub
    return np.subtract(1.0, out, out=out)


def _normalize_rows(w_ts: np.ndarray, w_tt: np.ndarray) -> np.ndarray:
    """Divide both blocks by their joint row sums in place; return the zero-sum rows."""
    totals = w_ts.sum(axis=1) + w_tt.sum(axis=1)
    dead = totals == 0.0
    safe = np.where(dead, 1.0, totals)[:, None]
    w_ts /= safe
    w_tt /= safe
    return dead


def _affinities(a, b, sigma: float) -> np.ndarray:
    """``exp(-(d / sigma)**2)`` of the cosine distances, in the distance buffer."""
    out = cosine_distances(a, b)
    out /= sigma
    np.square(out, out=out)
    np.negative(out, out=out)
    return np.exp(out, out=out)


def build_graph(z_s, z_t, sigma: float) -> CrossDomainGraph:
    """Fully connected affinity graph over embedded source and target samples.

    Weights are ``exp(-(d / sigma)**2)`` of the cosine distance d.  Self
    loops among targets are removed before row normalization.  If an entire
    row underflows to zero (possible only for very small sigma) it falls
    back to uniform affinities.

    Parameters
    ----------
    z_s, z_t : ndarray (k, n_s) and (k, n_t)
        Embedded samples, one column each.
    sigma : float
        Positive bandwidth; smaller values sharpen the graph.
    """
    z_s = np.asarray(z_s, dtype=float)
    z_t = np.asarray(z_t, dtype=float)
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValidationError(f"sigma must be positive and finite, got {sigma}")
    if z_s.ndim != 2 or z_t.ndim != 2 or z_s.shape[0] != z_t.shape[0]:
        raise ValidationError(
            f"embedded domains disagree in dimension: {z_s.shape} vs {z_t.shape}"
        )
    if z_s.shape[1] < 1 or z_t.shape[1] < 1:
        raise ValidationError("both domains need at least one sample")
    w_ts = _affinities(z_t, z_s, sigma)
    w_tt = _affinities(z_t, z_t, sigma)
    np.fill_diagonal(w_tt, 0.0)
    dead = _normalize_rows(w_ts, w_tt)
    if dead.any():
        w_ts[dead] = 1.0
        w_tt[dead] = 1.0
        np.fill_diagonal(w_tt, 0.0)
        _normalize_rows(w_ts, w_tt)
    return CrossDomainGraph(w_ts=w_ts, w_tt=w_tt, sigma=float(sigma))


def reweight_graph(g: CrossDomainGraph, w, source_classes) -> tuple[CrossDomainGraph, int]:
    """Scale source affinities by the masked weight of each sample's class.

    The factor vector is normalized by its maximum, which makes the
    operation scale-free: a uniform weight vector reproduces the input
    graph after renormalization.  Rows left without any mass (possible when
    n_t = 1 and underflow removes all source affinity) fall back to uniform
    target affinities, or uniform source affinities when there is no other
    target; the count of such rows is returned.

    Parameters
    ----------
    g : CrossDomainGraph
    w : ClassWeights
        Current class weights; masked classes contribute factor 0.
    source_classes : ndarray (n_s,)
        Hard class of every source sample.
    """
    source_classes = np.asarray(source_classes)
    n_t, n_s = g.w_ts.shape
    if source_classes.ndim != 1 or source_classes.size != n_s:
        raise ValidationError(
            f"source_classes has length {source_classes.size}, expected {n_s}"
        )
    weights = w.masked
    if source_classes.min() < 0 or source_classes.max() >= weights.size:
        raise ValidationError(
            f"source class ids must lie in [0, {weights.size})"
        )
    factors = weights[source_classes]
    top = factors.max()
    if top > 0:
        factors = factors / top
    w_ts = g.w_ts * factors[None, :]
    w_tt = g.w_tt.astype(float)
    dead = _normalize_rows(w_ts, w_tt)
    n_dead = int(dead.sum())
    if n_dead:
        if n_t > 1:
            w_tt[dead] = 1.0
            np.fill_diagonal(w_tt, 0.0)
        else:
            w_ts[dead] = 1.0
        _normalize_rows(w_ts, w_tt)
    return CrossDomainGraph(w_ts=w_ts, w_tt=w_tt, sigma=g.sigma), n_dead


def propagate(g: CrossDomainGraph, y_s) -> np.ndarray:
    """Harmonic label propagation from source labels to target samples.

    Solves ``(I - W_tt) F = W_ts Y_s`` and returns ``F.T``, the soft label
    matrix with one column of class probabilities per target.  Because the
    graph rows are stochastic, each column sums to one.

    Raises
    ------
    NumericalError
        If ``I - W_tt`` is singular, which indicates targets disconnected
        from every source; a larger sigma usually reconnects them.
    """
    y_s = np.asarray(y_s, dtype=float)
    n_t, n_s = g.w_ts.shape
    if y_s.ndim != 2 or y_s.shape[0] != n_s:
        raise ValidationError(
            f"label matrix has {y_s.shape[0]} rows, expected {n_s} source samples"
        )
    # I - W_tt without an identity: 0 - w (not -w, which turns +0.0 into
    # -0.0) is bit for bit the off-diagonal of np.eye(n_t) - w_tt, and
    # adding 1.0 to it is bit for bit the diagonal.
    system = np.subtract(0.0, g.w_tt, dtype=float)
    system.flat[:: n_t + 1] += 1.0
    try:
        f = np.linalg.solve(system, g.w_ts @ y_s)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "(I - W_tt) is singular: some targets receive no source mass; "
            "try a larger sigma or check graph connectivity"
        ) from exc
    if not np.isfinite(f).all():
        raise NumericalError(
            "label propagation produced non-finite values; "
            "try a larger sigma or check graph connectivity"
        )
    return f.T

"""Cross-domain graph construction and harmonic label propagation.

Target samples connect to every source sample and to every other target
sample through a Gaussian affinity on cosine distances.  Labels reach the
targets by solving the harmonic system: each target distribution is the
affinity-weighted average of its neighbors' distributions, source rows
clamped to their one-hot labels.

Three private kernels do the arithmetic, each in buffers its caller owns:
one builds the two affinity blocks, one reweights them in place and one
turns ``W_tt`` into ``I - W_tt`` in place and solves.  The public
:func:`build_graph`, :func:`reweight_graph` and :func:`propagate` return
fresh arrays and leave their arguments unchanged; the last two copy the
graph before running their kernel on the copy.  :func:`propagate_labels`,
which the adaptation loop and the baseline call, runs all three kernels on
one set of buffers and drops ``W_ts`` before the solve, so at most
``max(n_t*n_s + n_t**2, 2*n_t**2)`` doubles of graph are alive at once
(the second ``n_t**2`` is numpy's LAPACK copy of the system).  Both routes
give the same bits.
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


def _checked_domains(z_s, z_t, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Both embeddings as float arrays, after checking them and sigma."""
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
    return z_s, z_t


def _class_factors(w, source_classes, n_s: int) -> np.ndarray:
    """Per-source-sample masked class weight, divided by its maximum when positive."""
    source_classes = np.asarray(source_classes)
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
    return factors


def _checked_labels(y_s, n_s: int) -> np.ndarray:
    """The source label matrix as floats, after checking its row count."""
    y_s = np.asarray(y_s, dtype=float)
    if y_s.ndim != 2 or y_s.shape[0] != n_s:
        raise ValidationError(
            f"label matrix has {y_s.shape[0]} rows, expected {n_s} source samples"
        )
    return y_s


def _build_blocks(z_s: np.ndarray, z_t: np.ndarray, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalized ``W_ts`` and ``W_tt`` of checked inputs, in fresh buffers."""
    w_ts = _affinities(z_t, z_s, sigma)
    w_tt = _affinities(z_t, z_t, sigma)
    np.fill_diagonal(w_tt, 0.0)
    dead = _normalize_rows(w_ts, w_tt)
    if dead.any():
        w_ts[dead] = 1.0
        w_tt[dead] = 1.0
        np.fill_diagonal(w_tt, 0.0)
        _normalize_rows(w_ts, w_tt)
    return w_ts, w_tt


def _reweight_blocks(w_ts: np.ndarray, w_tt: np.ndarray, factors: np.ndarray) -> int:
    """Scale the source columns by ``factors`` and renormalize, in place; count dead rows."""
    w_ts *= factors[None, :]
    dead = _normalize_rows(w_ts, w_tt)
    n_dead = int(dead.sum())
    if n_dead:
        if w_tt.shape[0] > 1:
            w_tt[dead] = 1.0
            np.fill_diagonal(w_tt, 0.0)
        else:
            w_ts[dead] = 1.0
        _normalize_rows(w_ts, w_tt)
    return n_dead


def _solve_harmonic(w_tt: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``(I - W_tt) F = rhs`` with ``I - W_tt`` written over ``w_tt``; return ``F.T``."""
    # 0 - w (not -w, which turns +0.0 into -0.0) is bit for bit the
    # off-diagonal of np.eye(n_t) - w_tt, and adding 1.0 to it is bit for
    # bit the diagonal.
    system = np.subtract(0.0, w_tt, out=w_tt)
    system.flat[:: w_tt.shape[0] + 1] += 1.0
    try:
        f = np.linalg.solve(system, rhs)
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


def build_graph(z_s, z_t, sigma: float) -> CrossDomainGraph:
    """Fully connected affinity graph over embedded source and target samples.

    Weights are ``exp(-(d / sigma)**2)`` of the cosine distance d.  Self
    loops among targets are removed before row normalization.  If an entire
    row underflows to zero (possible only for very small sigma) it falls
    back to uniform affinities.  Both blocks are fresh arrays.

    Parameters
    ----------
    z_s, z_t : ndarray (k, n_s) and (k, n_t)
        Embedded samples, one column each.
    sigma : float
        Positive bandwidth; smaller values sharpen the graph.
    """
    z_s, z_t = _checked_domains(z_s, z_t, sigma)
    w_ts, w_tt = _build_blocks(z_s, z_t, sigma)
    return CrossDomainGraph(w_ts=w_ts, w_tt=w_tt, sigma=float(sigma))


def reweight_graph(g: CrossDomainGraph, w, source_classes) -> tuple[CrossDomainGraph, int]:
    """Scale source affinities by the masked weight of each sample's class.

    The factor vector is normalized by its maximum, which makes the
    operation scale-free: a uniform weight vector reproduces the input
    graph after renormalization.  Rows left without any mass (possible when
    n_t = 1 and underflow removes all source affinity) fall back to uniform
    target affinities, or uniform source affinities when there is no other
    target; the count of such rows is returned.  The result is computed on
    copies of both blocks, so ``g`` is left unchanged.

    Parameters
    ----------
    g : CrossDomainGraph
    w : ClassWeights
        Current class weights; masked classes contribute factor 0.
    source_classes : ndarray (n_s,)
        Hard class of every source sample.
    """
    factors = _class_factors(w, source_classes, g.w_ts.shape[1])
    w_ts = g.w_ts.astype(float)
    w_tt = g.w_tt.astype(float)
    n_dead = _reweight_blocks(w_ts, w_tt, factors)
    return CrossDomainGraph(w_ts=w_ts, w_tt=w_tt, sigma=g.sigma), n_dead


def propagate(g: CrossDomainGraph, y_s) -> np.ndarray:
    """Harmonic label propagation from source labels to target samples.

    Solves ``(I - W_tt) F = W_ts Y_s`` and returns ``F.T``, the soft label
    matrix with one column of class probabilities per target.  Because the
    graph rows are stochastic, each column sums to one.  The system is
    formed in a copy of ``W_tt``, so ``g`` is left unchanged.

    Raises
    ------
    NumericalError
        If ``I - W_tt`` is singular, which indicates targets disconnected
        from every source; a larger sigma usually reconnects them.
    """
    y_s = _checked_labels(y_s, g.w_ts.shape[1])
    return _solve_harmonic(g.w_tt.astype(float), g.w_ts @ y_s)


def propagate_labels(z_s, z_t, sigma: float, y_s, weights=None,
                     source_classes=None) -> tuple[np.ndarray, int]:
    """Build, optionally reweight, and propagate in buffers this call owns.

    Gives bit for bit what ``build_graph``, then ``reweight_graph`` when
    ``weights`` is given, then ``propagate`` give, and raises the same
    errors, but copies nothing: the blocks are reweighted in place, and
    ``W_ts`` is released once ``W_ts Y_s`` is formed, before ``I - W_tt``
    is written over ``W_tt`` and solved.  Every input is checked before the
    graph is built.

    Returns
    -------
    soft_labels : ndarray (C, n_t)
    graph_fallbacks : int
        Rows the reweighting left without mass (0 without ``weights``).
    """
    z_s, z_t = _checked_domains(z_s, z_t, sigma)
    n_s = z_s.shape[1]
    factors = None if weights is None else _class_factors(weights, source_classes, n_s)
    y_s = _checked_labels(y_s, n_s)
    w_ts, w_tt = _build_blocks(z_s, z_t, sigma)
    n_dead = 0 if factors is None else _reweight_blocks(w_ts, w_tt, factors)
    rhs = w_ts @ y_s
    del w_ts
    return _solve_harmonic(w_tt, rhs), n_dead

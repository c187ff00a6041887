"""Cross-domain graph construction and harmonic label propagation.

Target samples connect to every source sample and to every other target
sample through a Gaussian affinity on cosine distances.  Labels reach the
targets by solving the harmonic system: each target distribution is the
affinity-weighted average of its neighbors' distributions, source rows
clamped to their one-hot labels.

:func:`propagate_labels` is the one route through the graph, and the
adaptation loop and the baseline both call it.  Three private kernels do
its arithmetic in two buffers it owns: one builds the affinity blocks
``W_ts`` and ``W_tt``, one scales the source columns in place by one weight
per source sample (the vector that also weights the alignment loss) and
one turns ``W_tt`` into ``I - W_tt`` in place and solves.  ``W_ts`` is
dropped before the solve, so at most ``max(n_t*n_s + n_t**2, 2*n_t**2)``
doubles of graph are alive at once (the second ``n_t**2`` is numpy's
LAPACK copy of the system).  Keeping the build and the solve in one call
is what lets ``W_ts`` go before the ``n_t**2`` factorization.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, ValidationError


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
        else:  # the uniform source row, reweighted, unless every weight is 0
            w_ts[dead] = factors if factors.any() else 1.0
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


def propagate_labels(z_s, z_t, sigma: float, y_s,
                     sample_weights=None) -> tuple[np.ndarray, int]:
    """Build the graph, optionally reweight it, and propagate source labels.

    Affinities are ``exp(-(d / sigma)**2)`` of the cosine distance d
    between embedded samples.  Self loops among targets are removed, then
    each row of ``[W_ts | W_tt]`` is divided by its sum; a row that
    underflows to zero everywhere (possible only for very small sigma)
    falls back to uniform affinities.

    With ``sample_weights``, each source column is scaled by its sample's
    weight divided by the largest weight (so uniform weights leave the
    graph as it was), and the rows are renormalized.  A row left without
    mass falls back to uniform target affinities or, when it is the only
    target, to the uniform source row reweighted the same way (plain
    uniform only when every weight is 0); those rows are counted.

    The soft labels solve ``(I - W_tt) F = W_ts Y_s``.  Every input is
    checked before the graph is built, and none is modified: the blocks
    are this call's own buffers, reweighted in place, and ``W_ts`` is
    released once ``W_ts Y_s`` is formed, before ``I - W_tt`` is written
    over ``W_tt`` and solved.

    Parameters
    ----------
    z_s, z_t : ndarray (k, n_s) and (k, n_t)
        Embedded samples, one column each.
    sigma : float
        Positive bandwidth; smaller values sharpen the graph.
    y_s : ndarray (n_s, C)
        One-hot source labels.
    sample_weights : ndarray (n_s,), optional
        Finite, non-negative weight of every source sample, as
        :func:`partialda.alignment.source_sample_weights` returns it: the
        masked weight of the sample's class, so a class of weight 0
        contributes 0 to every row, for any number of targets.

    Returns
    -------
    soft_labels : ndarray (C, n_t)
        One column of class probabilities per target; each sums to one.
    graph_fallbacks : int
        Rows the reweighting left without mass (0 without ``sample_weights``).

    Raises
    ------
    ValidationError
        On a non-positive or non-finite sigma, inputs whose shapes disagree,
        or sample weights that are negative or not finite.
    NumericalError
        If ``I - W_tt`` is singular or the solve is not finite, which
        indicates targets disconnected from every source; a larger sigma
        usually reconnects them.
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
    n_s = z_s.shape[1]
    factors = None
    if sample_weights is not None:
        factors = np.asarray(sample_weights, dtype=float)
        if factors.shape != (n_s,):
            raise ValidationError(
                f"sample_weights has shape {factors.shape}, expected ({n_s},)"
            )
        if not np.isfinite(factors).all():
            raise ValidationError("sample_weights contains NaN or Inf entries")
        if (factors < 0).any():
            raise ValidationError("sample_weights must be non-negative")
        top = factors.max()
        if top > 0:
            factors = factors / top
    y_s = np.asarray(y_s, dtype=float)
    if y_s.ndim != 2 or y_s.shape[0] != n_s:
        raise ValidationError(
            f"label matrix has {y_s.shape[0]} rows, expected {n_s} source samples"
        )
    w_ts, w_tt = _build_blocks(z_s, z_t, sigma)
    n_dead = 0 if factors is None else _reweight_blocks(w_ts, w_tt, factors)
    rhs = w_ts @ y_s
    del w_ts
    return _solve_harmonic(w_tt, rhs), n_dead

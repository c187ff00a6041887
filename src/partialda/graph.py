"""Cross-domain graph construction and harmonic label propagation.

Target samples connect to every source sample and to every other target
sample through a Gaussian affinity on cosine distances.  Labels reach the
targets by solving the harmonic system: each target distribution is the
affinity-weighted average of its neighbors' distributions, source rows
clamped to their one-hot labels.

:func:`propagate_labels` is the one route through the graph, and the
adaptation loop and the baseline both call it.  It never holds the whole
``W_ts`` or ``W_tt``: one kernel builds, reweights and normalizes the
affinity rows of ``_BLOCK_ROWS`` targets at a time in two small buffers,
writes their rows of ``W_ts Y_s`` into the right-hand side and their rows
of ``I - W_tt``, transposed, into one ``n_t x n_t`` buffer.  That
buffer is the system in the column-major order LAPACK reads, so numpy's
own ``dgesv`` factors and solves it in place
(:func:`partialda._lapack.gesv`).  At most
``n_t**2 + _BLOCK_ROWS * (n_s + n_t)`` doubles of graph are alive at once.
Where numpy's OpenBLAS does not export ``dgesv`` under the name looked for,
``np.linalg.solve`` solves the same matrix to the same bits from its own
copy, one ``n_t**2`` more.
"""

from __future__ import annotations

import numpy as np

from ._lapack import gesv
from .errors import NumericalError, ValidationError

# Target rows built per step.  The gemm bits of a row can depend on the
# block's row count, so this is fixed rather than a knob.
_BLOCK_ROWS = 256

# How far a target's soft labels may sum from 1 before it counts as having
# received no source mass.  With one-hot source labels a target connected
# to source mass sums to 1 up to rounding (within 1.8e-11 on the 4000
# targets of the baseline-large benchmark); one cut off from every source
# sums to about 0, or to whatever a nearly singular solve leaves.
_MASS_TOL = 1e-6


def _unit_columns(a: np.ndarray) -> np.ndarray:
    """Columns scaled to unit norm; a zero column stays zero."""
    norms = np.linalg.norm(a, axis=0)
    return a / np.where(norms > 0, norms, 1.0)


def cosine_distances(a, b) -> np.ndarray:
    """Pairwise 1 - cosine similarity between columns of a and columns of b.

    A zero column has similarity 0 with everything, hence distance 1.
    """
    out = _unit_columns(np.asarray(a, dtype=float)).T @ _unit_columns(np.asarray(b, dtype=float))
    return np.subtract(1.0, out, out=out)


def _affinities(ua: np.ndarray, ub: np.ndarray, sigma: float, out: np.ndarray) -> None:
    """``exp(-(d / sigma)**2)`` of the cosine distances of unit columns, written into ``out``."""
    np.matmul(ua.T, ub, out=out)
    np.subtract(1.0, out, out=out)
    out /= sigma
    np.square(out, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)


def _normalize_rows(w_ts: np.ndarray, w_tt: np.ndarray) -> np.ndarray:
    """Divide both blocks by their joint row sums in place; return the zero-sum rows."""
    totals = w_ts.sum(axis=1) + w_tt.sum(axis=1)
    dead = totals == 0.0
    safe = np.where(dead, 1.0, totals)[:, None]
    w_ts /= safe
    w_tt /= safe
    return dead


def _fill_rows(r0: int, u_s: np.ndarray, u_t: np.ndarray, sigma: float, y_s: np.ndarray,
               factors: np.ndarray | None, w_ts: np.ndarray, w_tt: np.ndarray,
               rhs: np.ndarray, system: np.ndarray) -> int:
    """Graph rows ``r0:r0+len(w_ts)``: write ``W_ts Y_s`` and ``(I - W_tt).T`` (off the diagonal).

    ``w_ts`` and ``w_tt`` are scratch rows; ``rhs`` and ``system`` receive
    this block's rows and columns.  Returns the rows the reweighting left
    without mass.
    """
    rows = slice(r0, r0 + w_ts.shape[0])
    diagonal = (np.arange(w_ts.shape[0]), np.arange(rows.start, rows.stop))
    _affinities(u_t[:, rows], u_s, sigma, w_ts)
    _affinities(u_t[:, rows], u_t, sigma, w_tt)
    w_tt[diagonal] = 0.0
    dead = _normalize_rows(w_ts, w_tt)
    if dead.any():
        w_ts[dead] = 1.0
        w_tt[dead] = 1.0
        w_tt[diagonal] = 0.0
        _normalize_rows(w_ts, w_tt)
    n_dead = 0
    if factors is not None:
        w_ts *= factors[None, :]
        dead = _normalize_rows(w_ts, w_tt)
        n_dead = int(dead.sum())
        if n_dead:
            if w_tt.shape[1] > 1:
                w_tt[dead] = 1.0
                w_tt[diagonal] = 0.0
            else:  # the uniform source row, reweighted
                w_ts[dead] = factors
            _normalize_rows(w_ts, w_tt)
    np.matmul(w_ts, y_s, out=rhs[rows])
    # 0 - w (not -w, which turns +0.0 into -0.0) is bit for bit the
    # off-diagonal of np.eye(n_t) - w_tt
    np.subtract(0.0, w_tt.T, out=system[:, rows])
    return n_dead


def _solve(system: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``system.T F = rhs``, factoring ``system`` in place where it can; return ``F.T``."""
    try:
        f = gesv(system.T, rhs)
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
    sums = f.sum(axis=1)
    lost = np.flatnonzero(np.abs(sums - 1.0) > _MASS_TOL)
    if lost.size:
        raise NumericalError(
            f"{lost.size} of {f.shape[0]} targets receive too little source mass "
            f"(target {lost[0]}: labels sum to {sums[lost[0]]:.10g}, not 1); "
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
    target, to the uniform source row reweighted the same way; those rows
    are counted.

    The soft labels solve ``(I - W_tt) F = W_ts Y_s``.  Every input is
    checked before the graph is built, and none is modified.  The graph is
    built ``_BLOCK_ROWS`` target rows at a time in buffers this call owns:
    each block is normalized and reweighted in place, and only its rows of
    ``W_ts Y_s`` and of ``I - W_tt`` (stored transposed) are kept.  LAPACK
    then factors that ``n_t x n_t`` system in place and solves it.

    Parameters
    ----------
    z_s, z_t : ndarray (k, n_s) and (k, n_t)
        Embedded samples, one column each.
    sigma : float
        Positive bandwidth; smaller values sharpen the graph.
    y_s : ndarray (n_s, C)
        One-hot source labels.
    sample_weights : ndarray (n_s,), optional
        Finite, non-negative weight of every source sample, not all 0, as
        :func:`partialda.alignment.source_sample_weights` returns it: the
        masked weight of the sample's class, so a class of weight 0
        contributes 0 to every row, for any number of targets.

    Returns
    -------
    soft_labels : ndarray (C, n_t)
        One column of class probabilities per target; each sums to one
        within ``_MASS_TOL``.
    graph_fallbacks : int
        Rows the reweighting left without mass (0 without ``sample_weights``).

    Raises
    ------
    ValidationError
        On a non-positive or non-finite sigma, inputs whose shapes disagree,
        non-finite embedded samples or labels, or sample weights that are
        negative, not finite or all 0.
    NumericalError
        If ``I - W_tt`` is singular, the solve is not finite, or a target's
        soft labels miss a sum of one by more than ``_MASS_TOL``, all of
        which indicate targets disconnected from every source mass; a
        larger sigma usually reconnects them.
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
    for z, side in ((z_s, "source"), (z_t, "target")):
        if not np.isfinite(z).all():
            raise ValidationError(f"embedded {side} samples contain NaN or Inf entries")
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
        if top == 0:
            raise ValidationError("sample_weights are all 0: no source sample carries a label")
        factors = factors / top
    y_s = np.asarray(y_s, dtype=float)
    if y_s.ndim != 2 or y_s.shape[0] != n_s:
        raise ValidationError(
            f"label matrix has {y_s.shape[0]} rows, expected {n_s} source samples"
        )
    if not np.isfinite(y_s).all():
        raise ValidationError("label matrix contains NaN or Inf entries")
    n_t = z_t.shape[1]
    u_s, u_t = _unit_columns(z_s), _unit_columns(z_t)
    block = min(_BLOCK_ROWS, n_t)
    w_ts = np.empty((block, n_s))
    w_tt = np.empty((block, n_t))
    rhs = np.empty((n_t, y_s.shape[1]))
    system = np.empty((n_t, n_t))  # I - W_tt, transposed: the system in Fortran order
    n_dead = 0
    for r0 in range(0, n_t, block):
        rows = min(block, n_t - r0)
        n_dead += _fill_rows(r0, u_s, u_t, sigma, y_s, factors, w_ts[:rows], w_tt[:rows],
                             rhs, system)
    del w_ts, w_tt
    # 1.0 added to the zero diagonal is bit for bit that of np.eye(n_t) - w_tt
    system.reshape(-1)[:: n_t + 1] += 1.0
    return _solve(system, rhs), n_dead

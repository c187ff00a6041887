"""Cross-domain graph construction and harmonic label propagation.

Target samples connect to every source sample and to every other target
sample through a Gaussian affinity on cosine distances.  Labels reach the
targets by solving the harmonic system: each target distribution is the
affinity-weighted average of its neighbors' distributions, source rows
clamped to their one-hot labels.

:func:`propagate_labels` is the one route through the graph, and the
adaptation loop and the baseline both call it.  It never holds the whole
``W_ts`` or ``W_tt``.  With ``D'`` the diagonal of row sums (the weighted
source mass plus the target affinities), ``W_ts = D'^-1 K_ts Omega`` and
``W_tt = D'^-1 K_tt`` for the raw Gaussian affinities ``K`` and the
diagonal ``Omega`` of source weights, and ``K_tt`` is symmetric.  So one
kernel computes, for ``_BLOCK_ROWS`` targets at a time, their ``K_ts``
rows in one small buffer, keeps only ``K_ts @ [Omega Y_s | Omega 1 | 1]``
(``W_ts Y_s`` and both source masses, unscaled), and writes their
``K_tt`` rows up to the diagonal straight into one ``n_t x n_t`` buffer,
then mirrors those rows: the strip left of their diagonal block onto the
strip above it, and the block's lower triangle onto its upper one.
Dividing column j of that buffer by ``-D'_jj`` once gives ``I - K_tt
D'^-1 = (I - W_tt).T`` off the diagonal: the system in the column-major
order LAPACK reads, so numpy's own ``dgesv`` factors and solves it in
place (:func:`partialda._lapack.gesv`).  The affinity ``exp`` runs over
one triangle, the features are read where the caller holds them, and the
one transposed copy is the mirrored half, made block by block.  At most
``n_t**2 + _BLOCK_ROWS * (n_s + d)`` doubles of graph, plus O(n_s + n_t),
are alive at once, and for a moment numpy's iterator buffers: an in-place
pass over a block of the system's rows, a strided view, takes up to three
buffers of ``np.getbufsize()`` doubles, 192 KiB at numpy's default.  Where
numpy's OpenBLAS does not export ``dgesv`` under the name looked for,
``np.linalg.solve`` solves the same matrix to the same bits from its own
copy, one ``n_t**2`` more.
"""

from __future__ import annotations

import numpy as np

from ._lapack import gesv
from .core import (_MASS_TOL, as_domain_pair, as_weights, check_one_hot_rows,
                   is_finite_number)
from .errors import NumericalError, ValidationError

# Target rows built per step.  The gemm bits of a row can depend on the
# block's row count, so this is fixed rather than a knob.
_BLOCK_ROWS = 256

# Below this row sum of affinities (2**-970), a row's products with the
# source weights can fall among the subnormal doubles, where they lose bits
# or round to 0.  Such a row is first multiplied by 1 / _FAINT, a power of
# two, so exactly: its sum stays below 1, each nonzero affinity becomes at
# least 2**-104, and the division by the row sums undoes the scaling.
_FAINT = np.finfo(float).tiny / np.finfo(float).eps


def _column_norms(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a`` with its columns in the kernel's range, and their norms, a zero column's as 1.

    A strided view is copied, so both routes sum a norm in one order.  A
    norm outside [2**-250, 2**250), where the kernel's squares could leave
    the normal doubles, has its column scaled to about 1 by a power of two,
    exactly, in a copy; then all norms are taken again.
    """
    a = a if a.flags.c_contiguous or a.flags.f_contiguous else np.ascontiguousarray(a)
    norms = np.sqrt(np.einsum("ij,ij->j", a, a))  # no d x n temporary
    odd = np.flatnonzero((norms < 2.0 ** -250) | (norms >= 2.0 ** 250))
    odd = odd[a[:, odd].any(axis=0)]  # a zero column needs no scaling
    if odd.size:
        a = a.copy(order="K")
        a[:, odd] = np.ldexp(a[:, odd], -np.frexp(np.abs(a[:, odd]).max(axis=0))[1])
        norms = np.sqrt(np.einsum("ij,ij->j", a, a))
    return a, np.where(norms > 0, norms, 1.0)


def _affinities(v_a: np.ndarray, b: tuple, out: np.ndarray) -> None:
    """``exp(-(d / sigma)**2)`` of the cosine distances d between columns, written into ``out``.

    ``v_a`` holds unit columns over sigma, and ``b = (x, reach, shrink)``
    columns x of norms n, ``reach = n / sigma`` and ``shrink = -1 / n**2``:
    ``reach - v_a.T @ x = n d / sigma``, squared times ``shrink``, is
    ``-(d / sigma)**2``: four passes in place.
    """
    x_b, reach_b, shrink_b = b
    np.matmul(v_a.T, x_b, out=out)
    np.subtract(reach_b, out, out=out)
    with np.errstate(over="ignore"):  # inf, whose exp is the 0 it stands for
        np.square(out, out=out)
        np.multiply(out, shrink_b, out=out)
    np.exp(out, out=out)


def _affinity_blocks(x_s: np.ndarray, x_t: np.ndarray, sigma: float,
                     sources: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``K_tt`` with a zero diagonal, ``K_ts @ sources`` and the row sums of ``K_tt``.

    Each block of ``_BLOCK_ROWS`` targets puts its unit columns over sigma
    and its ``K_ts`` rows in two scratch buffers, keeps only ``K_ts @
    sources`` and writes its ``K_tt`` rows up to the diagonal block into the
    ``n_t x n_t`` result, then mirrors them: the strip left of the diagonal
    block in one transposed copy, the block's lower triangle a row at a time.

    The last column of ``sources`` is all ones, so the product's last column
    is each row's source mass.  A row whose affinities sum below ``_FAINT``
    comes back multiplied by ``1 / _FAINT``: its ``K_ts`` product is
    recomputed from the scaled row, and its ``K_tt`` row is scaled where the
    system reads it, in its column, so the other rows keep theirs.
    """
    (x_s, norms_s), (x_t, norms_t) = _column_norms(x_s), _column_norms(x_t)
    (d, n_t), block = x_t.shape, min(_BLOCK_ROWS, x_t.shape[1])
    # below 2**-60 an affinity is 0 or 1 at any sigma; above 2**-750, n / sigma < 2**1000
    sigma = max(sigma, 2.0 ** -750)
    source, target = ((x, n / sigma, -1.0 / n**2) for x, n in ((x_s, norms_s), (x_t, norms_t)))
    scratch, k_ts = np.empty(d * block), np.empty((block, x_s.shape[1]))
    masses, k_tt = np.empty((n_t, sources.shape[1])), np.empty((n_t, n_t))
    for r0 in range(0, n_t, block):
        rows = slice(r0, min(r0 + block, n_t))
        v, part = scratch[: d * (rows.stop - r0)].reshape(d, -1), k_ts[: rows.stop - r0]
        np.divide(np.divide(x_t[:, rows], norms_t[rows], out=v), sigma, out=v)
        _affinities(v, source, part)
        np.matmul(part, sources, out=masses[rows])
        _affinities(v, [c[..., : rows.stop] for c in target], k_tt[rows, : rows.stop])
        k_tt[:r0, rows] = k_tt[rows, :r0].T
        for i in range(r0, rows.stop):  # a row at a time: no block x block temporary
            k_tt[r0:i, i] = k_tt[i, r0:i]
    k_tt.reshape(-1)[:: n_t + 1] = 0.0
    degrees = k_tt.sum(axis=1)
    total = masses[:, -1] + degrees
    faint = np.flatnonzero((total > 0.0) & (total < _FAINT))
    for j in faint:  # one strided view at a time: no n_t x n_t temporary
        k_tt[:, j] /= _FAINT
    degrees[faint] /= _FAINT
    for r0 in range(0, faint.size, block):
        rows = faint[r0:r0 + block]
        v, part = scratch[: d * rows.size].reshape(d, -1), k_ts[: rows.size]
        np.take(x_t, rows, axis=1, out=v, mode="clip")  # unbuffered: no d x rows gather
        np.divide(np.divide(v, norms_t[rows], out=v), sigma, out=v)
        _affinities(v, source, part)
        part /= _FAINT
        masses[rows] = part @ sources
    return k_tt, masses, degrees


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
                     class_weights=None) -> tuple[np.ndarray, int]:
    """Build the graph, optionally reweight it, and propagate source labels.

    Affinities are ``exp(-(d / sigma)**2)`` of the cosine distance d
    between embedded samples.  Self loops among targets are removed; with
    ``class_weights`` w, each source column is scaled by its sample's
    factor, its weight ``y_s @ w`` over the largest source's (so uniform
    weights leave the graph as it was); then each row of ``[W_ts | W_tt]``
    is divided by its sum.  A row without mass, its affinities all
    underflowed (possible only for very small sigma) or its sources all
    weighted 0 and no target in reach, falls back to uniform affinities
    weighted the same way: 1 to every other target and each source its
    factor.  Only the rows the weighting emptied, those with raw source
    mass, are counted; if every target is emptied, each gets the weighted
    class prior ``f @ y_s / f.sum()`` for the factors f.

    The soft labels solve ``(I - W_tt) F = W_ts Y_s``.  Every input is
    checked before the graph is built, and none is modified.  The graph is
    built ``_BLOCK_ROWS`` target rows at a time in buffers this call owns,
    from one triangle of the symmetric target affinities, and scaled by its
    row sums once, in the columns of the ``n_t x n_t`` system that LAPACK
    then factors in place.  A row without affinities is by symmetry also a
    zero column, so each fallback above replaces one system column and one
    right-hand-side row.  A row whose affinities are all subnormal is scaled
    up by a power of two before it is weighted, so that, as when it is
    divided by its sum first, weighting does not round its mass away.

    Parameters
    ----------
    z_s, z_t : ndarray (k, n_s) and (k, n_t)
        Embedded samples, one column each.
    sigma : float
        Positive bandwidth; smaller values sharpen the graph.
    y_s : ndarray (n_s, C)
        One-hot source labels: entries 0 or 1, one 1 per row.  A class
        may have no source sample.
    class_weights : ndarray (C,), optional
        Finite, non-negative weight of every class, not 0 on every source
        sample; only their ratios matter.  The loop passes its masked class
        weights: each sample carries its class's weight, so a class of
        weight 0 contributes 0 to every row, for any number of targets.

    Returns
    -------
    soft_labels : ndarray (C, n_t)
        One column of class probabilities per target; each sums to one
        within ``_MASS_TOL``.
    graph_fallbacks : int
        Rows the weighting emptied (0 without ``class_weights``).

    Raises
    ------
    ValidationError
        On a sigma that is not a positive, finite number, embedded samples
        that ``core.as_domain_pair`` refuses (not 2-dimensional, empty, not
        finite or of different dimensions), labels whose shape disagrees or
        that are not one-hot, or class weights of the wrong shape, negative,
        not finite or 0 on every source sample.
    NumericalError
        If ``I - W_tt`` is singular, the solve is not finite, or a target's
        soft labels miss a sum of one by more than ``_MASS_TOL``, all of
        which indicate targets disconnected from every source mass; a
        larger sigma usually reconnects them.
    """
    if not (is_finite_number(sigma, "sigma", ValidationError) and sigma > 0):
        raise ValidationError(f"sigma must be positive and finite, got {sigma}")
    z_s, z_t = as_domain_pair(z_s, z_t)
    n_s = z_s.shape[1]
    y_s = np.asarray(y_s, dtype=float)
    if y_s.ndim != 2 or y_s.shape[0] != n_s:
        raise ValidationError(
            f"label matrix has shape {y_s.shape}, expected ({n_s}, C): "
            "one row per source sample, one column per class"
        )
    check_one_hot_rows(y_s)
    n_t, c = z_t.shape[1], y_s.shape[1]
    f = np.ones(n_s)  # each source's factor: its weight over the largest
    if class_weights is not None:
        w = as_weights(class_weights, c, "class_weights")
        # all 0 also where only classes without a source sample weigh
        f = as_weights(y_s @ w, n_s, "y_s @ class_weights")
        f = f / f.max()
    spread = f @ y_s  # W_ts Y_s of a uniform source row, before its scaling
    # K_ts @ [f Y_s | f | 1]: W_ts Y_s and both source masses, each row unscaled
    k_tt, masses, degrees = _affinity_blocks(
        z_s, z_t, sigma, np.column_stack([f[:, None] * y_s, f, np.ones(n_s)]))
    rhs, weighted, raw = masses[:, :c], masses[:, c], masses[:, c + 1]
    degrees += weighted
    # underflowed or emptied by the weighting: uniform affinities, then
    # weighted.  K_tt is symmetric, so a row without affinities is also a
    # zero column: each fallback is one system column and one rhs row
    dead = np.flatnonzero(degrees == 0.0)
    k_tt[:, dead] = 1.0
    rhs[dead] = spread
    degrees[dead] = n_t - 1 + f.sum()
    # (I - D'^-1 K_tt).T = I - K_tt D'^-1, by columns: the system in Fortran order
    np.divide(k_tt, -degrees, out=k_tt)
    k_tt.reshape(-1)[:: n_t + 1] = 1.0
    rhs /= degrees[:, None]
    return _solve(k_tt, rhs), int(np.count_nonzero(raw[dead]))

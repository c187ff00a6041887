"""Projection learning via a symmetric-definite generalized eigenproblem.

Given the (d, n) feature matrix Z and the d x d scatter ``S = Z M Z.T`` of
the combined alignment matrix M, the projection A stacks the eigenvectors
of

    (S + lam I) a = phi (Z H Z.T + eps_r I) a

belonging to the k smallest eigenvalues, where H is the n x n centering
matrix; :func:`gram_matrix` subtracts the row means of Z instead of
building it.
Minimizing the alignment losses subject to unit projected variance amounts
to exactly this pencil, so the smallest eigenvalues are the right end.

Between rounds only the soft labels and class weights change, so
:func:`gram_matrix` does everything else once per run.  It factors the
constraint side ``Z H Z.T + eps_r I = L L.T`` and keeps ``L^-1``, the
whitened centred data ``Wc = L^-1 (Z - mu 1.T)``, the whitened mean
``m = L^-1 mu`` and the round-invariant part of the whitened pencil,

    base = alpha_c Wc Wc.T + alpha_p Wc_t Wc_t.T + lam L^-1 L^-T.

Each round the rest of the whitened scatter is ``U N U.T`` for the
(d, 3C + 4) factor U and the small N of
:func:`partialda.alignment.scatter_factors`, so :func:`solve_projection`
writes ``U N U.T + base`` into one d x d buffer kept with the data: a round
makes no d x n array and no d^2 n product.  That is one standard symmetric
eigenproblem, of which only the k smallest eigenpairs are computed; their
eigenvectors v map back as ``a = L^-T v``.
Everything runs on numpy's own BLAS/LAPACK: ``numpy.linalg.cholesky``
factors the constraint side, and LAPACK ``dtrtri`` (invert ``L`` as a
triangle) and ``dsyevr`` (the k smallest eigenpairs only, computed in the
buffer itself) are called from numpy's OpenBLAS through
:mod:`partialda._lapack`, which falls back to ``numpy.linalg.inv`` and a
full ``numpy.linalg.eigh`` where they are missing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import syevr_smallest, trtri_lower
from .alignment import invariant_scatter
from .errors import NumericalError, ValidationError


@dataclass(frozen=True)
class WhitenedData:
    """Source and target features plus everything of the pencil that is fixed per run.

    With ``Z = [x_s | x_t]``, ``mu`` its row means and
    ``(Z - mu 1.T)(Z - mu 1.T).T + eps_r I = L L.T``: ``l_inv`` is ``L^-1``,
    ``centred`` is ``L^-1 (Z - mu 1.T)``, ``mean`` is ``L^-1 mu`` and
    ``base`` is the round-invariant part of the whitened pencil.
    ``pencil`` is the d x d buffer each round's pencil is built and solved
    in.
    """

    x_s: np.ndarray
    x_t: np.ndarray
    centred: np.ndarray
    mean: np.ndarray
    l_inv: np.ndarray
    base: np.ndarray
    pencil: np.ndarray


@dataclass(frozen=True)
class Projection:
    """Learned projection with its eigenvalues, ascending."""

    a: np.ndarray
    eigenvalues: np.ndarray


def _cond(m: np.ndarray) -> float:
    """Condition number for an error message; inf when it cannot be computed."""
    try:
        return float(np.linalg.cond(m))
    except np.linalg.LinAlgError:
        return float("inf")


def _inverse_cholesky(rhs: np.ndarray) -> np.ndarray:
    """``L^-1`` for ``rhs = L L.T``; only the lower triangle of rhs is read."""
    try:
        return trtri_lower(np.linalg.cholesky(rhs))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"constraint side is not positive definite (cond rhs {_cond(rhs):.3e}): {exc}"
        ) from exc


def _check_k(k: int, dim: int) -> None:
    if k < 1:
        raise ValidationError(f"k must be at least 1, got {k}")
    if k > dim:
        raise ValidationError(
            f"k={k} exceeds the {dim} numerically valid eigenpairs; use a smaller k"
        )


def gram_matrix(x_s, x_t, lam: float = 0.1, rhs_reg: float = 1e-6,
                alpha_p: float = 0.0, alpha_c: float = 0.0) -> WhitenedData:
    """Factor the constraint side and cache the round-invariant pencil, once per run.

    The constraint side ``Z H Z.T`` of ``Z = [x_s | x_t]`` receives
    ``eps_r = rhs_reg * trace(Z H Z.T) / n`` on its diagonal so the pencil
    stays definite, and ``lam`` is the positive ridge on the projection
    columns.  ``alpha_p`` and ``alpha_c`` weigh the round-invariant parts of
    the center and cluster terms in ``base``; the rounds must pass
    :func:`partialda.alignment.scatter_factors` the same two weights.  With
    both 0, ``base`` is the whitened ridge alone and
    :func:`solve_projection` takes the whole whitened scatter as its
    factors.  Z is never stacked: ``x_s`` and ``x_t`` are kept as given.

    Raises
    ------
    ValidationError
        On a bad shape, ``lam``, ``alpha_p`` or ``alpha_c``.
    NumericalError
        When the centred data has no variance or the constraint side is not
        positive definite.
    """
    x_s = np.asarray(x_s, dtype=float)
    x_t = np.asarray(x_t, dtype=float)
    for x in (x_s, x_t):
        if x.ndim != 2:
            raise ValidationError(f"features must be 2-dimensional, got shape {x.shape}")
    if x_s.shape[0] != x_t.shape[0]:
        raise ValidationError(
            f"source and target feature dimensions differ: {x_s.shape[0]} vs {x_t.shape[0]}"
        )
    if lam <= 0:
        raise ValidationError(f"lam must be positive, got {lam}")
    d, n_s = x_s.shape
    n = n_s + x_t.shape[1]
    mu = (x_s.sum(axis=1) + x_t.sum(axis=1)) / n
    centred = np.empty((d, n))
    np.subtract(x_s, mu[:, None], out=centred[:, :n_s])
    np.subtract(x_t, mu[:, None], out=centred[:, n_s:])
    rhs = centred @ centred.T
    variance = float(np.trace(rhs))
    scale = float(np.vdot(x_s, x_s) + np.vdot(x_t, x_t))
    if variance <= n * np.finfo(float).eps * max(1.0, scale):
        raise NumericalError(
            f"centered data has no variance (trace {variance:.3e}); "
            "the constraint side cannot be regularized"
        )
    rhs.flat[::d + 1] += rhs_reg * variance / n
    l_inv = _inverse_cholesky(rhs)
    del rhs
    centred = l_inv @ centred
    base = invariant_scatter(centred, n_s, alpha_p, alpha_c)
    ridge = l_inv @ l_inv.T
    ridge *= lam
    base += ridge
    del ridge
    return WhitenedData(x_s=x_s, x_t=x_t, centred=centred, mean=l_inv @ mu, l_inv=l_inv,
                        base=base, pencil=np.empty((d, d)))


def _fill_pencil(data: WhitenedData, u: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``U N U.T + base``, written into the data's pencil buffer."""
    pencil = np.matmul(u, n @ u.T, out=data.pencil)
    pencil += data.base
    return pencil


def solve_projection(data: WhitenedData, u, n, k: int) -> Projection:
    """Learn the k-dimensional projection for a combined alignment loss.

    The whitened pencil is ``U N U.T + data.base``, built in
    ``data.pencil``, which the eigensolver then overwrites.

    Parameters
    ----------
    data : WhitenedData
        Output of :func:`gram_matrix`, which fixed ``lam``, ``rhs_reg`` and
        the round-invariant part of the scatter.
    u : ndarray (d, q)
        Left factor of the round's part of the whitened scatter, where d is
        the feature dimension.
    n : ndarray (q, q)
        Symmetric middle factor.  Together they give the rest of the
        whitened scatter ``L^-1 Z M Z.T L^-T``: the ``U, N`` of
        :func:`partialda.alignment.scatter_factors`, or the whitened data
        and M itself when ``base`` holds only the ridge.
    k : int
        Number of eigenvectors, at most the feature dimension d.

    Raises
    ------
    ValidationError
        On shape mismatches or an infeasible ``k``.
    NumericalError
        When the eigensolver fails or returns non-finite values.  The
        condition number it reports is that of the pencil as the
        eigensolver received it.
    """
    u = np.asarray(u, dtype=float)
    n = np.asarray(n, dtype=float)
    dim = data.l_inv.shape[0]
    if u.ndim != 2 or u.shape[0] != dim or n.shape != (u.shape[1], u.shape[1]):
        raise ValidationError(
            f"scatter factors of shapes {u.shape} and {n.shape} do not match "
            f"the {dim} data rows"
        )
    _check_k(k, dim)
    try:
        phi, vecs = syevr_smallest(_fill_pencil(data, u, n), k)
    except np.linalg.LinAlgError as exc:
        # the eigensolver overwrote the pencil, so it is built again
        raise NumericalError(
            f"eigensolver failed (cond pencil {_cond(_fill_pencil(data, u, n)):.3e}): {exc}"
        ) from exc
    a = data.l_inv.T @ vecs
    if not (np.isfinite(phi).all() and np.isfinite(a).all()):
        n_ok = int(np.isfinite(phi).cumprod().sum())
        raise NumericalError(
            f"only {n_ok} numerically valid eigenpairs "
            f"(cond pencil {_cond(_fill_pencil(data, u, n)):.3e}); use a smaller k"
        )
    # scale each eigenvector so its largest-magnitude entry is positive,
    # which pins down the sign deterministically
    flip = a[np.argmax(np.abs(a), axis=0), np.arange(k)] < 0
    a[:, flip] *= -1.0
    return Projection(a=a, eigenvalues=phi)


def embed(proj: Projection, data: WhitenedData) -> np.ndarray:
    """Project every sample into the learned subspace, one column each, source first."""
    if proj.a.shape[0] != data.x_s.shape[0]:
        raise ValidationError(
            f"projection rows {proj.a.shape[0]} do not match data rows {data.x_s.shape[0]}"
        )
    return np.hstack([proj.a.T @ data.x_s, proj.a.T @ data.x_t])


def projection_objective(proj: Projection, scatter, lam: float) -> float:
    """Value of trace(A.T S A) + lam ||A||_F^2 for a learned projection.

    ``scatter`` is the k x k ``A.T S A``, the alignment scatter of the
    embedded samples ``embed(proj, data)``:
    :func:`partialda.alignment.alignment_scatter` is linear in its data, so
    it forms this from the embedding directly, without the whitened ridge
    whose norm would swamp a small objective.
    """
    scatter = np.asarray(scatter, dtype=float)
    k = proj.a.shape[1]
    if scatter.shape != (k, k):
        raise ValidationError(
            f"projected scatter shape {scatter.shape} does not match the {k} projection columns"
        )
    return float(np.trace(scatter) + lam * np.sum(proj.a ** 2))

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

Only S changes between rounds, so :func:`gram_matrix` factors the
constraint side once per run, ``Z H Z.T + eps_r I = L L.T``, and keeps
``L^-1``, the whitened data ``L^-1 Z`` and the whitened ridge
``lam L^-1 L^-T``.  The loop builds the scatter from the whitened data
(:func:`partialda.alignment.alignment_scatter` is linear in Z, so it
returns ``L^-1 S L^-T``), and each round is then one standard symmetric
eigenproblem, of which only the k smallest eigenpairs are computed; their
eigenvectors v map back as ``a = L^-T v``.
Everything runs on numpy's own BLAS/LAPACK: ``numpy.linalg.cholesky``
factors the constraint side, and LAPACK ``dtrtri`` (invert ``L`` as a
triangle) and ``dsyevr`` (the k smallest eigenpairs only) are called from
numpy's OpenBLAS through :mod:`partialda._lapack`, which falls back to
``numpy.linalg.inv`` and a full ``numpy.linalg.eigh`` where they are missing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import syevr_smallest, trtri_lower
from .errors import NumericalError, ValidationError


@dataclass(frozen=True)
class WhitenedData:
    """The (d, n) features fed to the solver plus their factored constraint side.

    With ``Z H Z.T + eps_r I = L L.T`` for ``Z = matrix``, ``l_inv`` is
    ``L^-1``, ``whitened`` is ``L^-1 Z`` and ``ridge`` is ``lam L^-1 L^-T``.
    """

    matrix: np.ndarray
    whitened: np.ndarray
    l_inv: np.ndarray
    ridge: np.ndarray


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


def _smallest_pairs(pencil: np.ndarray, l_inv: np.ndarray,
                    k: int) -> tuple[np.ndarray, np.ndarray]:
    """k smallest eigenpairs of a whitened pencil, mapped back by ``L^-T``.

    Only the lower triangle of ``pencil`` is read.  Each eigenvector is
    scaled so its largest-magnitude entry is positive, which pins down the
    sign deterministically.
    """
    try:
        phi, vecs = syevr_smallest(pencil, k)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigensolver failed (cond pencil {_cond(pencil):.3e}): {exc}"
        ) from exc
    a = l_inv.T @ vecs
    if not (np.isfinite(phi).all() and np.isfinite(a).all()):
        n_ok = int(np.isfinite(phi).cumprod().sum())
        raise NumericalError(
            f"only {n_ok} numerically valid eigenpairs "
            f"(cond pencil {_cond(pencil):.3e}); use a smaller k"
        )
    flip = a[np.argmax(np.abs(a), axis=0), np.arange(k)] < 0
    a[:, flip] *= -1.0
    return phi, a


def gram_matrix(x, lam: float = 0.1, rhs_reg: float = 1e-6) -> WhitenedData:
    """Wrap the (d, n) features for the solver and factor the constraint side once.

    The constraint side ``Z H Z.T`` receives
    ``eps_r = rhs_reg * trace(Z H Z.T) / n`` on its diagonal so the pencil
    stays definite, and ``lam`` is the positive ridge on the projection
    columns.

    Raises
    ------
    ValidationError
        On a bad shape or ``lam``.
    NumericalError
        When the centred data has no variance or the constraint side is not
        positive definite.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValidationError(f"features must be 2-dimensional, got shape {x.shape}")
    if lam <= 0:
        raise ValidationError(f"lam must be positive, got {lam}")
    n = x.shape[1]
    centred = x - x.mean(axis=1, keepdims=True)
    rhs = centred @ centred.T
    del centred
    variance = float(np.trace(rhs))
    if variance <= n * np.finfo(float).eps * max(1.0, float(np.vdot(x, x))):
        raise NumericalError(
            f"centered data has no variance (trace {variance:.3e}); "
            "the constraint side cannot be regularized"
        )
    rhs.flat[::rhs.shape[0] + 1] += rhs_reg * variance / n
    l_inv = _inverse_cholesky(rhs)
    del rhs
    ridge = l_inv @ l_inv.T
    ridge *= lam
    return WhitenedData(matrix=x, whitened=l_inv @ x, l_inv=l_inv, ridge=ridge)


def solve_projection(data: WhitenedData, scatter, k: int) -> Projection:
    """Learn the k-dimensional projection for a combined alignment loss.

    Parameters
    ----------
    data : WhitenedData
        Output of :func:`gram_matrix`, which fixed ``lam`` and ``rhs_reg``.
    scatter : ndarray (d, d)
        Whitened scatter ``L^-1 Z M Z.T L^-T`` of the combined alignment
        matrix M, i.e. the scatter of ``data.whitened``, where d is the
        feature dimension.  Only its lower triangle is read.
        The ridge is added into it in place, so a float array passed here
        is overwritten with the whitened pencil.
    k : int
        Number of eigenvectors, at most the feature dimension d.

    Raises
    ------
    ValidationError
        On shape mismatches or an infeasible ``k``.
    NumericalError
        When the eigensolver fails or returns non-finite values.
    """
    scatter = np.asarray(scatter, dtype=float)
    dim = data.l_inv.shape[0]
    if scatter.shape != (dim, dim):
        raise ValidationError(
            f"alignment scatter shape {scatter.shape} does not match the {dim} data rows"
        )
    _check_k(k, dim)
    scatter += data.ridge
    phi, a = _smallest_pairs(scatter, data.l_inv, k)
    return Projection(a=a, eigenvalues=phi)


def embed(proj: Projection, data: WhitenedData) -> np.ndarray:
    """Project every sample into the learned subspace, one column each."""
    if proj.a.shape[0] != data.matrix.shape[0]:
        raise ValidationError(
            f"projection rows {proj.a.shape[0]} do not match data rows {data.matrix.shape[0]}"
        )
    return proj.a.T @ data.matrix


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

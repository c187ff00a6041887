"""Projection learning via a symmetric-definite generalized eigenproblem.

Given the data matrix Z (raw features or a linear kernel) and the dim x dim
scatter ``S = Z M Z.T`` of the combined alignment matrix M, the projection A
stacks the eigenvectors of

    (S + lam I) a = phi (Z H Z.T + eps_r I) a

belonging to the k smallest eigenvalues, where H is the centering matrix.
The solver never sees M itself: the loop builds S from the factors of the
alignment terms (:func:`partialda.alignment.alignment_scatter`), and
``Z H Z.T`` is computed once per run from the column-centred Z.
Minimizing the alignment losses subject to unit projected variance amounts
to exactly this pencil, so the smallest eigenvalues are the right end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import KERNELS
from .errors import NumericalError, ValidationError
from .alignment import symmetrize


@dataclass(frozen=True)
class KernelizedData:
    """Data matrix fed to the solver plus its centred scatter ``Z H Z.T``.

    mode is "raw" when matrix holds the (d, n) features themselves and
    "kernel" when it holds the (n, n) Gram matrix of inner products.
    """

    matrix: np.ndarray
    zhz: np.ndarray
    mode: str
    n_samples: int


@dataclass(frozen=True)
class Projection:
    """Learned projection with its eigenvalues, ascending."""

    a: np.ndarray
    eigenvalues: np.ndarray
    mode: str


def centering_matrix(n: int) -> np.ndarray:
    """The n x n matrix I - (1/n) 11' that removes the column mean."""
    if n < 1:
        raise ValidationError(f"centering matrix needs n >= 1, got {n}")
    return np.eye(n) - np.full((n, n), 1.0 / n)


def gram_matrix(x, kernel: str = "none") -> KernelizedData:
    """Wrap features for the solver, optionally as a linear kernel.

    With ``kernel="none"`` the features pass through untouched; with
    ``"linear"`` the (n, n) matrix of inner products replaces them and the
    projection is later expressed in sample coordinates.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValidationError(f"features must be 2-dimensional, got shape {x.shape}")
    if kernel not in KERNELS:
        raise ValidationError(f"kernel must be one of {KERNELS}, got {kernel!r}")
    if kernel == "linear":
        z, mode = symmetrize(x.T @ x), "kernel"
    else:
        z, mode = x, "raw"
    centred = z - z.mean(axis=1, keepdims=True)
    return KernelizedData(matrix=z, zhz=centred @ centred.T, mode=mode,
                          n_samples=x.shape[1])


def generalized_eigh(lhs: np.ndarray, rhs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k smallest eigenpairs of the symmetric pencil ``lhs a = phi rhs a``.

    rhs must be positive definite.  Only the k wanted pairs are computed.
    Eigenvalues come back ascending and each eigenvector is scaled so its
    largest-magnitude entry is positive, which pins down the sign
    deterministically.
    """
    dim = lhs.shape[0]
    if k < 1 or k > dim:
        raise ValidationError(
            f"k={k} exceeds the {dim} numerically valid eigenpairs; use a smaller k"
        )
    try:
        phi, vecs = scipy.linalg.eigh(lhs, rhs, subset_by_index=[0, k - 1])
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError, ValueError) as exc:
        raise NumericalError(
            "generalized eigensolver failed "
            f"(cond lhs {np.linalg.cond(lhs):.3e}, cond rhs {np.linalg.cond(rhs):.3e}): {exc}"
        ) from exc
    a = vecs.copy()
    if not (np.isfinite(phi).all() and np.isfinite(a).all()):
        n_ok = int(np.isfinite(phi).cumprod().sum())
        raise NumericalError(
            f"only {n_ok} numerically valid eigenpairs "
            f"(cond lhs {np.linalg.cond(lhs):.3e}, cond rhs {np.linalg.cond(rhs):.3e}); "
            "use a smaller k"
        )
    flip = a[np.argmax(np.abs(a), axis=0), np.arange(k)] < 0
    a[:, flip] *= -1.0
    return phi, a


def solve_projection(data: KernelizedData, scatter, lam: float, k: int,
                     rhs_reg: float = 1e-6) -> Projection:
    """Learn the k-dimensional projection for a combined alignment loss.

    Parameters
    ----------
    data : KernelizedData
        Output of :func:`gram_matrix`.
    scatter : ndarray (dim, dim)
        Symmetric ``Z M Z.T`` of the combined alignment matrix M, where dim
        is the row count of the data matrix.
    lam : float
        Positive ridge on the projection columns.
    k : int
        Number of eigenvectors, at most the row count of the data matrix.
    rhs_reg : float
        The constraint side receives ``rhs_reg * trace(Z H Z.T) / n`` on its
        diagonal so the pencil stays definite.

    Raises
    ------
    ValidationError
        On shape mismatches or an infeasible ``k``.
    NumericalError
        When the eigensolver fails or returns non-finite values.
    """
    z = np.asarray(data.matrix, dtype=float)
    scatter = np.asarray(scatter, dtype=float)
    n = data.n_samples
    dim = z.shape[0]
    if scatter.shape != (dim, dim):
        raise ValidationError(
            f"alignment scatter shape {scatter.shape} does not match the {dim} data rows"
        )
    if lam <= 0:
        raise ValidationError(f"lam must be positive, got {lam}")
    if k > dim:
        raise ValidationError(
            f"k={k} exceeds the {dim} numerically valid eigenpairs; use a smaller k"
        )
    lhs = symmetrize(scatter) + lam * np.eye(dim)
    zhz = data.zhz
    variance = float(np.trace(zhz))
    floor = n * np.finfo(float).eps * max(1.0, float(np.sum(z * z)))
    if variance <= floor:
        raise NumericalError(
            f"centered data has no variance (trace {variance:.3e}); "
            "the constraint side cannot be regularized"
        )
    eps_r = rhs_reg * variance / n
    rhs = zhz + eps_r * np.eye(dim)
    phi, a = generalized_eigh(lhs, rhs, k)
    return Projection(a=a, eigenvalues=phi, mode=data.mode)


def embed(proj: Projection, data: KernelizedData) -> np.ndarray:
    """Project every sample into the learned subspace, one column each."""
    if proj.mode != data.mode:
        raise ValidationError(
            f"projection mode {proj.mode!r} does not match data mode {data.mode!r}"
        )
    if proj.a.shape[0] != data.matrix.shape[0]:
        raise ValidationError(
            f"projection rows {proj.a.shape[0]} do not match data rows {data.matrix.shape[0]}"
        )
    return proj.a.T @ data.matrix


def projection_objective(proj: Projection, scatter, lam: float) -> float:
    """Value of trace(A.T S A) + lam ||A||_F^2 for a learned projection.

    ``scatter`` is the same dim x dim ``S = Z M Z.T`` the projection was
    solved for.
    """
    a = proj.a
    return float(np.sum((np.asarray(scatter, dtype=float) @ a) * a) + lam * np.sum(a ** 2))

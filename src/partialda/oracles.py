"""Dense reference oracles for the matrices the fast paths never build.

Each builder returns a plain symmetric ndarray of size (n_s + n_t) or n, so
a test can write a loss as ``trace(A.T @ X @ M @ X.T @ A)`` for a projection
A and the column-per-sample matrix ``X = [X_s | X_t]`` and compare it with
what the adaptation loop computes.  Which fast path each oracle checks:

* :func:`build_m0` (domain term), :func:`build_mp` with
  :func:`build_center_operators` (center term), :func:`build_mc` (cluster
  term) and :func:`combine` (their weighted sum) check
  :func:`partialda.alignment.invariant_scatter` plus ``U N U.T`` of
  :func:`partialda.alignment.scatter_factors`, the data-only part and the
  per-round update from which the loop forms ``Z M Z.T``, and the round
  objective ``trace(A.T Z M Z.T A) + lam ||A||^2`` that
  :func:`partialda.subspace.solve_projection` returns.
* :func:`centering_matrix` checks :func:`partialda.subspace.gram_matrix`,
  which forms the constraint side ``Z H Z.T`` by subtracting row means.
* :func:`generalized_eigh` is the reference for
  :func:`partialda.subspace.solve_projection`: it takes the dense pencil
  ``(lhs, rhs)`` that the solver only ever sees factored and whitened, and
  solves it with ``numpy.linalg`` alone, not with the solver's LAPACK
  routines.

The adaptation loop never imports this module.
"""

from __future__ import annotations

import numpy as np

from .alignment import _ridge_eps, solve_gram_system
from .errors import NumericalError, ValidationError
from .subspace import _check_k, _cond


def symmetrize(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2.0


def build_m0(omega, n_t: int) -> np.ndarray:
    """Weighted mean-discrepancy matrix.

    Encodes the squared distance between the omega-weighted source mean and
    the plain target mean: with S the weight total, the source block is
    ``omega_i * omega_j / S**2``, the target block ``1 / n_t**2`` and the
    cross blocks ``-omega_i / (S * n_t)``.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.ndim != 1 or omega.size == 0:
        raise ValidationError("omega must be a non-empty vector")
    if (omega < 0).any():
        raise ValidationError("omega entries must be non-negative")
    if n_t < 1:
        raise ValidationError(f"n_t must be >= 1, got {n_t}")
    total = omega.sum()
    if total <= 0:
        raise ValidationError("omega sums to zero")
    e = np.concatenate([omega / total, -np.ones(n_t) / n_t])
    return symmetrize(np.outer(e, e))


def _class_projector(y_s: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Projector onto the span of stacked class indicators [Y_s; P.T]."""
    y = np.vstack([y_s, p.T])
    gram = y.T @ y
    eps = _ridge_eps(gram, p.sum(axis=1))
    return y @ solve_gram_system(gram, y.T, eps)


def build_center_operators(y_s, p) -> np.ndarray:
    """The (n_s, n_t) operator Y_st rebuilding each target from source class centers.

    ``X_s @ Y_st`` has one expected center per target column.

    Parameters
    ----------
    y_s : ndarray (n_s, C)
        One-hot source labels.
    p : ndarray (C, n_t)
        Soft target labels, already masked.
    """
    y_s = np.asarray(y_s, dtype=float)
    p = np.asarray(p, dtype=float)
    if y_s.ndim != 2 or p.ndim != 2 or y_s.shape[1] != p.shape[0]:
        raise ValidationError(
            f"inconsistent shapes: labels {y_s.shape}, soft labels {p.shape}"
        )
    gram = y_s.T @ y_s
    eps = _ridge_eps(gram, p.sum(axis=1))
    return y_s @ solve_gram_system(gram, p, eps)


def build_mp(y_st) -> np.ndarray:
    """Center term: distance of each target sample to its expected source center.

    Block form ``[[Y_st Y_st.T, -Y_st], [-Y_st.T, I]]`` so that
    ``trace(A.T X M X.T A) = ||A.T (X_t - X_s Y_st)||_F**2``.
    """
    y_st = np.asarray(y_st, dtype=float)
    n_t = y_st.shape[1]
    m = np.block([
        [y_st @ y_st.T, -y_st],
        [-y_st.T, np.eye(n_t)],
    ])
    return symmetrize(m)


def build_mc(y_s, p) -> np.ndarray:
    """Cluster term contracting every sample toward its class center.

    Built from the projector Y_c onto stacked class indicators as
    ``(I - Y_c)(I - Y_c).T``, positive semidefinite by construction.
    """
    y_s = np.asarray(y_s, dtype=float)
    p = np.asarray(p, dtype=float)
    if y_s.ndim != 2 or p.ndim != 2 or y_s.shape[1] != p.shape[0]:
        raise ValidationError(
            f"label matrix shape {y_s.shape} does not match soft labels {p.shape}"
        )
    n = y_s.shape[0] + p.shape[1]
    residual = np.eye(n) - _class_projector(y_s, p)
    return symmetrize(residual @ residual.T)


def combine(m0, mp, mc, alpha_p: float, alpha_c: float) -> np.ndarray:
    """Weighted sum of the three alignment terms."""
    m0 = np.asarray(m0, dtype=float)
    mp = np.asarray(mp, dtype=float)
    mc = np.asarray(mc, dtype=float)
    if not (m0.shape == mp.shape == mc.shape) or m0.ndim != 2:
        raise ValidationError(
            f"alignment matrices disagree in shape: {m0.shape}, {mp.shape}, {mc.shape}"
        )
    if alpha_p < 0 or alpha_c < 0:
        raise ValidationError("alpha_p and alpha_c must be non-negative")
    return symmetrize(m0 + alpha_p * mp + alpha_c * mc)


def centering_matrix(n: int) -> np.ndarray:
    """The n x n matrix I - (1/n) 11' that removes the column mean."""
    if n < 1:
        raise ValidationError(f"centering matrix needs n >= 1, got {n}")
    return np.eye(n) - np.full((n, n), 1.0 / n)


def generalized_eigh(lhs: np.ndarray, rhs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k smallest eigenpairs of the symmetric pencil ``lhs a = phi rhs a``.

    rhs must be positive definite.  The pencil is reduced to standard form
    with the inverse Cholesky factor of rhs and solved for every eigenpair
    by ``numpy.linalg.eigh``, the k smallest of which are kept.
    Eigenvalues come back ascending and each eigenvector is scaled so its
    largest-magnitude entry is positive.
    """
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    _check_k(k, lhs.shape[0])
    try:
        l_inv = np.linalg.inv(np.linalg.cholesky(rhs))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"constraint side is not positive definite (cond rhs {_cond(rhs):.3e}): {exc}"
        ) from exc
    phi, vecs = np.linalg.eigh(l_inv @ lhs @ l_inv.T)
    a = l_inv.T @ vecs[:, :k]
    flip = a[np.argmax(np.abs(a), axis=0), np.arange(k)] < 0
    a[:, flip] *= -1.0
    return phi[:k], a

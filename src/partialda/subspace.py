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
``gram_matrix(x_s, x_t, config)`` does everything else once per run, with
the knobs of the :class:`partialda.core.AdaptationConfig`, which checked
them when it was built.  It factors the constraint side
``Z H Z.T + eps_r I = L L.T`` and keeps ``L^-1``, the whitened centred data
``Wc = L^-1 (Z - mu 1.T)``, the whitened mean ``m = L^-1 mu``, the
configuration and the round-invariant part of the whitened pencil,

    base = alpha_c Wc Wc.T + alpha_p Wc_t Wc_t.T + lam L^-1 L^-T
         = alpha_c I + (lam - alpha_c eps_r) L^-1 L^-T + alpha_p Wc_t Wc_t.T,

since ``L L.T = Zc Zc.T + eps_r I`` makes ``Wc Wc.T = I - eps_r L^-1 L^-T``
exactly, so the d^2 n product ``Wc Wc.T`` is never formed.

Each round the rest of the whitened scatter is ``U N U.T`` for the
(d, 3C + 4) factor U and the small N that
:func:`partialda.alignment.scatter_factors` builds from the round's source
weights and soft labels.  ``solve_projection(data, omega, y_s, p)`` builds
them, writes ``U N U.T + base`` into one d x d buffer kept with the data, so
a round makes no d x n array and no d^2 n product, and computes the k
smallest eigenpairs of that standard symmetric eigenproblem; their
eigenvectors V map back as ``A = L^-T V``.

The round objective ``trace(A.T S A) + lam ||A||_F^2`` comes from the same
factors: the whitened scatter as quadratic forms in V, the ridge from A
itself.  In exact arithmetic it is the sum of the k eigenvalues, but the
whitened ridge ``lam L^-1 L^-T`` is large wherever the constraint side is
nearly singular, and the eigenvalue sum then loses up to 1e-6 relative of
a small objective.

Everything runs on numpy's own BLAS/LAPACK: LAPACK ``dpotrf`` (factor the
constraint side in place), ``dtrtri`` (invert ``L`` as a triangle) and
``dsyevr`` (the k smallest eigenpairs only, computed in the buffer itself)
are called from numpy's OpenBLAS through :mod:`partialda._lapack`, which
falls back to ``numpy.linalg.cholesky``, ``numpy.linalg.inv`` and a full
``numpy.linalg.eigh`` where they are missing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import potrf_lower, syevr_smallest, trtri_lower
from .alignment import scatter_factors
from .core import AdaptationConfig, as_domain_pair
from .errors import NumericalError, ValidationError


@dataclass(frozen=True)
class WhitenedData:
    """Source and target features plus everything of the pencil that is fixed per run.

    With ``Z = [x_s | x_t]``, ``mu`` its row means and
    ``(Z - mu 1.T)(Z - mu 1.T).T + eps_r I = L L.T``: ``l_inv`` is ``L^-1``,
    ``centred`` is ``L^-1 (Z - mu 1.T)``, ``mean`` is ``L^-1 mu`` and
    ``base`` is the round-invariant part of the whitened pencil.
    ``pencil`` is the d x d buffer each round's pencil is built and solved
    in.  ``config``, which ``base`` was built with, is read again every round.
    """

    x_s: np.ndarray
    x_t: np.ndarray
    centred: np.ndarray
    mean: np.ndarray
    l_inv: np.ndarray
    base: np.ndarray
    pencil: np.ndarray
    config: AdaptationConfig


@dataclass(frozen=True)
class Projection:
    """Learned projection, its eigenvalues, ascending, and the round objective."""

    a: np.ndarray
    eigenvalues: np.ndarray
    objective: float


def _cond(m: np.ndarray) -> float:
    """Condition number for an error message; inf when it cannot be computed."""
    try:
        return float(np.linalg.cond(m))
    except np.linalg.LinAlgError:
        return float("inf")


def _constraint_side(centred: np.ndarray, eps_r: float) -> np.ndarray:
    """``Zc Zc.T + eps_r I`` for the centred data ``Zc``; symmetric bit for bit."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused by the caller, by name
        rhs = centred @ centred.T
    rhs.flat[::rhs.shape[0] + 1] += eps_r
    return rhs


def _inverse_cholesky(centred: np.ndarray, eps_r: float, rhs: np.ndarray) -> np.ndarray:
    """``L^-1`` for ``rhs = L L.T``, the constraint side of ``centred``; rhs is destroyed."""
    try:
        return trtri_lower(potrf_lower(rhs))
    except np.linalg.LinAlgError as exc:
        # the factorization overwrote rhs, so it is built again
        cond = _cond(_constraint_side(centred, eps_r))
        raise NumericalError(
            f"constraint side is not positive definite (cond rhs {cond:.3e}): {exc}"
        ) from exc


def gram_matrix(x_s, x_t, config: AdaptationConfig) -> WhitenedData:
    """Factor the constraint side and cache the round-invariant pencil, once per run.

    The constraint side ``Z H Z.T`` of ``Z = [x_s | x_t]`` receives
    ``eps_r = config.rhs_reg * trace(Z H Z.T) / n`` on its diagonal so the
    pencil stays definite, and ``config.lam`` is the ridge on the projection
    columns.  ``config``, whose type checked every knob, is kept on the
    result for :func:`solve_projection`; only ``k`` is checked here, against
    d.  Z is never stacked: ``x_s`` and ``x_t`` are kept as given.  Every
    input is checked before anything is factored.

    Raises
    ------
    ValidationError
        On a bad shape or non-finite features.
    ConfigurationError
        When ``config.k`` exceeds the feature dimension d.
    NumericalError
        When the centred data has no variance, its trace overflows or
        underflows, or the constraint side is not positive definite.
    """
    x_s, x_t = as_domain_pair(x_s, x_t)
    d, n_s = x_s.shape
    config.check_k(d)
    n = n_s + x_t.shape[1]
    mu = (x_s.sum(axis=1) + x_t.sum(axis=1)) / n
    centred = np.empty((d, n))
    np.subtract(x_s, mu[:, None], out=centred[:, :n_s])
    np.subtract(x_t, mu[:, None], out=centred[:, n_s:])
    rhs = _constraint_side(centred, 0.0)
    variance = float(np.trace(rhs))
    if not np.isfinite(variance):
        raise NumericalError(
            f"centered data overflows (trace {variance:.3e}); scale the features down"
        )
    # Judged relative to the data's own scale, so any power-of-two scaling of
    # the features is refused or accepted alike; constant data has trace 0.
    # The data's sum of squares is the trace plus n |mu|^2.  Both sides are
    # scaled by the power of two that brings the largest centred or mean
    # entry near 1, so neither overflows, and the largest centred entry
    # squared stands in for a trace whose squares underflow.
    spread = max(float(centred.max()), -float(centred.min()))
    shift = -int(np.frexp(max(spread, float(np.abs(mu).max())))[1])
    scaled = max(np.ldexp(variance, 2 * shift), np.ldexp(spread, shift) ** 2)
    if scaled <= n * np.finfo(float).eps * (scaled + n * float(np.sum(np.ldexp(mu, shift) ** 2))):
        raise NumericalError(
            f"centered data has no variance (trace {variance:.3e}); "
            "the constraint side cannot be regularized"
        )
    if variance < np.finfo(float).tiny:
        raise NumericalError(
            f"centered data underflows (trace {variance:.3e}); scale the features up"
        )
    eps_r = config.rhs_reg * variance / n
    rhs.flat[::d + 1] += eps_r
    l_inv = _inverse_cholesky(centred, eps_r, rhs)
    del rhs
    centred = l_inv @ centred
    # Wc Wc.T = I - eps_r L^-1 L^-T, so only the target columns need a product
    base = l_inv @ l_inv.T
    base *= config.lam - config.alpha_c * eps_r
    base.flat[::d + 1] += config.alpha_c
    centred_t = centred[:, n_s:]
    target = centred_t @ centred_t.T
    target *= config.alpha_p
    base += target
    del target  # before the pencil buffer below is allocated
    return WhitenedData(x_s=x_s, x_t=x_t, centred=centred, mean=l_inv @ mu, l_inv=l_inv,
                        base=base, pencil=np.empty((d, d)), config=config)


def _fill_pencil(data: WhitenedData, u: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``U N U.T + base``, written into the data's pencil buffer."""
    pencil = np.matmul(u, n @ u.T, out=data.pencil)
    pencil += data.base
    return pencil


def _objective(data: WhitenedData, u: np.ndarray, n: np.ndarray, v: np.ndarray,
               a: np.ndarray) -> float:
    """``trace(A.T Z M Z.T A) + lam ||A||_F^2`` for ``A = L^-T V``, without the whitened ridge.

    ``A.T Z M Z.T A`` is ``V.T (alpha_c Wc Wc.T + alpha_p Wc_t Wc_t.T + U N U.T) V``.
    """
    vw = v.T @ data.centred
    vu = v.T @ u
    n_s = data.x_s.shape[1]
    config = data.config
    return float(config.alpha_c * np.sum(vw ** 2) + config.alpha_p * np.sum(vw[:, n_s:] ** 2)
                 + np.sum((vu @ n) * vu) + config.lam * np.sum(a ** 2))


def solve_projection(data: WhitenedData, omega, y_s, p) -> Projection:
    """Learn the ``data.config.k``-dimensional projection for one round's alignment loss.

    The round's scatter factors U and N come from
    :func:`partialda.alignment.scatter_factors` of the whitened data and the
    loss weights of ``data.config``.  The whitened pencil
    ``U N U.T + data.base`` is built in ``data.pencil``, which the
    eigensolver then overwrites.

    Parameters
    ----------
    data : WhitenedData
        Output of :func:`gram_matrix`, which fixed the configuration,
        checked its ``k`` against the feature dimension and cached the
        round-invariant part of the scatter.
    omega : ndarray (n_s,)
        Source sample weights.
    y_s : ndarray (n_s, C)
        One-hot source labels.
    p : ndarray (C, n_t)
        Soft target labels, already masked.

    Returns
    -------
    Projection
        The (d, k) projection A, its k eigenvalues, and the round objective
        ``trace(A.T Z M Z.T A) + lam ||A||_F^2``.

    Raises
    ------
    ValidationError
        On inputs that :func:`partialda.alignment.scatter_factors` refuses.
    NumericalError
        When the eigensolver fails or returns non-finite values.  The
        condition number it reports is that of the pencil as the
        eigensolver received it.
    """
    config = data.config
    u, n = scatter_factors(data.centred, data.mean, data.x_s.shape[1], omega, y_s, p, config)
    try:
        phi, vecs = syevr_smallest(_fill_pencil(data, u, n), config.k)
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
    flip = a[np.argmax(np.abs(a), axis=0), np.arange(config.k)] < 0
    a[:, flip] *= -1.0
    return Projection(a=a, eigenvalues=phi, objective=_objective(data, u, n, vecs, a))


def embed(proj: Projection, data: WhitenedData) -> np.ndarray:
    """Project every sample into the learned subspace, one column each, source first."""
    if proj.a.shape[0] != data.x_s.shape[0]:
        raise ValidationError(
            f"projection rows {proj.a.shape[0]} do not match data rows {data.x_s.shape[0]}"
        )
    return np.hstack([proj.a.T @ data.x_s, proj.a.T @ data.x_t])

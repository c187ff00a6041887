"""Projection learning: the alignment losses and the pencil they define.

The projection A minimizes three losses, each a quadratic form
``trace(A.T Z M Z.T A)`` in A for the (d, n) feature matrix
``Z = [x_s | x_t]``, one column per sample, and a symmetric n x n matrix M:

* a domain term for the squared distance between the weighted source mean
  and the target mean,
* a center term for the squared distance between each projected target
  sample and its probability-weighted combination of source class centers,
* a cluster term contracting every projected sample toward its class
  center, with target memberships taken from the current soft labels.

The dense matrices M live in :mod:`partialda.oracles`; this module never
builds one.  With ``S = Z M Z.T`` the scatter of the combined loss, A stacks
the eigenvectors of

    (S + lam I) a = phi (Z H Z.T + eps_r I) a

belonging to the k smallest eigenvalues, where H is the n x n centering
matrix.  Minimizing the losses subject to unit projected variance amounts
to exactly this pencil, so the smallest eigenvalues are the right end.

With ``Z = Zc + mu 1.T`` split into centred columns and their mean, S is
the sum of two parts:

* ``alpha_c Zc Zc.T + alpha_p Zc_t Zc_t.T``, which depends on the data
  alone, so :func:`gram_matrix` caches it once per run;
* ``U N U.T``, for a (d, 3C + 4) factor U and a small N built from the
  rank-one, low-rank and class-indicator factors of the three losses, which
  carries everything the soft labels and the class weights change.

The two parts cancel where the classes explain most of the spread, which
is why the split is taken on centred data: the mean has columns of its own
and no large offset cancels.

``gram_matrix(x_s, x_t, config)`` does once per run most of the work that
depends on the data alone, with the knobs of the
:class:`partialda.core.AdaptationConfig`, which checked them when it was
built; three products of the source labels, ``Zc_s Y_s``, ``Y_s.T Y_s``
and ``Y_s.T 1``, are rebuilt each round with the factors the soft labels
change (:func:`_scatter_factors`).  It factors the constraint side
``Zc Zc.T + eps_r I = L L.T`` and keeps ``L^-1``, the whitened centred
data ``Wc = L^-1 Zc``, the whitened mean ``m = L^-1 mu``, the
configuration and the first part of the whitened pencil with the ridge,

    base = alpha_c Wc Wc.T + alpha_p Wc_t Wc_t.T + lam L^-1 L^-T
         = alpha_c I + (lam - alpha_c eps_r) L^-1 L^-T + alpha_p Wc_t Wc_t.T,

since ``L L.T = Zc Zc.T + eps_r I`` makes ``Wc Wc.T = I - eps_r L^-1 L^-T``
exactly, so the d^2 n product ``Wc Wc.T`` is never formed.

Each round, ``solve_projection(data, omega, y_s, p)`` checks the round's
source weights and soft labels, builds U and N from them on the whitened
data, forms ``U N U.T + base`` as one new d x d array, so a round costs
O(d n C + d^2 C), makes no d x n array and no d^2 n product, and
computes the k smallest eigenpairs of that standard symmetric
eigenproblem; their eigenvectors V map back as ``A = L^-T V``.

The round objective ``trace(A.T S A) + lam ||A||_F^2`` comes from the same
factors: the whitened scatter as quadratic forms in V, the ridge from A
itself.  In exact arithmetic it is the sum of the k eigenvalues, but the
whitened ridge ``lam L^-1 L^-T`` is large wherever the constraint side is
nearly singular, and the eigenvalue sum then loses up to 1e-6 relative of
a small objective.

Everything runs on numpy's own BLAS/LAPACK: LAPACK ``dpotrf`` and
``dtrtri`` (factor the constraint side and invert ``L`` as a triangle, both
in the constraint side's own buffer) and ``dsyevr`` (the k smallest
eigenpairs only, computed in the round's pencil itself) are called from
numpy's OpenBLAS through :mod:`partialda._lapack`, which falls back to
``numpy.linalg.inv(numpy.linalg.cholesky(...))`` and a full
``numpy.linalg.eigh`` where they are missing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import inv_cholesky, syevr_smallest
from .core import AdaptationConfig, as_domain_pair, as_sample_weights
from .errors import NumericalError, ValidationError

# Class soft mass below this triggers a ridge on indicator Gram inversions.
RIDGE_TRIGGER = 1e-8
RIDGE_SCALE = 1e-9
# eps_r = _RHS_REG * trace(Zc Zc.T) / n keeps the constraint side definite
_RHS_REG = 1e-6


@dataclass(frozen=True)
class WhitenedData:
    """Source and target features plus everything of the pencil that is fixed per run.

    In the terms of the module docstring, ``l_inv`` is ``L^-1``, ``centred``
    is ``Wc``, ``mean`` is m and ``base`` the cached part of the whitened
    pencil.  ``config``, which ``base`` was built with, is read again every
    round.
    """

    x_s: np.ndarray
    x_t: np.ndarray
    centred: np.ndarray
    mean: np.ndarray
    l_inv: np.ndarray
    base: np.ndarray
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
        return inv_cholesky(rhs)
    except np.linalg.LinAlgError as exc:
        # the factorization overwrote rhs, so it is built again
        cond = _cond(_constraint_side(centred, eps_r))
        raise NumericalError(
            f"constraint side is not positive definite (cond rhs {cond:.3e}): {exc}"
        ) from exc


def gram_matrix(x_s, x_t, config: AdaptationConfig) -> WhitenedData:
    """Factor the constraint side and cache the round-invariant pencil, once per run.

    The constraint side ``Z H Z.T`` of ``Z = [x_s | x_t]`` receives
    ``eps_r = 1e-6 * trace(Z H Z.T) / n`` on its diagonal so the pencil
    stays definite, and ``config.lam`` is the ridge on the projection
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
    eps_r = _RHS_REG * variance / n
    rhs.flat[::d + 1] += eps_r
    l_inv = _inverse_cholesky(centred, eps_r, rhs)
    centred = l_inv @ centred
    # Wc Wc.T = I - eps_r L^-1 L^-T, so only the target columns need a product
    base = l_inv @ l_inv.T
    base *= config.lam - config.alpha_c * eps_r
    base.flat[::d + 1] += config.alpha_c
    centred_t = centred[:, n_s:]
    target = centred_t @ centred_t.T
    target *= config.alpha_p
    base += target
    return WhitenedData(x_s=x_s, x_t=x_t, centred=centred, mean=l_inv @ mu, l_inv=l_inv,
                        base=base, config=config)


def _ridge_eps(gram: np.ndarray, soft_mass: np.ndarray) -> float:
    """Ridge added to an indicator Gram matrix when some class lost its mass."""
    if soft_mass.min() < RIDGE_TRIGGER:
        return RIDGE_SCALE * float(np.mean(np.diag(gram)))
    return 0.0


def solve_gram_system(gram: np.ndarray, rhs: np.ndarray, eps: float) -> np.ndarray:
    """Solve ``(gram + eps I) x = rhs`` for an indicator Gram matrix."""
    g = gram + eps * np.eye(gram.shape[0])
    try:
        out = np.linalg.solve(g, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"class indicator Gram matrix is singular even after ridge {eps:g}"
        ) from exc
    if not np.isfinite(out).all():
        raise NumericalError("class indicator Gram system produced non-finite values")
    return out


def _scatter_factors(zc: np.ndarray, mean: np.ndarray, n_s: int, omega: np.ndarray,
                     y_s: np.ndarray, p: np.ndarray,
                     config: AdaptationConfig) -> tuple[np.ndarray, np.ndarray]:
    """Factors U and N with ``Z M Z.T = alpha_c Zc Zc.T + alpha_p Zc_t Zc_t.T + U N U.T``.

    ``Z = zc + mean 1.T``, source columns first, and M is
    ``combine(M0, Mp, Mc)`` of :mod:`partialda.oracles`.  With
    ``Y = [Y_s; P.T]``, ``G = Y.T Y``, ``S = (G + eps I)^-1`` and
    ``B = (G_s + eps_s I)^-1 P`` (eps and eps_s the ridges the dense oracles
    use, so the split stays exact under them):

    * ``Z Mc Z.T = R R.T`` with ``R = Z - (Z Y) S Y.T = R_c + mean r.T``,
      ``r = 1 - Y S Y.T 1``, and ``R_c R_c.T = Zc Zc.T - (Zc Y) K (Zc Y).T``
      for ``K = 2S - S G S``;
    * ``Z Mp Z.T = D D.T`` with ``D = Z_s Y_s B - Z_t = D_c + mean d_p.T``,
      ``d_p = B.T Y_s.T 1 - 1``, and ``D_c D_c.T`` the target Gram matrix
      plus cross terms of ``Zc_s Y_s`` and ``Zc_t B.T``;
    * ``Z M0 Z.T = (Zc e)(Zc e).T``, since the entries of e sum to 0.

    ``U = [Zc e | Zc_s Y_s | Zc_t B.T | Zc Y | mean | D_c d_p | R_c r]`` is
    (dim, 3C + 4) and N is symmetric, (3C + 4)-square.  The inputs are
    those :func:`solve_projection` checked: ``omega`` the source sample
    weights, ``y_s`` (n_s, C) one-hot and ``p`` (C, n_t) the masked soft
    labels.
    """
    alpha_p, alpha_c = config.alpha_p, config.alpha_c
    zc_s, zc_t = zc[:, :n_s], zc[:, n_s:]
    c = y_s.shape[1]
    soft_mass = p.sum(axis=1)

    ze = zc_s @ omega / omega.sum() - zc_t.mean(axis=1)

    gram_s = y_s.T @ y_s
    b = solve_gram_system(gram_s, p, _ridge_eps(gram_s, soft_mass))
    a_s = zc_s @ y_s
    d_p = b.T @ y_s.sum(axis=0) - 1.0
    g_p = a_s @ (b @ d_p) - zc_t @ d_p

    y = np.vstack([y_s, p.T])
    gram = y.T @ y
    s = solve_gram_system(gram, np.eye(c), _ridge_eps(gram, soft_mass))
    b_c = zc @ y
    r = 1.0 - y @ (s @ y.sum(axis=0))
    g_c = zc @ r - b_c @ (s @ (y.T @ r))

    u = np.column_stack([ze, a_s, zc_t @ b.T, b_c, mean, g_p, g_c])
    n = np.zeros((3 * c + 4, 3 * c + 4))
    src, tgt, cls = (slice(1 + i * c, 1 + (i + 1) * c) for i in range(3))
    m = 3 * c + 1
    n[0, 0] = 1.0
    n[src, src] = alpha_p * (b @ b.T)
    n[src, tgt] = n[tgt, src] = -alpha_p * np.eye(c)
    n[cls, cls] = -alpha_c * (2.0 * s - s @ gram @ s)
    n[m, m] = alpha_p * (d_p @ d_p) + alpha_c * (r @ r)
    n[m, m + 1] = n[m + 1, m] = alpha_p
    n[m, m + 2] = n[m + 2, m] = alpha_c
    return u, n


def _fill_pencil(data: WhitenedData, u: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``U N U.T + base`` as a new array, which the eigensolver may overwrite."""
    pencil = u @ (n @ u.T)
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

    The round's inputs are checked here, once; then the whitened pencil
    ``U N U.T + data.base`` is built as a new array, which the eigensolver
    overwrites, so solves on one ``data`` share no memory.

    Parameters
    ----------
    data : WhitenedData
        Output of :func:`gram_matrix`, which fixed the configuration,
        checked its ``k`` against the feature dimension and cached the
        round-invariant part of the scatter.
    omega : ndarray (n_s,)
        Finite, non-negative source sample weights, not all 0.
    y_s : ndarray (n_s, C)
        One-hot source labels.
    p : ndarray (C, n_t)
        Finite soft target labels, already masked.

    Returns
    -------
    Projection
        The (d, k) projection A, its k eigenvalues, and the round objective
        ``trace(A.T Z M Z.T A) + lam ||A||_F^2``.

    Raises
    ------
    ValidationError
        When ``y_s`` or ``p`` disagree in shape with the data or each
        other, or ``omega`` or ``p`` break the rules above.
    NumericalError
        When an indicator Gram system or the eigensolver fails or returns
        non-finite values.  The condition number reported for the
        eigensolver is that of the pencil as it received it.
    """
    config = data.config
    n_s, n_t = data.x_s.shape[1], data.x_t.shape[1]
    y_s = np.asarray(y_s, dtype=float)
    p = np.asarray(p, dtype=float)
    if y_s.ndim != 2 or y_s.shape[0] != n_s or p.shape != (y_s.shape[1], n_t):
        raise ValidationError(
            f"inconsistent shapes: {n_s} source and {n_t} target samples, "
            f"weights {np.shape(omega)}, labels {y_s.shape}, soft labels {p.shape}"
        )
    omega = as_sample_weights(omega, n_s, "omega")
    if not np.isfinite(p).all():
        raise ValidationError("the soft labels must be finite")
    u, n = _scatter_factors(data.centred, data.mean, n_s, omega, y_s, p, config)
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


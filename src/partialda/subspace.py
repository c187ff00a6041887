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

``gram_matrix(x_s, y_s, x_t, config)`` does once per run the work that
depends on the data and the source labels alone, with the knobs of the
:class:`partialda.core.AdaptationConfig`, which checked them when it was
built.  It checks ``y_s`` and factors the constraint side
``Zc Zc.T + eps_r I = L L.T``.  It keeps ``y_s``, the class counts
``Y_s.T 1``, ``L^-1``, the whitened centred data ``Wc = L^-1 Zc``, the
whitened mean ``m = L^-1 mu``, the whitened class sums ``Wc_s Y_s``, the
configuration and the first part of the whitened pencil with the ridge,

    base = alpha_c Wc Wc.T + alpha_p Wc_t Wc_t.T + lam L^-1 L^-T
         = alpha_c I + (lam - alpha_c eps_r) L^-1 L^-T + alpha_p Wc_t Wc_t.T,

since ``L L.T = Zc Zc.T + eps_r I`` makes ``Wc Wc.T = I - eps_r L^-1 L^-T``
exactly, so the d^2 n product ``Wc Wc.T`` is never formed.

Each round, ``solve_projection(data, weights, p)`` checks the round's
class weights and soft labels, builds U and N from them on the whitened
data (:func:`_scatter_factors`), forms ``U N U.T + base`` as one new d x d
array, so a round costs O(d n + d n_t C + d^2 C), makes no d x n array and no
d^2 n product, and computes the k smallest eigenpairs of that standard
symmetric eigenproblem; their eigenvectors V map back as ``A = L^-T V``.

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
from .core import (_MASS_TOL, AdaptationConfig, as_domain_pair, as_weights,
                   check_label_matrix)
from .errors import NumericalError, ValidationError

# Class soft mass below this triggers a ridge on indicator Gram inversions.
RIDGE_TRIGGER = 1e-8
RIDGE_SCALE = 1e-9
# eps_r = _RHS_REG * trace(Zc Zc.T) / n keeps the constraint side definite
_RHS_REG = 1e-6


@dataclass(frozen=True)
class WhitenedData:
    """Everything of the pencil that is fixed per run, the checked source labels included.

    In the terms of the module docstring, ``l_inv`` is ``L^-1``, ``centred``
    is ``Wc``, source columns first, ``mean`` is m, ``base`` the cached part
    of the whitened pencil, ``counts`` is ``Y_s.T 1`` and ``class_sums``
    ``Wc_s Y_s``.  ``config``, which ``base`` was built with, is read again
    every round.
    """

    centred: np.ndarray
    mean: np.ndarray
    l_inv: np.ndarray
    base: np.ndarray
    config: AdaptationConfig
    y_s: np.ndarray
    counts: np.ndarray
    class_sums: np.ndarray


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


def gram_matrix(x_s, y_s, x_t, config: AdaptationConfig) -> WhitenedData:
    """Factor the constraint side and cache the round-invariant pencil, once per run.

    The constraint side ``Z H Z.T`` of ``Z = [x_s | x_t]`` receives
    ``eps_r = 1e-6 * trace(Z H Z.T) / n`` on its diagonal so the pencil
    stays definite, and ``config.lam`` is the ridge on the projection
    columns.  ``config``, whose type checked every knob, is kept on the
    result for :func:`solve_projection`; only ``k`` is checked here, against
    d.  The one-hot source labels ``y_s`` (n_s, C) are checked once per run.
    Z is never stacked.  Every input is checked before anything is factored.

    Raises
    ------
    ValidationError
        On a bad shape, non-finite features, or source labels that are not
        one-hot with one row per source sample and every class present.
    ConfigurationError
        When ``config.k`` exceeds the feature dimension d.
    NumericalError
        When the centred data has no variance, its trace overflows or
        underflows, or the constraint side is not positive definite.
    """
    x_s, x_t = as_domain_pair(x_s, x_t)
    d, n_s = x_s.shape
    y_s = check_label_matrix(y_s, n_samples=n_s)
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
    return WhitenedData(centred=centred, mean=l_inv @ mu, l_inv=l_inv, base=base,
                        config=config, y_s=y_s, counts=y_s.sum(axis=0),
                        class_sums=centred[:, :n_s] @ y_s)


def _ridge_eps(diagonal: np.ndarray, soft_mass: np.ndarray) -> float:
    """Ridge added to an indicator Gram matrix of this diagonal when some class lost its mass."""
    if soft_mass.min() < RIDGE_TRIGGER:
        return RIDGE_SCALE * float(np.mean(diagonal))
    return 0.0


def _scatter_factors(data: WhitenedData, weights: np.ndarray,
                     p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factors U and N with ``Z M Z.T = alpha_c Zc Zc.T + alpha_p Zc_t Zc_t.T + U N U.T``.

    ``Z = zc + mean 1.T``, source columns first, for ``zc`` and ``mean``
    the centred data and mean of ``data``, and M is ``combine(M0, Mp, Mc)``
    of :mod:`partialda.oracles`.  Every source sample carries its class's
    weight, so the weighted source mean is ``Zc_s Y_s w / (counts . w)``.
    ``Y_s`` is one-hot with every class present, so ``G_s = Y_s.T Y_s`` is
    ``diag(counts)``, every count at least 1.  With ``Y = [Y_s; P.T]``,
    ``G = Y.T Y = G_s + P P.T``, ``S = (G + eps I)^-1`` and
    ``B = (G_s + eps_s I)^-1 P = P / (counts + eps_s)`` (eps and eps_s the
    ridges the dense oracles use, so the split stays exact under them):

    * ``Z Mc Z.T = R R.T`` with ``R = Z - (Z Y) S Y.T = R_c + mean r.T``,
      ``r = 1 - Y S Y.T 1``, and ``R_c R_c.T = Zc Zc.T - (Zc Y) K (Zc Y).T``
      for ``K = 2S - S G S = S + eps S^2``;
    * ``Z Mp Z.T = D D.T`` with ``D = Z_s Y_s B - Z_t = D_c + mean d_p.T``,
      ``d_p = B.T counts - 1``, and ``D_c D_c.T`` the target Gram matrix
      plus cross terms of ``Zc_s Y_s`` and ``Zc_t B.T``;
    * ``Z M0 Z.T = (Zc e)(Zc e).T``, since the entries of e sum to 0.

    ``U = [Zc e | Zc_s Y_s | Zc_t B.T | Zc Y | mean | D_c d_p | R_c r]`` is
    (dim, 3C + 4) and N is symmetric, (3C + 4)-square.  ``weights``, the
    (C,) class weights, and ``p`` (C, n_t), the masked soft labels, are
    those :func:`solve_projection` checked.
    """
    config, y_s, counts, a_s = data.config, data.y_s, data.counts, data.class_sums
    alpha_p, alpha_c = config.alpha_p, config.alpha_c
    zc_t = data.centred[:, y_s.shape[0]:]
    c = y_s.shape[1]
    soft_mass = p.sum(axis=1)

    ze = a_s @ weights / (counts @ weights) - zc_t.mean(axis=1)

    b = p / (counts + _ridge_eps(counts, soft_mass))[:, None]
    d_p = b.T @ counts - 1.0
    g_p = a_s @ (b @ d_p) - zc_t @ d_p

    y = np.vstack([y_s, p.T])
    gram = p @ p.T
    gram.flat[::c + 1] += counts
    eps = _ridge_eps(np.diag(gram), soft_mass)
    s = np.linalg.inv(gram + eps * np.eye(c))
    b_c = a_s + zc_t @ p.T
    r = 1.0 - y @ (s @ (counts + soft_mass))
    g_c = data.centred @ r - b_c @ (s @ (y.T @ r))

    u = np.column_stack([ze, a_s, zc_t @ b.T, b_c, data.mean, g_p, g_c])
    n = np.zeros((3 * c + 4, 3 * c + 4))
    src, tgt, cls = (slice(1 + i * c, 1 + (i + 1) * c) for i in range(3))
    m = 3 * c + 1
    n[0, 0] = 1.0
    n[src, src] = alpha_p * (b @ b.T)
    n[src, tgt] = n[tgt, src] = -alpha_p * np.eye(c)
    n[cls, cls] = -alpha_c * (s + eps * (s @ s))
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
    n_s = data.y_s.shape[0]
    config = data.config
    return float(config.alpha_c * np.sum(vw ** 2) + config.alpha_p * np.sum(vw[:, n_s:] ** 2)
                 + np.sum((vu @ n) * vu) + config.lam * np.sum(a ** 2))


def solve_projection(data: WhitenedData, weights, p) -> Projection:
    """Learn the ``data.config.k``-dimensional projection for one round's alignment loss.

    The round's inputs are checked here, once; then the whitened pencil
    ``U N U.T + data.base`` is built as a new array, which the eigensolver
    overwrites, so solves on one ``data`` share no memory.

    Parameters
    ----------
    data : WhitenedData
        Output of :func:`gram_matrix`, which fixed the configuration and
        the source labels, checked ``k`` against the feature dimension and
        cached the round-invariant part of the scatter.
    weights : ndarray (C,)
        Finite, non-negative class weights, not all 0.  Each source sample
        carries its class's weight; only their ratios matter.
    p : ndarray (C, n_t)
        Soft target labels, already masked: finite, no entry below
        ``-_MASS_TOL`` and no column summing above ``1 + _MASS_TOL``.

    Returns
    -------
    Projection
        The (d, k) projection A, its k eigenvalues, and the round objective
        ``trace(A.T Z M Z.T A) + lam ||A||_F^2``.

    Raises
    ------
    ValidationError
        When ``weights`` or ``p`` disagree in shape with the data, or break
        the rules above.
    NumericalError
        When the eigensolver fails or returns non-finite values.  The
        condition number reported is that of the pencil as the eigensolver
        received it.
    """
    config = data.config
    n_s, c = data.y_s.shape
    n_t = data.centred.shape[1] - n_s
    weights = as_weights(weights, c, "weights")
    p = np.asarray(p, dtype=float)
    if p.shape != (c, n_t):
        raise ValidationError(
            f"inconsistent shapes: {n_s} source and {n_t} target samples of {c} classes, "
            f"soft labels {p.shape}"
        )
    if not np.isfinite(p).all():
        raise ValidationError("the soft labels must be finite")
    # before any product: a huge entry would overflow P P.T
    with np.errstate(over="ignore"):  # a column sum past the largest double is inf, and refused
        sums = p.sum(axis=0)
    if (p < -_MASS_TOL).any() or (sums > 1.0 + _MASS_TOL).any():
        raise ValidationError(
            f"the soft labels must be probabilities: entries of at least -{_MASS_TOL:g} "
            f"and columns summing to at most 1 + {_MASS_TOL:g}"
        )
    u, n = _scatter_factors(data, weights, p)
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


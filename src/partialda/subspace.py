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
* ``U N U.T``, for a (d, 3C + 3) factor U and a small N built from the
  rank-one, low-rank and class-indicator factors of the three losses, which
  carries everything the soft labels and the class weights change.

The two parts cancel where the classes explain most of the spread, which
is why the split is taken on centred data: the mean has columns of its own
and no large offset cancels.

``gram_matrix(x_s, y_s, x_t, config)`` does once per run the work that
depends on the data and the source labels alone, with the knobs of the
:class:`partialda.core.AdaptationConfig`, which checked them when it was
built.  It checks ``y_s`` and factors the constraint side
``Zc Zc.T + eps_r I = L L.T``.  The whitened centred data ``Wc = L^-1 Zc``
are never formed: the rounds read only their target columns
``Wc_t = L^-1 Zc_t``, the whitened class sums ``L^-1 (Zc_s Y_s)`` and the
whitened mean ``m = L^-1 mu``, and the source columns only in the round
objective, as ``A.T (x_s - mu 1.T)`` from the caller's features.  So it
keeps these three, the class counts ``Y_s.T 1``, ``L^-1``, the mean ``mu``
and the caller's ``x_s`` (not copied), the configuration and the first
part of the whitened pencil with the ridge,

    base = alpha_c Wc Wc.T + alpha_p Wc_t Wc_t.T + lam L^-1 L^-T
         = alpha_c I + (lam - alpha_c eps_r) L^-1 L^-T + alpha_p Wc_t Wc_t.T,

since ``L L.T = Zc Zc.T + eps_r I`` makes ``Wc Wc.T = I - eps_r L^-1 L^-T``
exactly, so the d^2 n product ``Wc Wc.T`` is never formed.  The centred
copy ``Zc`` (d x n) lives only while the constraint side is factored and
the targets and class sums are whitened; what a run keeps is
``3 d^2 + d n_t`` doubles with the round's pencil, and O(d C) more.

Each round, ``solve_projection(data, weights, p)`` checks the round's
class weights and soft labels, builds U and N from them on the whitened
data (:func:`_scatter_factors`), forms ``U N U.T + base`` as one new d x d
array, so a round costs O(d n k + d n_t C + d^2 C), makes no d x n array
and no d^2 n product, and computes the k smallest eigenpairs of that
standard symmetric eigenproblem; their eigenvectors V map back as
``A = L^-T V``.

The round objective ``trace(A.T S A) + lam ||A||_F^2`` comes from the same
factors: the whitened scatter as quadratic forms in V, save the source
columns of ``Wc``, whose ``V.T Wc_s = A.T (x_s - mu 1.T)`` it reads from the
caller's features one block of columns at a time, and the ridge from A
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

# Soft mass below this adds eps_s = RIDGE_SCALE * mean(counts) to the class counts
# dividing the center term's soft labels, the one class-indicator ridge left.
RIDGE_TRIGGER = 1e-8
RIDGE_SCALE = 1e-9
# eps_r = _RHS_REG * trace(Zc Zc.T) / n keeps the constraint side definite
_RHS_REG = 1e-6
# source columns the objective centres and projects at a time
_OBJECTIVE_BLOCK = 256


@dataclass(frozen=True)
class WhitenedData:
    """Everything of the pencil that is fixed per run, from the features and the source labels.

    In the terms of the module docstring, ``l_inv`` is ``L^-1``, ``targets``
    is ``Wc_t`` (d, n_t), ``mean`` is m, ``base`` the cached part of the
    whitened pencil, ``counts`` is ``Y_s.T 1`` and ``class_sums``
    ``L^-1 (Zc_s Y_s)``.  ``mu`` is the mean of the features and ``x_s`` the
    caller's source features, kept as given, not copied, which the round
    objective reads; they must not change while the rounds run.  No field
    has a column per sample of both domains.  ``config``, which ``base`` was
    built with, is read again every round.
    """

    targets: np.ndarray
    mean: np.ndarray
    mu: np.ndarray
    x_s: np.ndarray
    l_inv: np.ndarray
    base: np.ndarray
    config: AdaptationConfig
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
    # the rounds read the whitened targets and class sums, never Wc_s itself
    targets = l_inv @ centred[:, n_s:]
    class_sums = l_inv @ (centred[:, :n_s] @ y_s)
    del centred
    # Wc Wc.T = I - eps_r L^-1 L^-T, so only the target columns need a product
    base = l_inv @ l_inv.T
    base *= config.lam - config.alpha_c * eps_r
    base.flat[::d + 1] += config.alpha_c
    target = targets @ targets.T
    target *= config.alpha_p
    base += target
    return WhitenedData(targets=targets, mean=l_inv @ mu, mu=mu, x_s=x_s, l_inv=l_inv,
                        base=base, config=config, counts=y_s.sum(axis=0),
                        class_sums=class_sums)


def _ridge_eps(counts: np.ndarray, soft_mass: np.ndarray) -> float:
    """Ridge added to the class counts ``Y_s.T 1`` when some class lost its soft mass."""
    if soft_mass.min() < RIDGE_TRIGGER:
        return RIDGE_SCALE * float(np.mean(counts))
    return 0.0


def _scatter_factors(data: WhitenedData, weights: np.ndarray,
                     p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factors U and N with ``Z M Z.T = alpha_c Zc Zc.T + alpha_p Zc_t Zc_t.T + U N U.T``.

    ``Z = zc + mean 1.T``, source columns first, for ``zc`` the centred
    data whose target columns, class sums and mean ``data`` holds, and M
    is ``combine(M0, Mp, Mc)`` of :mod:`partialda.oracles`.  Every source
    sample carries its class's weight, so the weighted source mean is
    ``Zc_s Y_s w / (counts . w)``.
    ``Y_s`` is one-hot with every class present, so ``G_s = Y_s.T Y_s`` is
    ``diag(counts)``, every count at least 1, and with ``Y = [Y_s; P.T]``
    the class Gram matrix ``G = Y.T Y = G_s + P P.T`` is positive definite
    and inverted as it is: ``S = G^-1``.  ``B = (G_s + eps_s I)^-1 P =
    P / (counts + eps_s)``, under the ridge the dense center operators take:

    * ``Z Mc Z.T = R R.T`` with ``R = Z - (Z Y) S Y.T = R_c + mean r.T``,
      ``r = 1 - Y S Y.T 1``, and ``R_c R_c.T = Zc Zc.T - (Zc Y) S (Zc Y).T``;
    * ``Z Mp Z.T = D D.T`` with ``D = Z_s Y_s B - Z_t = D_c + mean d_p.T``,
      ``d_p = B.T counts - 1``, and ``D_c D_c.T`` the target Gram matrix
      plus cross terms of ``Zc_s Y_s`` and ``Zc_t B.T``;
    * ``Z M0 Z.T = (Zc e)(Zc e).T``, since the entries of e sum to 0.

    The rows of ``Y_s`` are one-hot, so ``r`` is ``r_cls = 1 - S Y.T 1`` on
    every source sample of a class, and ``Zc r = (Zc_s Y_s) r_cls + Zc_t r_t``,
    ``Y.T r = counts * r_cls + P r_t`` and ``r . r = counts . r_cls^2 +
    r_t . r_t`` need no source column.

    ``U = [Zc e | Zc_s Y_s | Zc_t B.T | Zc Y | mean | alpha_p D_c d_p +
    alpha_c R_c r]`` is (dim, 3C + 3) and N is symmetric, (3C + 3)-square;
    the last column pairs only with the mean.  ``weights``, the (C,) class
    weights, and ``p`` (C, n_t), the masked soft labels, are those
    :func:`solve_projection` checked.
    """
    config, counts, a_s, zc_t = data.config, data.counts, data.class_sums, data.targets
    alpha_p, alpha_c = config.alpha_p, config.alpha_c
    c = counts.size
    soft_mass = p.sum(axis=1)

    ze = a_s @ weights / (counts @ weights) - zc_t.mean(axis=1)

    b = p / (counts + _ridge_eps(counts, soft_mass))[:, None]
    d_p = b.T @ counts - 1.0
    g_p = a_s @ (b @ d_p) - zc_t @ d_p

    gram = p @ p.T
    gram.flat[::c + 1] += counts
    s = np.linalg.inv(gram)
    b_c = a_s + zc_t @ p.T
    q = s @ (counts + soft_mass)
    r_cls, r_t = 1.0 - q, 1.0 - p.T @ q
    # Y.T r is 0 in exact arithmetic; its rounding is taken back here
    g_c = a_s @ r_cls + zc_t @ r_t - b_c @ (s @ (counts * r_cls + p @ r_t))

    u = np.column_stack([ze, a_s, zc_t @ b.T, b_c, data.mean, alpha_p * g_p + alpha_c * g_c])
    n = np.zeros((3 * c + 3, 3 * c + 3))
    src, tgt, cls = (slice(1 + i * c, 1 + (i + 1) * c) for i in range(3))
    m = 3 * c + 1
    n[0, 0] = 1.0
    n[src, src] = alpha_p * (b @ b.T)
    n[src, tgt] = n[tgt, src] = -alpha_p * np.eye(c)
    n[cls, cls] = -alpha_c * s
    n[m, m] = alpha_p * (d_p @ d_p) + alpha_c * (counts @ r_cls ** 2 + r_t @ r_t)
    n[m, m + 1] = n[m + 1, m] = 1.0
    return u, n


def _fill_pencil(data: WhitenedData, u: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``U N U.T + base`` as a new array, which the eigensolver may overwrite."""
    pencil = u @ (n @ u.T)
    pencil += data.base
    return pencil


def _objective(data: WhitenedData, u: np.ndarray, n: np.ndarray, v: np.ndarray,
               a: np.ndarray) -> float:
    """``trace(A.T Z M Z.T A) + lam ||A||_F^2`` for ``A = L^-T V``, without the whitened ridge.

    ``A.T Z M Z.T A`` is ``V.T (alpha_c Wc Wc.T + alpha_p Wc_t Wc_t.T + U N U.T) V``,
    with ``V.T Wc_s = A.T (x_s - mu 1.T)`` taken from the caller's source
    features ``_OBJECTIVE_BLOCK`` columns at a time: each block is centred
    before the product, so no large ``A.T mu`` cancels and no (d, n_s)
    array is made.
    """
    x_s, mu = data.x_s, data.mu[:, None]
    source = 0.0
    for start in range(0, x_s.shape[1], _OBJECTIVE_BLOCK):
        source += np.sum((a.T @ (x_s[:, start:start + _OBJECTIVE_BLOCK] - mu)) ** 2)
    vu = v.T @ u
    config = data.config
    return float(config.alpha_c * source
                 + (config.alpha_c + config.alpha_p) * np.sum((v.T @ data.targets) ** 2)
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
    n_s, c, n_t = data.x_s.shape[1], data.counts.size, data.targets.shape[1]
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


"""Class weights and the alignment losses coupling the two domains.

Class weights are one (C,) vector of estimated target class proportions.
:func:`binarize_weights` zeroes the classes at or below ``delta``, and from
then on a class is masked exactly when its weight is 0.

The subspace solver minimizes three losses, each a quadratic form
``trace(A.T @ X @ M @ X.T @ A)`` in a projection A, for the
column-per-sample matrix ``X = [X_s | X_t]`` and a symmetric matrix M of
size (n_s + n_t):

* a domain term for the squared distance between the weighted source mean
  and the target mean,
* a center term for the squared distance between each projected target
  sample and its probability-weighted combination of source class centers,
* a cluster term contracting every projected sample toward its class
  center, with target memberships taken from the current soft labels.

:func:`partialda.subspace.solve_projection` needs only the dim x dim
matrix ``Z M Z.T`` of the combined loss, and it is formed straight from the
rank-one, low-rank and class-indicator factors of the three terms, so no
(n_s + n_t)-square array is ever built.  With ``Z = Zc + mean 1.T`` split
into centred columns and their mean, it is the sum of two parts:

* ``alpha_c Zc Zc.T + alpha_p Zc_t Zc_t.T``, which depends on the data
  alone, so :func:`partialda.subspace.gram_matrix` caches it once per run,
  whitened; there ``Wc Wc.T = I - eps_r L^-1 L^-T`` follows from the
  Cholesky factor of the constraint side, so only the target term costs a
  product;
* ``U N U.T`` from :func:`scatter_factors`, with U of width 3C + 4, which
  carries everything the soft labels and the class weights change, so a
  round costs O(dim n C + dim^2 C) instead of a dim^2 n product.

The two parts cancel where the classes explain most of the spread, which
is why the split is taken on centred data: the mean has columns of its own
and no large offset cancels.
The dense matrices M themselves live in :mod:`partialda.oracles`.
"""

from __future__ import annotations

import numpy as np

from .core import AdaptationConfig, as_sample_weights
from .errors import ConfigurationError, NumericalError, ValidationError

# Class soft mass below this triggers a ridge on indicator Gram inversions.
RIDGE_TRIGGER = 1e-8
RIDGE_SCALE = 1e-9


def compute_class_weights(p) -> np.ndarray:
    """Estimated target class proportions: the row sums of ``p``, normalized to sum to one."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 2:
        raise ValidationError(f"soft labels must be 2-dimensional, got shape {p.shape}")
    total = p.sum()
    if total <= 0:
        raise ValidationError("soft label matrix sums to zero, cannot derive class weights")
    return p.sum(axis=1) / total


def binarize_weights(w, delta: float) -> np.ndarray:
    """Zero out classes whose weight does not exceed ``delta``.

    This is the one place a weight is compared with ``delta``; everywhere
    else a class is masked exactly when its weight is 0.  Surviving weights
    are kept as-is, deliberately not renormalized, so a weight of exactly 0
    stays 0 and the operation is idempotent.
    """
    if delta < 0:
        raise ConfigurationError(f"delta must be non-negative, got {delta}")
    w = np.asarray(w, dtype=float)
    masked = w * (w > delta)
    if not masked.any():
        raise ConfigurationError(
            f"no class survives threshold delta={delta} "
            f"(largest class weight is {w.max()})"
        )
    return masked


def source_sample_weights(w, y_s) -> np.ndarray:
    """Per-sample weights: each source sample inherits its masked class weight."""
    w = np.asarray(w, dtype=float)
    y_s = np.asarray(y_s, dtype=float)
    if y_s.ndim != 2 or y_s.shape[1] != w.size:
        raise ValidationError(
            f"label matrix shape {y_s.shape} does not match {w.size} class weights"
        )
    omega = y_s @ w
    if omega.sum() <= 0:
        raise ConfigurationError(
            "all source sample weights are zero; every sample belongs to a masked class"
        )
    return omega


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


def apply_mask(p, w) -> tuple[np.ndarray, int]:
    """Zero the soft label rows of masked classes, those whose weight in ``w`` is 0.

    Columns are not renormalized.  A column left all-zero is replaced by the
    uniform distribution over surviving classes; the number of such columns
    is returned alongside the masked matrix.
    """
    p = np.asarray(p, dtype=float)
    keep = np.asarray(w, dtype=float) > 0
    if p.ndim != 2 or p.shape[0] != keep.size:
        raise ValidationError(
            f"soft labels shape {p.shape} does not match {keep.size} classes"
        )
    masked = p * keep[:, None]
    dead = masked.sum(axis=0) == 0.0
    n_dead = int(dead.sum())
    if n_dead:
        survivors = keep.sum()
        if survivors == 0:
            raise ConfigurationError("cannot repair empty columns, no class survives the mask")
        masked[:, dead] = (keep / survivors)[:, None]
    return masked, n_dead


def scatter_factors(zc, mean, n_s: int, omega, y_s, p,
                    config: AdaptationConfig) -> tuple[np.ndarray, np.ndarray]:
    """Factors U and N with ``Z M Z.T = alpha_c Zc Zc.T + alpha_p Zc_t Zc_t.T + U N U.T``.

    ``Z = zc + mean 1.T`` is split into near-centred columns ``zc`` and a
    common column ``mean``, and M is ``combine(M0, Mp, Mc)`` of
    :mod:`partialda.oracles`.  With ``Y = [Y_s; P.T]``, ``G = Y.T Y``,
    ``S = (G + eps I)^-1`` and ``B = (G_s + eps_s I)^-1 P`` (eps and eps_s
    the ridges the dense oracles use, so the split stays exact under them):

    * ``Z Mc Z.T = R R.T`` with ``R = Z - (Z Y) S Y.T = R_c + mean r.T``,
      ``r = 1 - Y S Y.T 1``, and ``R_c R_c.T = Zc Zc.T - (Zc Y) K (Zc Y).T``
      for ``K = 2S - S G S``;
    * ``Z Mp Z.T = D D.T`` with ``D = Z_s Y_s B - Z_t = D_c + mean d_p.T``,
      ``d_p = B.T Y_s.T 1 - 1``, and ``D_c D_c.T`` the target Gram matrix
      plus cross terms of ``Zc_s Y_s`` and ``Zc_t B.T``;
    * ``Z M0 Z.T = (Zc e)(Zc e).T``, since the entries of e sum to 0.

    ``U = [Zc e | Zc_s Y_s | Zc_t B.T | Zc Y | mean | D_c d_p | R_c r]`` is
    (dim, 3C + 4) and N is symmetric, (3C + 4)-square.  Each mean term is
    carried by its own column, so nothing large cancels when the data sit
    far from the origin, as long as ``zc`` is centred.

    Parameters
    ----------
    zc : ndarray (dim, n_s + n_t)
        Centred data, one column per sample, source columns first.
    mean : ndarray (dim,)
        The column added back to every sample of ``zc``.
    n_s : int
        Number of source columns.
    omega : ndarray (n_s,)
        Non-negative, finite source sample weights with a positive sum.
    y_s : ndarray (n_s, C)
        One-hot source labels.
    p : ndarray (C, n_t)
        Finite soft target labels, already masked.
    config : AdaptationConfig
        Its ``alpha_p`` and ``alpha_c`` weight the center and cluster terms;
        the configuration checked them when it was built.
    """
    zc = np.asarray(zc, dtype=float)
    mean = np.asarray(mean, dtype=float)
    y_s = np.asarray(y_s, dtype=float)
    p = np.asarray(p, dtype=float)
    if (zc.ndim != 2 or mean.shape != zc.shape[:1]
            or y_s.ndim != 2 or p.ndim != 2
            or y_s.shape[0] != n_s or y_s.shape[1] != p.shape[0]
            or zc.shape[1] != n_s + p.shape[1]):
        raise ValidationError(
            f"inconsistent shapes: data {zc.shape}, {n_s} source samples, "
            f"weights {np.shape(omega)}, labels {y_s.shape}, soft labels {p.shape}"
        )
    omega = as_sample_weights(omega, n_s, "omega")
    if not np.isfinite(p).all():
        raise ValidationError("the soft labels must be finite")
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

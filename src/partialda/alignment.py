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

:func:`alignment_scatter` forms the dim x dim matrix ``Z M Z.T`` of the
combined loss straight from the rank-one, low-rank and class-indicator
factors of the three terms, so no (n_s + n_t)-square array is ever built.
The dense matrices M themselves live in :mod:`partialda.oracles`.
"""

from __future__ import annotations

import numpy as np

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


def alignment_scatter(z, n_s: int, omega, y_s, p, alpha_p: float,
                      alpha_c: float) -> np.ndarray:
    """``Z @ combine(M0, Mp, Mc) @ Z.T`` formed from the factors of each term.

    With ``e`` the mean-discrepancy vector of
    :func:`partialda.oracles.build_m0`, each term is
    a Gram matrix of a dim-row factor:

    * ``Z M0 Z.T = (Z e)(Z e).T``,
    * ``Z Mp Z.T = D D.T`` with ``D = (Z_s Y_s)(G_s + eps I)^-1 P - Z_t``,
    * ``Z Mc Z.T = R R.T`` with ``R = Z - (Z Y)(G + eps I)^-1 Y.T`` and
      ``Y = [Y_s; P.T]``,

    where G_s and G are the indicator Gram matrices and eps is the same
    ridge the dense oracles use, so the result stays exact under it.

    Parameters
    ----------
    z : ndarray (dim, n_s + n_t)
        Any data matrix with one column per sample, source columns first:
        the features, their whitened form or their embedding.
    n_s : int
        Number of source columns of ``z``.
    omega : ndarray (n_s,)
        Non-negative source sample weights.
    y_s : ndarray (n_s, C)
        One-hot source labels.
    p : ndarray (C, n_t)
        Soft target labels, already masked.
    alpha_p, alpha_c : float
        Non-negative weights of the center and cluster terms.
    """
    z = np.asarray(z, dtype=float)
    omega = np.asarray(omega, dtype=float)
    y_s = np.asarray(y_s, dtype=float)
    p = np.asarray(p, dtype=float)
    if (z.ndim != 2 or omega.shape != (n_s,) or y_s.ndim != 2 or p.ndim != 2
            or y_s.shape[0] != n_s or y_s.shape[1] != p.shape[0]
            or z.shape[1] != n_s + p.shape[1]):
        raise ValidationError(
            f"inconsistent shapes: data {z.shape}, {n_s} source samples, "
            f"weights {omega.shape}, labels {y_s.shape}, soft labels {p.shape}"
        )
    if (omega < 0).any() or omega.sum() <= 0:
        raise ValidationError("omega must be non-negative with a positive sum")
    if alpha_p < 0 or alpha_c < 0:
        raise ValidationError("alpha_p and alpha_c must be non-negative")
    z_s, z_t = z[:, :n_s], z[:, n_s:]
    soft_mass = p.sum(axis=1)

    ze = z_s @ omega / omega.sum() - z_t.mean(axis=1)
    scatter = np.outer(ze, ze)

    gram_s = y_s.T @ y_s
    d = (z_s @ y_s) @ solve_gram_system(gram_s, p, _ridge_eps(gram_s, soft_mass)) - z_t
    scatter += alpha_p * (d @ d.T)

    y = np.vstack([y_s, p.T])
    gram = y.T @ y
    r = z - (z @ y) @ solve_gram_system(gram, y.T, _ridge_eps(gram, soft_mass))
    scatter += alpha_c * (r @ r.T)
    return scatter

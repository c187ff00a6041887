"""Dense reference oracles for the matrices the fast paths never build.

Each builder returns a plain symmetric ndarray of size (n_s + n_t) or n, so
a test can write a loss as ``trace(A.T @ X @ M @ X.T @ A)`` for a projection
A and the column-per-sample matrix ``X = [X_s | X_t]`` and compare it with
what the adaptation loop computes.  Which fast path each oracle checks:

* :func:`build_m0` (domain term), :func:`build_mp` with
  :func:`build_center_operators` (center term), :func:`build_mc` (cluster
  term) and :func:`combine` (their weighted sum) check the scatter
  ``Z M Z.T`` that :mod:`partialda.subspace` forms in two parts, without
  M, and the round objective ``trace(A.T Z M Z.T A) + lam ||A||^2`` that
  :func:`partialda.subspace.solve_projection` returns.
* :func:`centering_matrix` checks :func:`partialda.subspace.gram_matrix`,
  which forms the constraint side ``Z H Z.T`` by subtracting row means.
* :func:`generalized_eigh` is the reference for
  :func:`partialda.subspace.solve_projection`: it takes the dense pencil
  ``(lhs, rhs)`` that the solver only ever sees factored and whitened, and
  solves it with ``numpy.linalg`` alone, not with the solver's LAPACK
  routines.
* :func:`textbook_graph`, :func:`textbook_reweight` and
  :func:`textbook_propagate` are the row-normalized graph ``(W_ts, W_tt)``,
  its class reweighting and the harmonic solve written one fresh array per
  step, as the paper states them; :func:`fixed_point_oracle` reaches the
  same soft labels by iterating the harmonic update instead of solving.
  Together they check :func:`partialda.graph.propagate_labels`, which
  builds only one triangle of the unnormalized target affinities and
  scales by the row sums once.

The adaptation loop never imports this module.
"""

from __future__ import annotations

import numpy as np

from .core import as_weights
from .errors import NumericalError, ValidationError
from .subspace import _cond, _ridge_eps


def symmetrize(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2.0


def build_m0(omega, n_t: int) -> np.ndarray:
    """Weighted mean-discrepancy matrix.

    Encodes the squared distance between the omega-weighted source mean and
    the plain target mean: with S the weight total, the source block is
    ``omega_i * omega_j / S**2``, the target block ``1 / n_t**2`` and the
    cross blocks ``-omega_i / (S * n_t)``.
    """
    omega = as_weights(omega, np.size(omega), "omega")
    if n_t < 1:
        raise ValidationError(f"n_t must be >= 1, got {n_t}")
    e = np.concatenate([omega / omega.sum(), -np.ones(n_t) / n_t])
    return symmetrize(np.outer(e, e))


def _class_projector(y_s: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Projector onto the span of stacked class indicators [Y_s; P.T], their Gram matrix exact."""
    y = np.vstack([y_s, p.T])
    return y @ np.linalg.solve(y.T @ y, y.T)


def build_center_operators(y_s, p) -> np.ndarray:
    """The (n_s, n_t) operator Y_st rebuilding each target from source class centers.

    ``X_s @ Y_st`` has one expected center per target column.  ``Y_s.T Y_s``
    takes the solver's ridge eps_s (:func:`partialda.subspace._ridge_eps`).

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
    eps = _ridge_eps(np.diag(gram), p.sum(axis=1))
    return y_s @ np.linalg.solve(gram + eps * np.eye(gram.shape[0]), p)


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

    Built from the exact projector Y_c onto stacked class indicators as
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
    # NaN passes ``< 0``, so finiteness is checked first
    if not (np.isfinite(alpha_p) and np.isfinite(alpha_c)):
        raise ValidationError(f"alpha_p and alpha_c must be finite, got {alpha_p}, {alpha_c}")
    if alpha_p < 0 or alpha_c < 0:
        raise ValidationError("alpha_p and alpha_c must be non-negative")
    return symmetrize(m0 + alpha_p * mp + alpha_c * mc)


def centering_matrix(n: int) -> np.ndarray:
    """The n x n matrix I - (1/n) 11' that removes the column mean."""
    if n < 1:
        raise ValidationError(f"centering matrix needs n >= 1, got {n}")
    return np.eye(n) - np.full((n, n), 1.0 / n)


def _check_k(k, dim: int) -> None:
    if not isinstance(k, (int, np.integer)):
        raise ValidationError(f"k must be an integer, got {k}")
    if k < 1:
        raise ValidationError(f"k must be at least 1, got {k}")
    if k > dim:
        raise ValidationError(
            f"k={k} exceeds the {dim} numerically valid eigenpairs; use a smaller k"
        )


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


def textbook_cosine(a, b) -> np.ndarray:
    """Pairwise 1 - cosine similarity between columns of a and b; zero columns stay zero."""
    na = np.linalg.norm(a, axis=0)
    nb = np.linalg.norm(b, axis=0)
    ua = a / np.where(na > 0, na, 1.0)
    ub = b / np.where(nb > 0, nb, 1.0)
    return 1.0 - ua.T @ ub


def textbook_normalize(w_ts, w_tt):
    """Both blocks divided by their joint row sums, and the rows that sum to 0."""
    totals = w_ts.sum(axis=1) + w_tt.sum(axis=1)
    dead = totals == 0.0
    safe = np.where(dead, 1.0, totals)
    return w_ts / safe[:, None], w_tt / safe[:, None], dead


def textbook_graph(z_s, z_t, sigma):
    """Row-normalized ``(W_ts, W_tt)``, rows that underflow everywhere made uniform."""
    w_ts = np.exp(-(textbook_cosine(z_t, z_s) / sigma) ** 2)
    w_tt = np.exp(-(textbook_cosine(z_t, z_t) / sigma) ** 2)
    np.fill_diagonal(w_tt, 0.0)
    w_ts, w_tt, dead = textbook_normalize(w_ts, w_tt)
    if dead.any():
        w_ts[dead] = 1.0
        w_tt[dead] = 1.0
        np.fill_diagonal(w_tt, 0.0)
        w_ts, w_tt, _ = textbook_normalize(w_ts, w_tt)
    return w_ts, w_tt


def textbook_reweight(w_ts, w_tt, w, source_classes):
    """Class-scaled ``(W_ts, W_tt)`` and the number of rows left without mass.

    The factors come from class weights indexed by class ids, not from
    the label matrix ``propagate_labels`` multiplies them by, so the two
    routes meet only in their result.
    """
    factors = w[source_classes]
    factors = factors / factors.max()
    w_ts, w_tt, dead = textbook_normalize(w_ts * factors[None, :], w_tt)
    if dead.any():
        if w_tt.shape[0] > 1:
            w_tt[dead] = 1.0
            np.fill_diagonal(w_tt, 0.0)
        else:  # the uniform source row, reweighted
            w_ts[dead] = factors
        w_ts, w_tt, _ = textbook_normalize(w_ts, w_tt)
    return w_ts, w_tt, int(dead.sum())


def textbook_propagate(w_ts, w_tt, y_s):
    """Soft labels ``(C, n_t)`` solving ``(I - W_tt) F = W_ts Y_s`` with ``np.linalg.solve``."""
    n_t = w_tt.shape[0]
    return np.linalg.solve(np.eye(n_t) - w_tt, w_ts @ y_s).T


def fixed_point_oracle(w_ts, w_tt, y_s, tol=1e-12, max_sweeps=100_000):
    """Iterate the harmonic update ``F <- W_ts Y_s + W_tt F`` until the labels stop moving."""
    f = np.zeros((w_tt.shape[0], y_s.shape[1]))
    base = w_ts @ y_s
    for _ in range(max_sweeps):
        nxt = base + w_tt @ f
        if np.abs(nxt - f).max() < tol:
            return nxt.T
        f = nxt
    raise AssertionError("fixed point iteration did not converge")

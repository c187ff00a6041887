import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import partialda._lapack as _lapack
import partialda.subspace as subspace
from partialda import AdaptationConfig, ConfigurationError, NumericalError, ValidationError
from partialda._lapack import inv_cholesky, syevr_smallest
from partialda.oracles import (
    build_center_operators,
    build_m0,
    build_mc,
    build_mp,
    centering_matrix,
    combine,
    generalized_eigh,
)
from partialda.subspace import gram_matrix, solve_projection
from tests.test_alignment import random_instance

EPS = np.finfo(float).eps
# gram_matrix's knobs without the alignment terms: its pencil is the ridge alone
RIDGE_ONLY = AdaptationConfig(k=1, alpha_p=0.0, alpha_c=0.0)
# labels for the first two columns, the source samples of the hand-made instances
Y2 = np.eye(2)


def l_inv_of(data):
    """``L^-1``: the transpose of the upper triangle of ``data.shared``, which holds ``L^-T``."""
    return np.triu(data.shared).T


def base_of(data):
    """The cached pencil base: ``data.shared``'s strict lower triangle, mirrored, and its diagonal."""
    lower = np.tril(data.shared, -1)
    return lower + lower.T + np.diag(data.base_diagonal)


def with_k(data, k):
    """``data`` whose configuration asks ``solve_projection`` for k eigenvectors."""
    return replace(data, config=replace(data.config, k=k))


def labelled_data(rng, x_s, y_s, x_t, p):
    """Data, the features ``Z = [X_s | X_t]``, the dense combined M and the labels ``(w, p)``.

    ``gram_matrix`` gets the same two weights as the dense ``combine``, and
    ``M0`` the class weights ``w`` of each source sample, so
    ``solve_projection(with_k(data, k), *labels)`` solves the pencil of ``M``.
    """
    w = rng.random(y_s.shape[1]) + 0.1
    alpha_p, alpha_c = float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 2.0))
    m_all = combine(
        build_m0(y_s @ w, x_t.shape[1]),
        build_mp(build_center_operators(y_s, p)),
        build_mc(y_s, p),
        alpha_p,
        alpha_c,
    )
    data = gram_matrix(x_s, y_s, x_t, AdaptationConfig(k=1, alpha_p=alpha_p, alpha_c=alpha_c))
    return data, np.hstack([x_s, x_t]), m_all, (w, p)


def solver_instance(rng):
    """Random pencil built from actual alignment matrices."""
    return labelled_data(rng, *random_instance(rng))


def conditioned_instance(rng):
    """Pencil with n >= 6d so the centered constraint side is well conditioned.

    When d approaches n the matrix Z H Z' develops weak or null directions
    whose eigenvectors have huge norm, and the unregularized constraint
    check AᵀZHZᵀA ≈ I is only meaningful when the average per-sample
    variance stays below the smallest variance direction — which for
    standard-normal data needs roughly six-fold oversampling.
    """
    d = int(rng.integers(2, 9))
    n = int(rng.integers(6 * d, 10 * d + 1))
    n_s = max(4, n // 2)
    n_t = max(3, n - n_s)
    c_s = int(rng.integers(2, min(5, n_s)))
    labels = np.concatenate([np.arange(c_s), rng.integers(0, c_s, n_s - c_s)])
    y_s = np.zeros((n_s, c_s))
    y_s[np.arange(n_s), labels] = 1.0
    x_s = rng.standard_normal((d, n_s))
    x_t = rng.standard_normal((d, n_t))
    p = rng.random((c_s, n_t)) + 0.05
    p /= p.sum(axis=0)
    return labelled_data(rng, x_s, y_s, x_t, p)


def dense_pencil(z, m_all, lam):
    """The dense lhs and rhs of the pencil that gram_matrix factors, at its current _RHS_REG."""
    n = z.shape[1]
    zhz = z @ centering_matrix(n) @ z.T
    lhs = z @ m_all @ z.T + lam * np.eye(z.shape[0])
    rhs = zhz + subspace._RHS_REG * np.trace(zhz) / n * np.eye(z.shape[0])
    return lhs, rhs


def factored_instance(rng, full_rank=None):
    """Random alignment instance solved the way the loop solves it, at the current _RHS_REG.

    full_rank=True keeps n >= d + 2 samples, so the raw constraint side
    is nonsingular before its ridge; False keeps n <= d, so it is
    singular.  Returns the projection, the data, the features ``Z = [X_s |
    X_t]``, the dense combined M and the dense pencil.
    """
    while True:
        x_s, y_s, x_t, p = random_instance(rng)
        d, n = x_s.shape[0], x_s.shape[1] + x_t.shape[1]
        if full_rank is None or (n >= d + 2 if full_rank else n <= d):
            break
    w = rng.random(y_s.shape[1]) + 0.1
    alpha_p, alpha_c = float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 2.0))
    m_all = combine(
        build_m0(y_s @ w, x_t.shape[1]),
        build_mp(build_center_operators(y_s, p)),
        build_mc(y_s, p),
        alpha_p,
        alpha_c,
    )
    lam = 0.1
    k = int(rng.integers(1, min(d, n - 1, 5) + 1))  # below the constraint side's null space
    data = gram_matrix(x_s, y_s, x_t, AdaptationConfig(k=k, lam=lam, alpha_p=alpha_p,
                                                       alpha_c=alpha_c))
    proj = solve_projection(data, w, p)
    z = np.hstack([x_s, x_t])
    return proj, data, z, m_all, dense_pencil(z, m_all, lam)


def assert_matches_dense_eigh(phi, a, lhs, rhs, singular=False):
    """Check k pairs against the k smallest of scipy's dense generalized eigh.

    Eigenvalues must agree to 1e-10 relative and eigenvectors, up to sign,
    to 1e-7 of their largest entry, and the sign rule must hold.  When the
    constraint side is singular but for its ridge (``singular=True``), any
    solver that reduces the pencil with a Cholesky factor, scipy's
    included, is accurate only to about ``eps ||lhs|| ||rhs^-1||`` in the
    eigenvalues (Golub & Van Loan, Matrix Computations, sec. 8.7.2); that
    bound, and its effect on the vectors, is added to the tolerances there.
    """
    import scipy.linalg

    k, dim = phi.shape[0], lhs.shape[0]
    full_phi, full_vecs = scipy.linalg.eigh(lhs, rhs)
    want_phi = full_phi[:k]
    want = full_vecs[:, :k] * np.sign(
        full_vecs[np.argmax(np.abs(full_vecs[:, :k]), axis=0), np.arange(k)])
    phi_tol = 1e-10 * np.abs(want_phi)
    vec_tol = np.full(k, 1e-7)
    if singular:
        bound = 32 * dim * EPS * np.linalg.norm(lhs, 2) * np.linalg.norm(np.linalg.inv(rhs), 2)
        gaps = np.array([np.min(np.abs(np.delete(full_phi, i) - full_phi[i])) for i in range(k)])
        phi_tol = phi_tol + bound
        vec_tol = vec_tol + bound * np.sqrt(np.linalg.cond(rhs)) / gaps
    assert phi.shape == (k,) and a.shape == (dim, k)
    assert np.all(np.abs(phi - want_phi) <= phi_tol)
    assert np.all(np.max(np.abs(a - want), axis=0) <= vec_tol * np.abs(want).max(axis=0))
    idx = np.argmax(np.abs(a), axis=0)
    assert (a[idx, np.arange(k)] > 0).all()


def test_centering_matrix_properties():
    h = centering_matrix(5)
    assert np.allclose(h @ np.ones(5), 0.0, atol=1e-15)
    assert np.allclose(h @ h, h, atol=1e-14)
    assert np.array_equal(h, h.T)
    with pytest.raises(ValidationError):
        centering_matrix(0)


def test_gram_matrix_passes_features_through():
    rng = np.random.default_rng(20)
    x = rng.standard_normal((6, 4))
    x_s, x_t = x[:, :3], x[:, 3:]
    y_s = np.eye(2)[[0, 1, 0]]
    raw = gram_matrix(x_s, y_s, x_t, RIDGE_ONLY)
    assert raw.config is RIDGE_ONLY
    # the caller's source features, read where they are by the objective,
    # and the class counts of the source labels, checked once per run
    assert raw.x_s is x_s and np.array_equal(raw.counts, [2.0, 1.0])
    # only the targets, the class sums and the mean are whitened
    mu = x.mean(axis=1)
    assert np.allclose(raw.mu, mu, rtol=1e-15, atol=1e-15)
    l_inv = l_inv_of(raw)
    tol = {"rtol": 1e-13, "atol": 1e-13 * np.abs(l_inv).max()}
    assert np.allclose(raw.targets, l_inv @ (x_t - mu[:, None]), **tol)
    assert np.allclose(raw.class_sums, l_inv @ ((x_s - mu[:, None]) @ y_s), **tol)
    assert np.allclose(raw.mean, l_inv @ mu, **tol)
    # no field has a column per sample of both domains, and one d x d buffer
    # holds L^-T and the cached pencil, whose diagonal is a d-vector
    kept = [getattr(raw, f.name) for f in fields(raw)]
    assert not [v for v in kept if np.ndim(v) == 2 and v.shape[1] == x.shape[1]]
    assert [v.shape for v in kept if np.ndim(v) == 2 and v.shape[0] == v.shape[1] == 6] \
        == [(6, 6)]
    assert raw.shared.flags.c_contiguous and raw.base_diagonal.shape == (6,)
    with pytest.raises(ValidationError, match="2-dimensional"):
        gram_matrix(x[0], y_s, x_t, RIDGE_ONLY)
    with pytest.raises(ValidationError, match="dimensions differ"):
        gram_matrix(x_s, y_s, x_t[1:], RIDGE_ONLY)
    with pytest.raises(ValidationError, match=r"^label matrix has 2 rows, expected 3 "):
        gram_matrix(x_s, y_s[1:], x_t, RIDGE_ONLY)
    with pytest.raises(ValidationError, match="^class 1 has no samples$"):
        gram_matrix(x_s, np.eye(2)[[0, 0, 0]], x_t, RIDGE_ONLY)
    # k fits d or the data are refused, as adapt refuses them
    gram_matrix(x_s, y_s, x_t, replace(RIDGE_ONLY, k=6))
    with pytest.raises(ConfigurationError, match="^k=7 exceeds the feature dimension 6$"):
        gram_matrix(x_s, y_s, x_t, replace(RIDGE_ONLY, k=7))


def test_generalized_eigh_diagonal_case():
    phi, a = generalized_eigh(np.diag([2.0, 1.0]), np.eye(2), k=1)
    assert phi[0] == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(np.abs(a[:, 0]), [0.0, 1.0], atol=1e-14)
    assert a[1, 0] > 0  # sign convention: largest-magnitude entry positive


def test_generalized_eigh_k_out_of_range():
    with pytest.raises(ValidationError, match="smaller k"):
        generalized_eigh(np.eye(3), np.eye(3), k=4)
    # k < 1 is not cured by a smaller k
    for k in (0, -1):
        with pytest.raises(ValidationError, match=f"^k must be at least 1, got {k}$"):
            generalized_eigh(np.eye(3), np.eye(3), k=k)
    # a fractional k is refused before it reaches the eigensolver or a slice
    with pytest.raises(ValidationError, match=r"^k must be an integer, got 2\.5$"):
        generalized_eigh(np.eye(3), np.eye(3), k=2.5)


def test_generalized_eigh_matches_full_spectrum():
    # Only the k smallest pairs are computed; they must be the first k of
    # the full spectrum, up to the sign convention.
    import scipy.linalg

    rng = np.random.default_rng(28)
    for _ in range(30):
        dim = int(rng.integers(2, 40))
        k = int(rng.integers(1, dim + 1))
        b = rng.standard_normal((dim, dim))
        c = rng.standard_normal((dim, 2 * dim))
        lhs = (b + b.T) / 2
        rhs = c @ c.T / dim + 0.1 * np.eye(dim)
        phi, a = generalized_eigh(lhs, rhs, k)
        full_phi, full_vecs = scipy.linalg.eigh(lhs, rhs)
        assert phi.shape == (k,) and a.shape == (dim, k)
        assert np.allclose(phi, full_phi[:k], rtol=1e-10, atol=1e-10)
        want = full_vecs[:, :k] * np.sign(
            full_vecs[np.argmax(np.abs(full_vecs[:, :k]), axis=0), np.arange(k)])
        assert np.allclose(a, want, rtol=1e-7, atol=1e-7)
        idx = np.argmax(np.abs(a), axis=0)
        assert (a[idx, np.arange(k)] > 0).all()


def test_solve_projection_residual_and_constraint():
    rng = np.random.default_rng(21)
    for _ in range(40):
        data, z, m_all, labels = conditioned_instance(rng)
        n = z.shape[1]
        lam = 0.1
        k = max(1, z.shape[0] // 2)
        proj = solve_projection(with_k(data, k), *labels)
        a, phi = proj.a, proj.eigenvalues
        lhs = z @ m_all @ z.T + lam * np.eye(z.shape[0])
        lhs = (lhs + lhs.T) / 2
        zhz = z @ centering_matrix(n) @ z.T
        zhz = (zhz + zhz.T) / 2
        eps_r = 1e-6 * np.trace(zhz) / n
        rhs = zhz + eps_r * np.eye(z.shape[0])
        residual = np.linalg.norm(lhs @ a - rhs @ a @ np.diag(phi))
        assert residual <= 1e-8 * np.linalg.norm(lhs)
        assert np.all(np.diff(phi) >= 0)
        # unit projected variance up to the regularizer
        gap = np.linalg.norm(a.T @ zhz @ a - np.eye(k))
        assert gap <= 1e-6 * k


def test_solve_projection_smallest_eigenvalues_minimize_objective():
    rng = np.random.default_rng(22)
    hits = 0
    for _ in range(20):
        _, z, m_all, _ = conditioned_instance(rng)
        lam = 0.1
        d = z.shape[0]
        if d < 4:
            continue
        k = 2
        lhs = (z @ m_all @ z.T + (z @ m_all @ z.T).T) / 2 + lam * np.eye(d)
        h = centering_matrix(z.shape[1])
        zhz = (z @ h @ z.T + (z @ h @ z.T).T) / 2
        rhs = zhz + 1e-6 * np.trace(zhz) / z.shape[1] * np.eye(d)
        import scipy.linalg

        phi, vecs = scipy.linalg.eigh(lhs, rhs)
        small = vecs[:, :k]
        large = vecs[:, -k:]
        t_small = np.trace(small.T @ z @ m_all @ z.T @ small)
        t_large = np.trace(large.T @ z @ m_all @ z.T @ large)
        assert t_large > t_small
        hits += 1
    assert hits >= 10


def test_solve_projection_deterministic_and_signed():
    rng = np.random.default_rng(23)
    data, _, _, labels = solver_instance(rng)
    k = max(1, data.mu.size // 2)
    data = with_k(data, k)
    p1 = solve_projection(data, *labels)
    p2 = solve_projection(data, *labels)
    assert np.array_equal(p1.a, p2.a)
    assert np.array_equal(p1.eigenvalues, p2.eigenvalues)
    idx = np.argmax(np.abs(p1.a), axis=0)
    assert (p1.a[idx, np.arange(k)] > 0).all()
    assert p1.objective == p2.objective


def test_each_solve_builds_a_pencil_of_its_own(monkeypatch):
    # the eigensolver overwrites the pencil it is given, so two solves on
    # one data share no memory with each other or with the buffer that
    # holds L^-T and the cached base, nor with base's diagonal, and leave
    # both as they were; the triangle the eigensolver reads is U N U.T + base
    data, _, _, labels = solver_instance(np.random.default_rng(55))
    shared, diagonal = data.shared.copy(), data.base_diagonal.copy()
    received, pencils = [], []

    def recording(a, k):
        received.append(a)
        pencils.append(a.copy())
        return syevr_smallest(a, k)

    monkeypatch.setattr(subspace, "syevr_smallest", recording)
    first = solve_projection(data, *labels)
    second = solve_projection(data, *labels)
    assert len(received) == 2 and not np.shares_memory(*received)
    assert not any(np.shares_memory(a, data.shared) or np.shares_memory(a, data.base_diagonal)
                   for a in received)
    assert np.array_equal(data.shared, shared) and np.array_equal(data.base_diagonal, diagonal)
    assert np.array_equal(first.a, second.a)
    u, n = subspace._scatter_factors(data, *labels)
    want = u @ n @ u.T + base_of(data)
    assert np.allclose(np.tril(pencils[0]), np.tril(want), rtol=1e-13,
                       atol=1e-13 * np.abs(want).max())


def test_solve_projection_k_too_large():
    # k is checked against d once, when the data are factored, not every round
    rng = np.random.default_rng(24)
    x_s, y_s, x_t, p = random_instance(rng)
    data, _, _, labels = labelled_data(rng, x_s, y_s, x_t, p)
    d = data.mu.size
    assert solve_projection(with_k(data, d), *labels).a.shape == (d, d)
    with pytest.raises(ConfigurationError, match=f"^k={d + 1} exceeds the feature dimension {d}$"):
        gram_matrix(x_s, y_s, x_t, replace(data.config, k=d + 1))


def test_solve_projection_shape_mismatch():
    rng = np.random.default_rng(25)
    data, _, _, (w, p) = solver_instance(rng)
    with pytest.raises(ValidationError, match="shapes"):
        solve_projection(data, w, p[:, 1:])
    with pytest.raises(ValidationError, match="shapes"):
        solve_projection(data, w, p[1:])


def test_solve_projection_degenerate_data_is_numerical_error():
    # identical samples: centering removes everything, no variance remains
    # the constraint side is factored once, in gram_matrix, so it raises there
    x = np.ones((3, 5))
    y_s = np.eye(2)
    labels = (np.ones(2), np.full((2, 3), 0.5))
    with pytest.raises(NumericalError, match="no variance"):
        solve_projection(gram_matrix(x[:, :2], y_s, x[:, 2:], replace(RIDGE_ONLY, k=2)),
                         *labels)
    with pytest.raises(NumericalError, match="no variance"):
        solve_projection(gram_matrix(np.zeros((2, 2)), y_s, np.zeros((2, 2)), RIDGE_ONLY),
                         labels[0], np.full((2, 2), 0.5))
    # the variance is judged against the data's own scale: constant data is
    # refused however small, and a trace that overflows is named as such
    for scale in (2.0 ** -600, 2.0 ** 600):
        with pytest.raises(NumericalError, match="no variance"):
            gram_matrix(scale * x[:, :2], y_s, scale * x[:, 2:], RIDGE_ONLY)
    spread = np.arange(15.0).reshape(3, 5)
    with pytest.raises(NumericalError, match=r"^centered data overflows \(trace inf\); "):
        gram_matrix(1e155 * spread[:, :2], y_s, 1e155 * spread[:, 2:], RIDGE_ONLY)


def test_generalized_eigh_singular_rhs_is_numerical_error():
    # a constraint matrix that is not positive definite breaks the solver
    with pytest.raises(NumericalError, match="cond"):
        generalized_eigh(np.eye(3), np.zeros((3, 3)), k=2)


def test_objective_matches_trace_identity():
    rng = np.random.default_rng(27)
    data, z, m_all, labels = solver_instance(rng)
    proj = solve_projection(with_k(data, 2), *labels)
    want = float(
        np.trace(proj.a.T @ z @ m_all @ z.T @ proj.a) + 0.1 * np.sum(proj.a ** 2)
    )
    assert proj.objective == pytest.approx(want, rel=1e-12)


def test_gram_matrix_factors_the_constraint_side(monkeypatch):
    rng = np.random.default_rng(29)
    knobs = replace(RIDGE_ONLY, lam=0.3)
    received = []

    def recording(a):
        received.append(np.triu(a))  # the triangle the factorization reads
        return inv_cholesky(a)

    monkeypatch.setattr(subspace, "inv_cholesky", recording)
    # two singular constraint sides, then two definite ones, each streamed
    # and whitened in one block and in blocks of 4 columns, with base
    # written in one block of rows and in blocks of 4 rows
    for shape in ((9, 5), (40, 12), (12, 40), (5, 9)):
        x = rng.standard_normal(shape)
        x_s, x_t = x[:, :2], x[:, 2:]
        for block, rhs_reg in product((subspace._BLOCK, 4), (1e-4, 1e-10)):
            monkeypatch.setattr(subspace, "_BLOCK", block)
            monkeypatch.setattr(subspace, "_RHS_REG", rhs_reg)
            data = gram_matrix(x_s, Y2, x_t, knobs)
            z, n = x, shape[1]
            l_inv = l_inv_of(data)
            # the streamed constraint side Zc Zc.T + eps_r I, in the triangle
            # the factorization reads
            _, rhs = dense_pencil(z, np.zeros((n, n)), 0.3)
            assert np.allclose(received[-1], np.triu(rhs), rtol=1e-13,
                               atol=1e-13 * np.abs(rhs).max())
            # the whitened data L^-1 Z, split into its centred part and its
            # mean: the targets column by column, the sources by class
            whitened = l_inv @ z
            assert np.allclose(data.targets + data.mean[:, None], whitened[:, 2:],
                               rtol=1e-13, atol=1e-13)
            assert np.allclose(data.class_sums + np.outer(data.mean, data.counts),
                               whitened[:, :2] @ Y2, rtol=1e-13, atol=1e-13)
            assert np.allclose((data.targets.sum(axis=1) + data.class_sums.sum(axis=1)) / n,
                               0.0, atol=1e-13 * np.abs(l_inv).max())
            # at 1e-10 a singular side has kappa(rhs) ~ 1e10, which leaves
            # L^-1 rhs L^-T ~ 1e-6 off I and the small entries of lam L^-1 L^-T
            # without 13 correct digits of their own
            if rhs_reg == 1e-4:
                assert np.allclose(l_inv @ rhs @ l_inv.T, np.eye(z.shape[0]), atol=1e-9)
                assert np.allclose(base_of(data), 0.3 * l_inv @ l_inv.T, rtol=1e-13, atol=1e-13)
            # with alignment weights, base adds their round-invariant part,
            # whose Wc Wc.T gram_matrix reads off the factor as I - eps_r L^-1 L^-T
            l_ld = l_inv.astype(np.longdouble)
            wc = l_ld @ (z - z.mean(axis=1, keepdims=True)).astype(np.longdouble)
            want = 0.7 * wc @ wc.T + 1.9 * wc[:, 2:] @ wc[:, 2:].T + 0.3 * l_ld @ l_ld.T
            got = base_of(gram_matrix(x_s, Y2, x_t, replace(knobs, alpha_p=1.9, alpha_c=0.7)))
            assert np.allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())
    monkeypatch.undo()
    # the knobs were checked when the AdaptationConfig was built
    # (tests/test_core.py); each feature matrix is checked before anything is factored
    for bad in (np.nan, np.inf, -np.inf):
        for i, side in enumerate(("source", "target")):
            args = [x_s.copy(), x_t.copy()]
            args[i][0, 0] = bad
            with pytest.raises(ValidationError,
                               match=f"^{side} features contains NaN or Inf entries$"):
                gram_matrix(args[0], Y2, args[1], RIDGE_ONLY)
    x[2] = 0.0  # a feature without variance leaves a zero pivot when _RHS_REG is 0
    monkeypatch.setattr(subspace, "_RHS_REG", 0.0)
    with pytest.raises(NumericalError, match="cond"):
        gram_matrix(x_s, Y2, x_t, RIDGE_ONLY)


def test_solve_projection_matches_dense_eigh_raw(monkeypatch):
    # Full-rank raw constraint side, at the default and a tiny _RHS_REG.
    rng = np.random.default_rng(30)
    for i in range(80):
        monkeypatch.setattr(subspace, "_RHS_REG", 1e-6 if i % 2 else 1e-10)
        proj, _, _, _, (lhs, rhs) = factored_instance(rng, full_rank=True)
        assert_matches_dense_eigh(proj.eigenvalues, proj.a, lhs, rhs)


def test_solve_projection_matches_dense_eigh_singular_raw():
    # With n <= d the centred constraint side is singular; only eps_r, at its
    # default _RHS_REG, makes it definite.
    rng = np.random.default_rng(31)
    for _ in range(80):
        proj, _, _, _, (lhs, rhs) = factored_instance(rng, full_rank=False)
        assert np.linalg.cond(rhs) > 1e5
        assert_matches_dense_eigh(proj.eigenvalues, proj.a, lhs, rhs, singular=True)


def test_solve_projection_matches_dense_eigh_ill_conditioned(monkeypatch):
    # _RHS_REG=1e-10 on a singular constraint side: raw features with n <= d.
    monkeypatch.setattr(subspace, "_RHS_REG", 1e-10)
    rng = np.random.default_rng(32)
    for _ in range(80):
        proj, _, _, _, (lhs, rhs) = factored_instance(rng, full_rank=False)
        assert np.linalg.cond(rhs) > 1e8
        assert_matches_dense_eigh(proj.eigenvalues, proj.a, lhs, rhs, singular=True)


def test_generalized_eigh_clustered_eigenvalues():
    # Pencils with prescribed spectra in clusters of three, 1e-6 apart.
    rng = np.random.default_rng(33)
    for _ in range(60):
        dim = int(rng.integers(3, 30))
        c = rng.standard_normal((dim, 2 * dim))
        rhs = c @ c.T / dim + 0.1 * np.eye(dim)
        chol = np.linalg.cholesky(rhs)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        centers = rng.uniform(0.5, 5.0, size=(dim + 2) // 3)
        spectrum = np.sort(np.concatenate([x * (1 + 1e-6 * np.arange(3)) for x in centers]))[:dim]
        lhs = chol @ q @ np.diag(spectrum) @ q.T @ chol.T
        k = int(rng.integers(1, dim + 1))
        phi, a = generalized_eigh(lhs, rhs, k)
        assert_matches_dense_eigh(phi, a, lhs, rhs)
        assert np.allclose(phi, spectrum[:k], rtol=1e-9)


def test_objective_matches_dense_trace_after_whitening():
    # The solver evaluates the objective from the whitened factors at its
    # eigenvectors; it must equal tr(A'SA) + lam ||A||^2 in original coordinates.
    rng = np.random.default_rng(34)
    for i in range(100):
        # alternately a singular constraint side (n <= d) and any shape
        proj, _, z, m_all, _ = factored_instance(rng, full_rank=False if i % 2 else None)
        a = proj.a
        want = float(np.trace(a.T @ z @ m_all @ z.T @ a) + 0.1 * np.sum(a ** 2))
        assert proj.objective == pytest.approx(want, rel=1e-10)


def test_objective_is_not_swamped_by_the_whitened_ridge(monkeypatch):
    # At _RHS_REG=1e-10 on a singular constraint side the whitened ridge
    # lam L^-1 L^-T dwarfs the objective, so the sum of the eigenvalues, which
    # carries it, is off by up to ~1e-6 relative; the objective taken from
    # the scatter factors and lam ||A||^2 must still match the dense trace.
    monkeypatch.setattr(subspace, "_RHS_REG", 1e-10)
    rng = np.random.default_rng(36)
    for _ in range(80):
        proj, data, z, m_all, _ = factored_instance(rng, full_rank=False)
        a = proj.a
        want = float(np.trace(a.T @ z @ m_all @ z.T @ a) + 0.1 * np.sum(a ** 2))
        assert 0.1 * np.linalg.norm(l_inv_of(data), 2) ** 2 >= 1e3 * want
        assert proj.objective == pytest.approx(want, rel=1e-10)


def test_objective_reads_the_source_features_a_block_at_a_time(monkeypatch):
    # The projection keeps no source column of the whitened data; the
    # objective reads the caller's features, centring and projecting one
    # block of columns at a time.  With n_s >> d, a whole (d, n_s)
    # temporary would dominate the traced peak of a solve, and taking the
    # sources in one block shows it does.
    rng = np.random.default_rng(60)
    d, n_s, n_t, c = 16, 20000, 40, 4
    labels = np.arange(n_s) % c
    x_s = rng.standard_normal((d, n_s)) + 3.0 * np.eye(d)[:, labels]
    x_t = rng.standard_normal((d, n_t))
    p = rng.random((c, n_t))
    p /= p.sum(axis=0)
    data = gram_matrix(x_s, np.eye(c)[labels], x_t, AdaptationConfig(k=4))
    peaks, objectives = [], []
    for block in (subspace._BLOCK, n_s):
        monkeypatch.setattr(subspace, "_BLOCK", block)
        tracemalloc.start()
        try:
            objectives.append(solve_projection(data, np.ones(c), p).objective)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 8 * d * n_s / 10 < 8 * d * n_s < peaks[1]
    assert objectives[0] == pytest.approx(objectives[1], rel=1e-14)


def test_gram_matrix_makes_no_per_sample_temporary():
    # The factoring streams blocks of centred columns: beside the arrays it
    # returns, the d x d buffer and the whitened targets (d, n_t), it holds
    # one block of _BLOCK columns, numpy's iterator buffers for centring a
    # block (up to three of np.getbufsize() doubles) and O(d C) more, so a
    # centred (d, n) copy or a second (d, n_t) array would show.
    rng = np.random.default_rng(61)
    d, n_s, n_t, c = 32, 12000, 3000, 4
    labels = np.arange(n_s) % c
    x_s = rng.standard_normal((d, n_s)) + 3.0 * np.eye(d)[:, labels]
    x_t = rng.standard_normal((d, n_t))
    y_s = np.eye(c)[labels]
    tracemalloc.start()
    try:
        gram_matrix(x_s, y_s, x_t, AdaptationConfig(k=4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    slack = 8 * (subspace._BLOCK * d + 3 * np.getbufsize()) + 2**16
    assert peak < 8 * (d * d + d * n_t) + slack
    assert slack < 8 * d * n_t < 8 * d * (n_s + n_t)


def test_import_leaves_scipy_unloaded():
    # numpy's BLAS/LAPACK is the only one the package loads.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = ("import sys, partialda, partialda.cli; "
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
            "assert not loaded, loaded")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr

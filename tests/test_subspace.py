import numpy as np
import pytest

from partialda import (
    NumericalError,
    ValidationError,
    centering_matrix,
    combine,
    embed,
    generalized_eigh,
    gram_matrix,
    projection_objective,
    solve_projection,
)
from tests.test_alignment import random_instance
from partialda import build_center_operators, build_m0, build_mc, build_mp


def solver_instance(rng, kernel="none"):
    """Random pencil built from actual alignment matrices."""
    x_s, y_s, x_t, p = random_instance(rng)
    omega = rng.random(x_s.shape[1]) + 0.1
    m_all = combine(
        build_m0(omega, x_t.shape[1]),
        build_mp(build_center_operators(x_s, y_s, p)),
        build_mc(y_s, p),
        float(rng.uniform(0.1, 2.0)),
        float(rng.uniform(0.1, 2.0)),
    )
    data = gram_matrix(np.hstack([x_s, x_t]), kernel)
    return data, m_all


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
    omega = rng.random(n_s) + 0.1
    m_all = combine(
        build_m0(omega, n_t),
        build_mp(build_center_operators(x_s, y_s, p)),
        build_mc(y_s, p),
        float(rng.uniform(0.1, 2.0)),
        float(rng.uniform(0.1, 2.0)),
    )
    data = gram_matrix(np.hstack([x_s, x_t]), "none")
    return data, m_all


def test_centering_matrix_properties():
    h = centering_matrix(5)
    assert np.allclose(h @ np.ones(5), 0.0, atol=1e-15)
    assert np.allclose(h @ h, h, atol=1e-14)
    assert np.array_equal(h, h.T)
    with pytest.raises(ValidationError):
        centering_matrix(0)


def test_gram_matrix_modes():
    rng = np.random.default_rng(20)
    x = rng.standard_normal((6, 4))
    raw = gram_matrix(x, "none")
    assert raw.mode == "raw"
    assert raw.matrix is x or np.array_equal(raw.matrix, x)
    q, _ = np.linalg.qr(rng.standard_normal((7, 3)))
    lin = gram_matrix(q, "linear")
    assert lin.mode == "kernel"
    assert np.allclose(lin.matrix, np.eye(3), atol=1e-14)
    with pytest.raises(ValidationError):
        gram_matrix(x, "rbf")


def test_generalized_eigh_diagonal_case():
    phi, a = generalized_eigh(np.diag([2.0, 1.0]), np.eye(2), k=1)
    assert phi[0] == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(np.abs(a[:, 0]), [0.0, 1.0], atol=1e-14)
    assert a[1, 0] > 0  # sign convention: largest-magnitude entry positive


def test_generalized_eigh_k_out_of_range():
    with pytest.raises(ValidationError, match="smaller k"):
        generalized_eigh(np.eye(3), np.eye(3), k=4)


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
        data, m_all = conditioned_instance(rng)
        z = data.matrix
        n = data.n_samples
        lam = 0.1
        k = max(1, z.shape[0] // 2)
        proj = solve_projection(data, z @ m_all @ z.T, lam, k)
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
        data, m_all = conditioned_instance(rng)
        z = data.matrix
        lam = 0.1
        d = z.shape[0]
        if d < 4:
            continue
        k = 2
        lhs = (z @ m_all @ z.T + (z @ m_all @ z.T).T) / 2 + lam * np.eye(d)
        h = centering_matrix(data.n_samples)
        zhz = (z @ h @ z.T + (z @ h @ z.T).T) / 2
        rhs = zhz + 1e-6 * np.trace(zhz) / data.n_samples * np.eye(d)
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
    data, m_all = solver_instance(rng)
    scatter = data.matrix @ m_all @ data.matrix.T
    k = max(1, data.matrix.shape[0] // 2)
    p1 = solve_projection(data, scatter, 0.1, k)
    p2 = solve_projection(data, scatter, 0.1, k)
    assert np.array_equal(p1.a, p2.a)
    assert np.array_equal(p1.eigenvalues, p2.eigenvalues)
    idx = np.argmax(np.abs(p1.a), axis=0)
    assert (p1.a[idx, np.arange(k)] > 0).all()
    assert projection_objective(p1, scatter, 0.1) == projection_objective(
        p2, scatter, 0.1
    )


def test_solve_projection_k_too_large():
    rng = np.random.default_rng(24)
    data, m_all = solver_instance(rng)
    with pytest.raises(ValidationError, match="smaller k"):
        solve_projection(data, data.matrix @ m_all @ data.matrix.T, 0.1,
                         data.matrix.shape[0] + 1)


def test_solve_projection_shape_mismatch():
    rng = np.random.default_rng(25)
    data, _ = solver_instance(rng)
    with pytest.raises(ValidationError):
        solve_projection(data, np.eye(data.matrix.shape[0] + 1), 0.1, 1)


def test_solve_projection_degenerate_data_is_numerical_error():
    # identical samples: centering removes everything, no variance remains
    x = np.ones((3, 5))
    data = gram_matrix(x, "none")
    with pytest.raises(NumericalError, match="no variance"):
        solve_projection(data, np.eye(3), 0.1, 2)
    with pytest.raises(NumericalError, match="no variance"):
        solve_projection(gram_matrix(np.zeros((2, 4)), "none"), np.eye(2), 0.1, 1)


def test_generalized_eigh_singular_rhs_is_numerical_error():
    # a constraint matrix that is not positive definite breaks the solver
    with pytest.raises(NumericalError, match="cond"):
        generalized_eigh(np.eye(3), np.zeros((3, 3)), k=2)


def test_embed_linearity_and_errors():
    rng = np.random.default_rng(26)
    data, m_all = solver_instance(rng)
    proj = solve_projection(data, data.matrix @ m_all @ data.matrix.T, 0.1, 2)
    z = embed(proj, data)
    assert z.shape == (2, data.n_samples)
    manual = proj.a.T @ data.matrix
    assert np.allclose(z, manual, atol=1e-12)
    x2 = np.vstack([data.matrix, np.zeros((1, data.n_samples))])
    data2 = gram_matrix(x2, "none")
    with pytest.raises(ValidationError, match="rows"):
        embed(proj, data2)
    data3 = gram_matrix(data.matrix, "linear")
    with pytest.raises(ValidationError, match="mode"):
        embed(proj, data3)


def test_objective_matches_trace_identity():
    rng = np.random.default_rng(27)
    data, m_all = solver_instance(rng)
    z = data.matrix
    proj = solve_projection(data, z @ m_all @ z.T, 0.1, 2)
    want = float(
        np.trace(proj.a.T @ z @ m_all @ z.T @ proj.a) + 0.1 * np.sum(proj.a ** 2)
    )
    assert projection_objective(proj, z @ m_all @ z.T, 0.1) == pytest.approx(want, rel=1e-12)

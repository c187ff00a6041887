"""Alignment matrix builders against independently computed oracles.

The oracles evaluate the underlying squared-distance losses directly
(weighted mean gap, per-class-mean reconstruction, QR-based projector)
without going through the block constructions under test.
"""

import numpy as np
import pytest
from hypothesis import example, given, reject
from hypothesis import strategies as st

from partialda import (
    AdaptationConfig,
    ConfigurationError,
    NumericalError,
    SyntheticSpec,
    ValidationError,
    adapt,
    generate_synthetic,
    make_one_hot,
)
from partialda.graph import propagate_labels
from partialda.oracles import (
    build_center_operators,
    build_m0,
    build_mc,
    build_mp,
    combine,
)
from partialda.pipeline import _class_weights, apply_mask
from partialda.subspace import (
    WhitenedData,
    _ridge_eps,
    _scatter_factors,
    gram_matrix,
    solve_projection,
)


def random_instance(rng, with_mask=False):
    """Random features, labels and soft labels at property-test scale."""
    n_s = int(rng.integers(3, 11))
    n_t = int(rng.integers(2, 9))
    c_s = int(rng.integers(2, min(6, n_s + 1)))
    d = int(rng.integers(2, 13))
    x_s = rng.standard_normal((d, n_s))
    x_t = rng.standard_normal((d, n_t))
    labels = np.concatenate([np.arange(c_s), rng.integers(0, c_s, n_s - c_s)])
    y_s = np.zeros((n_s, c_s))
    y_s[np.arange(n_s), labels] = 1.0
    p = rng.random((c_s, n_t))
    p /= p.sum(axis=0)
    return x_s, y_s, x_t, p


def factored_scatter(z, n_s, w, y_s, p, alpha_p, alpha_c):
    """``Z M Z.T`` as the solver forms it: the data-only part plus ``U N U.T``, on centred data.

    ``w`` are the class weights; the dense ``M0`` takes ``y_s @ w``.
    """
    mean = z.mean(axis=1)
    zc = z - mean[:, None]
    zc_t = zc[:, n_s:]
    config = AdaptationConfig(alpha_p=alpha_p, alpha_c=alpha_c)
    # the unwhitened data in the fields the solver reads; l_inv and base are not read
    data = WhitenedData(centred=zc, mean=mean, l_inv=None, base=None, config=config, y_s=y_s,
                        counts=y_s.sum(axis=0), class_sums=zc[:, :n_s] @ y_s)
    u, n = _scatter_factors(data, w, p)
    return alpha_c * zc @ zc.T + alpha_p * zc_t @ zc_t.T + u @ (n @ u.T)


def trace_loss(m, x, a):
    return float(np.trace(a.T @ x @ m @ x.T @ a))


def oracle_mean_gap(x_s, x_t, omega, a):
    """Direct evaluation of the squared weighted-mean discrepancy."""
    mean_s = (x_s @ omega) / omega.sum()
    mean_t = x_t.mean(axis=1)
    v = a.T @ (mean_s - mean_t)
    return float(v @ v)


def oracle_center_gap(x_s, y_s, x_t, p, a):
    """Reconstruct each target from hard-label class means, then measure."""
    c_s = y_s.shape[1]
    means = np.column_stack([x_s[:, y_s[:, c] == 1].mean(axis=1) for c in range(c_s)])
    recon = means @ p
    return float(np.sum((a.T @ (x_t - recon)) ** 2))


def oracle_cluster_gap(x_s, y_s, x_t, p, a):
    """Projector onto class indicators via QR, avoiding the Gram inverse."""
    x = np.hstack([x_s, x_t])
    y = np.vstack([y_s, p.T])
    q, _ = np.linalg.qr(y)
    residual = x - (x @ q) @ q.T
    return float(np.sum((a.T @ residual) ** 2))


def test_m0_frozen_entries():
    m0 = build_m0(np.array([1.0, 0.0]), 2)
    expected = np.array([
        [1.0, 0.0, -0.5, -0.5],
        [0.0, 0.0, 0.0, 0.0],
        [-0.5, 0.0, 0.25, 0.25],
        [-0.5, 0.0, 0.25, 0.25],
    ])
    assert np.allclose(m0, expected, atol=1e-15)


def test_m0_trace_identity_random():
    rng = np.random.default_rng(7)
    for _ in range(60):
        x_s, y_s, x_t, p = random_instance(rng)
        omega = rng.random(x_s.shape[1]) + 0.01
        a = rng.standard_normal((x_s.shape[0], 3))
        m0 = build_m0(omega, x_t.shape[1])
        got = trace_loss(m0, np.hstack([x_s, x_t]), a)
        want = oracle_mean_gap(x_s, x_t, omega, a)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_m0_rows_sum_to_zero_with_positive_weights():
    rng = np.random.default_rng(8)
    for _ in range(20):
        omega = rng.random(int(rng.integers(2, 9))) + 0.05
        m0 = build_m0(omega, int(rng.integers(1, 7)))
        assert np.abs(m0.sum(axis=1)).max() < 1e-10
        assert np.array_equal(m0, m0.T)


def test_m0_errors():
    with pytest.raises(ValidationError):
        build_m0(np.zeros(3), 2)
    with pytest.raises(ValidationError):
        build_m0(np.array([1.0, -0.1]), 2)
    with pytest.raises(ValidationError):
        build_m0(np.array([1.0]), 0)


def test_mp_trace_identity_random():
    rng = np.random.default_rng(9)
    for _ in range(60):
        x_s, y_s, x_t, p = random_instance(rng)
        a = rng.standard_normal((x_s.shape[0], 2))
        mp = build_mp(build_center_operators(y_s, p))
        got = trace_loss(mp, np.hstack([x_s, x_t]), a)
        want = oracle_center_gap(x_s, y_s, x_t, p, a)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_mp_hard_labels_measures_distance_to_own_center():
    rng = np.random.default_rng(10)
    x_s, y_s, x_t, _ = random_instance(rng)
    c_s = y_s.shape[1]
    t_labels = rng.integers(0, c_s, x_t.shape[1])
    p = np.zeros((c_s, x_t.shape[1]))
    p[t_labels, np.arange(x_t.shape[1])] = 1.0
    mp = build_mp(build_center_operators(y_s, p))
    got = trace_loss(mp, np.hstack([x_s, x_t]), np.eye(x_s.shape[0]))
    means = np.column_stack([x_s[:, y_s[:, c] == 1].mean(axis=1) for c in range(c_s)])
    want = sum(
        float(np.sum((x_t[:, i] - means[:, t_labels[i]]) ** 2))
        for i in range(x_t.shape[1])
    )
    assert got == pytest.approx(want, rel=1e-10)


def test_mp_zero_reconstruction_reduces_to_target_norm():
    rng = np.random.default_rng(11)
    x_s = rng.standard_normal((4, 3))
    x_t = rng.standard_normal((4, 2))
    mp = build_mp(np.zeros((3, 2)))
    assert np.allclose(mp[:3, :3], 0.0)
    assert np.allclose(mp[3:, 3:], np.eye(2))
    got = trace_loss(mp, np.hstack([x_s, x_t]), np.eye(4))
    assert got == pytest.approx(float(np.sum(x_t ** 2)), rel=1e-12)


def test_center_operators_uniform_soft_labels():
    # two source samples, one per class; uniform P averages both indicators
    y_s = np.eye(2)
    p = np.full((2, 3), 0.5)
    y_st = build_center_operators(y_s, p)
    assert np.allclose(y_st, np.full((2, 3), 0.5), atol=1e-15)


def test_center_operators_hard_labels_give_class_mean_rows():
    rng = np.random.default_rng(12)
    x_s, y_s, x_t, _ = random_instance(rng)
    c_s = y_s.shape[1]
    counts = y_s.sum(axis=0)
    t_labels = rng.integers(0, c_s, x_t.shape[1])
    p = np.zeros((c_s, x_t.shape[1]))
    p[t_labels, np.arange(x_t.shape[1])] = 1.0
    y_st = build_center_operators(y_s, p)
    for j in range(x_t.shape[1]):
        col = y_st[:, j]
        members = y_s[:, t_labels[j]] == 1
        assert np.allclose(col[members], 1.0 / counts[t_labels[j]], atol=1e-12)
        assert np.allclose(col[~members], 0.0, atol=1e-12)


def test_mc_trace_identity_random():
    rng = np.random.default_rng(13)
    for _ in range(60):
        x_s, y_s, x_t, p = random_instance(rng)
        a = rng.standard_normal((x_s.shape[0], 2))
        mc = build_mc(y_s, p)
        got = trace_loss(mc, np.hstack([x_s, x_t]), a)
        want = oracle_cluster_gap(x_s, y_s, x_t, p, a)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_mc_single_class_frozen_value():
    # one class, sources at 0 and 2, target exactly at the class mean:
    # the pooled mean is 1 and only the sources contribute (0-1)^2 + (2-1)^2 = 2
    x = np.array([[0.0, 2.0, 1.0]])
    y_s = np.ones((2, 1))
    p = np.ones((1, 1))
    mc = build_mc(y_s, p)
    got = trace_loss(mc, x, np.eye(1))
    assert got == pytest.approx(2.0, rel=1e-12)


def test_mc_hard_labels_residual_is_centered_sample():
    rng = np.random.default_rng(14)
    x_s, y_s, x_t, _ = random_instance(rng)
    c_s = y_s.shape[1]
    t_labels = rng.integers(0, c_s, x_t.shape[1])
    p = np.zeros((c_s, x_t.shape[1]))
    p[t_labels, np.arange(x_t.shape[1])] = 1.0
    x = np.hstack([x_s, x_t])
    all_labels = np.concatenate([np.argmax(y_s, axis=1), t_labels])
    y = np.vstack([y_s, p.T])
    residual = x - x @ (y @ np.linalg.solve(y.T @ y, y.T))
    for i in range(x.shape[1]):
        pooled_mean = x[:, all_labels == all_labels[i]].mean(axis=1)
        assert np.allclose(residual[:, i], x[:, i] - pooled_mean, atol=1e-12)
    mc = build_mc(y_s, p)
    got = trace_loss(mc, x, np.eye(x.shape[0]))
    assert got == pytest.approx(float(np.sum(residual ** 2)), rel=1e-10)


def test_mc_positive_semidefinite():
    rng = np.random.default_rng(15)
    for _ in range(20):
        _, y_s, _, p = random_instance(rng)
        mc = build_mc(y_s, p)
        assert np.array_equal(mc, mc.T)
        eigs = np.linalg.eigvalsh(mc)
        assert eigs.min() >= -1e-8


def test_combine_matches_scalar_sum():
    rng = np.random.default_rng(16)
    x_s, y_s, x_t, p = random_instance(rng)
    omega = rng.random(x_s.shape[1]) + 0.1
    m0 = build_m0(omega, x_t.shape[1])
    mp = build_mp(build_center_operators(y_s, p))
    mc = build_mc(y_s, p)
    alpha_p, alpha_c = 0.7, 2.5
    m_all = combine(m0, mp, mc, alpha_p, alpha_c)
    n = m0.shape[0]
    for i in range(n):
        for j in range(n):
            want = m0[i, j] + alpha_p * mp[i, j] + alpha_c * mc[i, j]
            assert m_all[i, j] == pytest.approx(want, abs=1e-14)
    assert np.array_equal(m_all, m_all.T)


def test_combine_shape_mismatch():
    with pytest.raises(ValidationError, match="shape"):
        combine(np.eye(3), np.eye(4), np.eye(3), 1.0, 1.0)
    # the oracle takes its weights as plain floats, so it checks them itself;
    # NaN passes ``< 0`` and would make every entry NaN without an error
    for alpha_p, alpha_c in ((-1.0, 1.0), (np.nan, 1.0), (1.0, np.inf)):
        with pytest.raises(ValidationError, match="alpha"):
            combine(np.eye(3), np.eye(3), np.eye(3), alpha_p, alpha_c)


def test_combine_trace_identity_against_sum_of_oracles():
    rng = np.random.default_rng(17)
    for _ in range(20):
        x_s, y_s, x_t, p = random_instance(rng)
        omega = rng.random(x_s.shape[1]) + 0.1
        a = rng.standard_normal((x_s.shape[0], 2))
        alpha_p, alpha_c = float(rng.uniform(0, 3)), float(rng.uniform(0, 3))
        m_all = combine(
            build_m0(omega, x_t.shape[1]),
            build_mp(build_center_operators(y_s, p)),
            build_mc(y_s, p),
            alpha_p,
            alpha_c,
        )
        got = trace_loss(m_all, np.hstack([x_s, x_t]), a)
        want = (
            oracle_mean_gap(x_s, x_t, omega, a)
            + alpha_p * oracle_center_gap(x_s, y_s, x_t, p, a)
            + alpha_c * oracle_cluster_gap(x_s, y_s, x_t, p, a)
        )
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_scatter_factors_match_dense_oracle():
    # The factored scatter replaces Z @ combine(M0, Mp, Mc) @ Z.T in the solver.
    rng = np.random.default_rng(18)
    ridged = 0
    for i in range(120):
        x_s, y_s, x_t, p = random_instance(rng)
        if i % 3 == 0:
            p[int(rng.integers(p.shape[0])), :] = 0.0  # a class at zero soft mass
            p[:, p.sum(axis=0) == 0] = 1.0 / p.shape[0]
            ridged += bool((p.sum(axis=1) < 1e-8).any())
        w = rng.random(y_s.shape[1]) + 0.1
        alpha_p, alpha_c = float(rng.uniform(0, 3)), float(rng.uniform(0, 3))
        if i % 5 == 1:
            alpha_p = 0.0
        if i % 5 == 2:
            alpha_c = 0.0
        x = np.hstack([x_s, x_t])
        z = x if i % 2 else x.T @ x  # the (d, n) features, then an (n, n) data matrix
        m_all = combine(
            build_m0(y_s @ w, x_t.shape[1]),
            build_mp(build_center_operators(y_s, p)),
            build_mc(y_s, p),
            alpha_p,
            alpha_c,
        )
        want = z @ m_all @ z.T
        got = factored_scatter(z, x_s.shape[1], w, y_s, p, alpha_p, alpha_c)
        assert got.shape == (z.shape[0], z.shape[0])
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert ridged >= 30


def test_solve_projection_validation():
    # solve_projection checks the round's inputs once, before the factors;
    # the source labels were checked once per run, by gram_matrix
    rng = np.random.default_rng(19)
    x_s, y_s, x_t, p = random_instance(rng)
    data = gram_matrix(x_s, y_s, x_t, AdaptationConfig(k=1))
    c = y_s.shape[1]
    w = np.ones(c)
    for bad_p in (p[:, 1:], p[1:], p[None]):
        with pytest.raises(ValidationError, match="^inconsistent shapes"):
            solve_projection(data, w, bad_p)
    # the one weight check of propagate_labels, naming the weights
    with pytest.raises(ValidationError, match="^weights are all 0: no source sample carries"):
        solve_projection(data, np.zeros(c), p)
    with pytest.raises(ValidationError, match="^weights must be non-negative$"):
        solve_projection(data, -w, p)
    with pytest.raises(ValidationError, match=rf"^weights has shape \({c - 1},\), expected"):
        solve_projection(data, w[1:], p)
    # NaN passes ``< 0`` and would make every entry NaN without an error
    for bad in (np.nan, np.inf):
        bad_w, bad_p = w.copy(), p.copy()
        bad_w[0], bad_p[0, 0] = bad, bad
        with pytest.raises(ValidationError, match="^weights contains NaN or Inf entries$"):
            solve_projection(data, bad_w, p)
        with pytest.raises(ValidationError, match="^the soft labels must be finite$"):
            solve_projection(data, w, bad_p)


@pytest.mark.parametrize("entry", [1e155, 1e308, -0.5, 1.0 + 2e-6, -2e-6])
def test_solve_projection_refuses_soft_labels_that_are_not_probabilities(entry):
    # before any product, so a huge entry cannot overflow P P.T into a
    # RuntimeWarning (an error in this suite) and a negative one returns no
    # eigenvalues; the loop's labels stray from [0, 1] by rounding only
    rng = np.random.default_rng(19)
    x_s, y_s, x_t, p = random_instance(rng)
    data = gram_matrix(x_s, y_s, x_t, AdaptationConfig(k=1))
    w = np.ones(y_s.shape[1])
    bad_p = np.zeros_like(p)
    bad_p[0] = 1.0
    bad_p[:, 1] = 0.0
    bad_p[0, 1] = entry
    with pytest.raises(ValidationError, match="^the soft labels must be probabilities"):
        solve_projection(data, w, bad_p)
    for ok in (1.0 + 5e-7, -5e-7):
        bad_p[0, 1] = ok
        assert solve_projection(data, w, bad_p).a.shape == (x_s.shape[0], 1)


def _long_double_solve(a, b):
    """``a^-1 b`` by Gauss-Jordan elimination with partial pivoting, in long double."""
    n = a.shape[0]
    aug = np.hstack([a, b]).astype(np.longdouble)
    for i in range(n):
        pivot = i + int(np.argmax(np.abs(aug[i:, i])))
        aug[[i, pivot]] = aug[[pivot, i]]
        aug[i] /= aug[i, i]
        for j in range(n):
            if j != i:
                aug[j] -= aug[j, i] * aug[i]
    return aug[:, n:]


def direct_scatter_long_double(z, n_s, w, y_s, p, alpha_p, alpha_c):
    """``(Z e)(Z e).T + alpha_p D D.T + alpha_c R R.T`` from the residual factors, in long double.

    ``e`` weighs each source by its class weight in ``w``,
    ``D = (Z_s Y_s)(G_s + eps_s I)^-1 P - Z_t`` and
    ``R = Z - (Z Y)(G + eps I)^-1 Y.T``, with the ridges the code takes.
    """
    soft_mass = p.sum(axis=1)
    gram_s = y_s.T @ y_s
    y = np.vstack([y_s, p.T])
    gram = y.T @ y
    eps_s, eps = (_ridge_eps(np.diag(g), soft_mass) for g in (gram_s, gram))
    omega = y_s @ w
    z, omega, y_s, p, y = (np.asarray(v, dtype=np.longdouble) for v in (z, omega, y_s, p, y))
    z_s, z_t = z[:, :n_s], z[:, n_s:]
    ze = z_s @ omega / omega.sum() - z_t.mean(axis=1)
    c = y_s.shape[1]
    d = (z_s @ y_s) @ _long_double_solve(gram_s + eps_s * np.eye(c), p) - z_t
    r = z - (z @ y) @ _long_double_solve(gram + eps * np.eye(c), y.T)
    return np.outer(ze, ze) + alpha_p * (d @ d.T) + alpha_c * (r @ r.T)


def test_scatter_factors_match_long_double_direct_form():
    # The cached part Zc Zc.T and the per-round update cancel each other
    # where the classes explain most of the spread; taken on centred data,
    # with the mean in its own columns, the sum stays within 1e-12 of the
    # direct residual form evaluated in long double, even far from the
    # origin (taken on uncentred data it loses ~5e-11 at an offset of +300).
    rng = np.random.default_rng(55)
    d, n_s, n_t, c = 48, 60, 40, 5
    ridged = 0
    for i in range(24):
        labels = np.concatenate([np.arange(c), rng.integers(0, c, n_s - c)])
        y_s = np.eye(c)[labels]
        centers = 4.0 * rng.standard_normal((d, c))
        truth = rng.integers(0, c, n_t)
        x_s = centers[:, labels] + rng.standard_normal((d, n_s))
        x_t = centers[:, truth] + rng.standard_normal((d, n_t))
        p = np.eye(c)[truth].T * 0.9 + 0.1 * rng.random((c, n_t))
        p /= p.sum(axis=0)
        if i % 3 == 1:  # masked classes: rows zeroed, columns no longer sum to 1
            p, _ = apply_mask(p, np.array([1.0, 0.0, 1.0, 0.0, 1.0]))
        if i % 3 == 2:  # a class at zero soft mass, columns renormalized
            p[0] = 0.0
            p /= p.sum(axis=0)
        ridged += bool((p.sum(axis=1) < 1e-8).any())
        w = rng.random(c) + 0.1
        alpha_p, alpha_c = [(1.0, 1.0), (0.0, 1.3), (0.7, 0.0), (2.5, 0.4)][i % 4]
        for offset in (0.0, 300.0, 3000.0):
            z = np.hstack([x_s, x_t]) + offset
            want = direct_scatter_long_double(z, n_s, w, y_s, p, alpha_p, alpha_c)
            got = factored_scatter(z, n_s, w, y_s, p, alpha_p, alpha_c)
            err = np.linalg.norm((got - want).astype(float)) / np.linalg.norm(want.astype(float))
            assert err <= 1e-12, (i, offset, err)
    assert ridged >= 16


def test_class_weights_are_normalized_row_sums():
    # the soft labels' row sums over their total
    p = np.array([[0.9, 0.6], [0.1, 0.4]])
    w = _class_weights(p, 0.0)
    assert w == pytest.approx([0.75, 0.25])
    assert w.sum() == pytest.approx(1.0)


def test_class_weights_threshold_and_mask_idempotence():
    # class proportions 0.8, 0.1999 and 0.0001; only the last is at or below delta
    p = np.array([[0.8, 0.8], [0.1999, 0.1999], [0.0001, 0.0001]])
    out = _class_weights(p, 1e-3)
    assert np.array_equal(out > 0, [True, True, False])
    assert out == pytest.approx([0.8, 0.1999, 0.0])
    # masking twice changes nothing, and the masked labels keep the same classes
    masked, _ = apply_mask(p, out)
    assert np.array_equal(apply_mask(masked, out)[0], masked)
    assert np.array_equal(_class_weights(masked, 1e-3) > 0, out > 0)


def test_class_weights_delta_zero_keeps_strictly_positive():
    out = _class_weights(np.array([[0.5, 0.5], [0.0, 0.0], [0.5, 0.5]]), 0.0)
    assert np.array_equal(out > 0, [True, False, True])


def test_class_weights_all_masked_is_configuration_error():
    with pytest.raises(ConfigurationError, match=r"^no class survives threshold delta=0\.9 "):
        _class_weights(np.array([[0.4], [0.6]]), 0.9)
    # reached from the loop: no class holds half of the default benchmark's targets
    spec = SyntheticSpec()
    data = generate_synthetic(spec)
    with pytest.raises(ConfigurationError, match=r"^no class survives threshold delta=0\.5 "):
        adapt(data.x_s, make_one_hot(data.y_s, spec.num_source_classes), data.x_t,
              AdaptationConfig(k=5, delta=0.5))


def test_apply_mask_zeroes_rows_without_renormalizing():
    p = np.array([[0.6, 0.2], [0.3, 0.3], [0.1, 0.5]])
    masked, fallbacks = apply_mask(p, np.array([0.5, 0.5, 0.0]))
    assert fallbacks == 0
    assert np.array_equal(masked, [[0.6, 0.2], [0.3, 0.3], [0.0, 0.0]])
    with pytest.raises(ValidationError, match="does not match 2 classes"):
        apply_mask(p, np.array([0.5, 0.5]))


def test_apply_mask_uniform_fallback_column():
    p = np.array([[0.0], [0.0], [1.0]])
    masked, fallbacks = apply_mask(p, np.array([0.5, 0.5, 0.0]))
    assert fallbacks == 1
    assert np.allclose(masked[:, 0], [0.5, 0.5, 0.0])
    # with every class masked there is no class to fall back to
    with pytest.raises(ConfigurationError, match="no class survives the mask"):
        apply_mask(p, np.zeros(3))


@st.composite
def masking_cases(draw):
    """Soft labels, a delta (possibly a class's exact proportion), points on a circle."""
    c = draw(st.integers(2, 5))
    degrees = st.floats(0.0, 360.0)
    source_deg = draw(st.lists(degrees, min_size=c, max_size=8))
    target_deg = draw(st.lists(degrees, min_size=1, max_size=4))
    mass = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    p = np.array(draw(st.lists(st.lists(mass, min_size=len(target_deg),
                                        max_size=len(target_deg)), min_size=c, max_size=c)))
    p[draw(st.integers(0, c - 1)), 0] = draw(st.floats(0.0, 1.0, exclude_min=True))
    proportions = p.sum(axis=1) / p.sum()
    delta = draw(st.one_of(st.sampled_from([0.0, 1e-3, 0.05, 0.3]),
                           st.sampled_from(list(proportions))))
    sigma = draw(st.sampled_from([0.02, 0.1, 0.5]))
    return p, delta, source_deg, target_deg, sigma


@given(masking_cases())
# one target sees only the class-0 source at this sigma; class 0 is masked,
# so the reweighting empties its row and the fallback must keep class 0 at 0
@example((np.array([[0.0], [1.0]]), 1e-3, [170.0, 0.0], [175.0], 0.02))
def test_masking_invariants(case):
    p, delta, source_deg, target_deg, sigma = case
    proportions = p.sum(axis=1) / p.sum()
    if not (proportions > delta).any():
        with pytest.raises(ConfigurationError, match="no class survives threshold"):
            _class_weights(p, delta)
        return
    out = _class_weights(p, delta)
    assert np.array_equal(out > 0, proportions > delta)
    assert np.array_equal(out[out > 0], proportions[out > 0])
    masked_rows = out == 0

    masked, _ = apply_mask(p, out)
    assert np.all(masked[masked_rows] == 0.0)
    alive = p[~masked_rows].sum(axis=0) > 0  # other columns fall back to uniform
    assert np.array_equal(masked[~masked_rows][:, alive], p[~masked_rows][:, alive])
    assert np.array_equal(apply_mask(masked, out)[0], masked)

    def on_circle(deg):
        rad = np.deg2rad(deg)
        return np.vstack([np.cos(rad), np.sin(rad)])

    y = np.eye(out.size)[np.arange(len(source_deg)) % out.size]
    try:
        soft, _ = propagate_labels(on_circle(source_deg), on_circle(target_deg), sigma, y, out)
    except NumericalError:  # every target cut off from the surviving sources
        reject()
    assert np.all(soft[masked_rows] == 0.0)


def weighted_outcome(x_s, y_s, x_t, p, w, data, sigma):
    """Bits of ``solve_projection`` and of the graph it embeds, or the error text."""
    proj = solve_projection(data, w, p)
    try:
        soft, fallbacks = propagate_labels(proj.a.T @ x_s, proj.a.T @ x_t, sigma, y_s, w)
    except NumericalError as exc:
        soft, fallbacks = str(exc), None
    soft = soft if isinstance(soft, str) else soft.tobytes()
    return proj.a.tobytes(), proj.eigenvalues.tobytes(), proj.objective, soft, fallbacks


@given(st.integers(0, 2**16), st.integers(-60, 60))
@example(0, 60)
@example(0, -60)
def test_class_weights_count_only_relative_to_each_other(seed, s):
    # both stages read the class weights only as ratios: scaled by 2**s
    # they give the projection, eigenvalues, objective, soft labels and
    # fallback count of the unscaled ones, bit for bit, masked classes and all
    rng = np.random.default_rng(seed)
    x_s, y_s, x_t, p = random_instance(rng)
    c = y_s.shape[1]
    w = rng.random(c) * (rng.random(c) > 0.3)
    w[rng.integers(c)] = rng.random() + 0.01  # some class survives
    p, _ = apply_mask(p, w)
    data = gram_matrix(x_s, y_s, x_t, AdaptationConfig(k=int(rng.integers(1, x_s.shape[0] + 1))))
    sigma = float(rng.choice([0.02, 0.3, 1.0]))
    want = weighted_outcome(x_s, y_s, x_t, p, w, data, sigma)
    assert weighted_outcome(x_s, y_s, x_t, p, np.ldexp(w, s), data, sigma) == want


def test_center_operators_shape_mismatch():
    with pytest.raises(ValidationError):
        build_center_operators(np.eye(3), np.zeros((2, 4)))
    with pytest.raises(ValidationError):
        build_mc(np.eye(3), np.zeros((2, 4)))

"""Cross-domain graph construction, reweighting and label propagation.

The propagation oracle is an independent fixed-point iteration
``F <- W_ts Y_s + W_tt F`` run to convergence, never the closed-form
solve under test.
"""

import numpy as np
import pytest

from partialda import NumericalError, ValidationError
from partialda.alignment import ClassWeights
from partialda.graph import (
    CrossDomainGraph,
    build_graph,
    cosine_distances,
    propagate,
    reweight_graph,
)


def fixed_point_oracle(g, y_s, tol=1e-12, max_sweeps=100_000):
    """Iterate the harmonic update until the labels stop moving."""
    f = np.zeros((g.w_tt.shape[0], y_s.shape[1]))
    base = g.w_ts @ y_s
    for _ in range(max_sweeps):
        nxt = base + g.w_tt @ f
        if np.abs(nxt - f).max() < tol:
            return nxt.T
        f = nxt
    raise AssertionError("fixed point iteration did not converge")


def random_graph(rng):
    """Row-stochastic graph with positive source mass on every row."""
    n_s = int(rng.integers(2, 9))
    n_t = int(rng.integers(2, 9))
    w_ts = rng.random((n_t, n_s)) + 0.05
    w_tt = rng.random((n_t, n_t))
    np.fill_diagonal(w_tt, 0.0)
    totals = w_ts.sum(axis=1) + w_tt.sum(axis=1)
    return CrossDomainGraph(
        w_ts=w_ts / totals[:, None], w_tt=w_tt / totals[:, None], sigma=0.1
    )


def random_labels(rng, n_s):
    c = int(rng.integers(2, min(5, n_s) + 1))
    labels = np.concatenate([np.arange(c), rng.integers(0, c, n_s - c)])
    y = np.zeros((n_s, c))
    y[np.arange(n_s), labels] = 1.0
    return y


def test_cosine_distances_closed_forms():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    assert cosine_distances(e1, e1)[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert cosine_distances(e1, e2)[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert cosine_distances(e1, -e1)[0, 0] == pytest.approx(2.0, abs=1e-15)
    zero = np.zeros((2, 1))
    assert cosine_distances(zero, e1)[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_build_graph_gaussian_weights():
    # one target identical to source 0, orthogonal to source 1: the raw
    # affinities are exp(0) and exp(-1/sigma^2), visible after normalization
    z_s = np.array([[1.0, 0.0], [0.0, 1.0]])
    z_t = np.array([[1.0], [0.0]])
    g = build_graph(z_s, z_t, sigma=1.0)
    raw = np.array([1.0, np.exp(-1.0)])
    assert np.allclose(g.w_ts[0], raw / raw.sum(), atol=1e-14)
    assert g.w_tt.shape == (1, 1) and g.w_tt[0, 0] == 0.0


def test_build_graph_row_stochastic_and_diagonal():
    rng = np.random.default_rng(30)
    for _ in range(30):
        d = int(rng.integers(2, 6))
        z_s = rng.standard_normal((d, int(rng.integers(1, 8))))
        z_t = rng.standard_normal((d, int(rng.integers(1, 8))))
        g = build_graph(z_s, z_t, float(rng.uniform(0.05, 2.0)))
        rows = g.w_ts.sum(axis=1) + g.w_tt.sum(axis=1)
        assert np.allclose(rows, 1.0, atol=1e-12)
        assert np.all(g.w_ts >= 0) and np.all(g.w_tt >= 0)
        assert np.allclose(np.diag(g.w_tt), 0.0)


def test_build_graph_underflow_falls_back_to_uniform():
    # mutually orthogonal vectors at tiny sigma: every affinity underflows
    z_s = np.array([[1.0], [0.0], [0.0]])
    z_t = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    g = build_graph(z_s, z_t, sigma=1e-3)
    assert np.allclose(g.w_ts, 0.5)
    assert np.allclose(g.w_tt, [[0.0, 0.5], [0.5, 0.0]])
    rows = g.w_ts.sum(axis=1) + g.w_tt.sum(axis=1)
    assert np.allclose(rows, 1.0, atol=1e-12)


def test_build_graph_validation():
    ok = np.ones((2, 3))
    with pytest.raises(ValidationError, match="sigma"):
        build_graph(ok, ok, 0.0)
    with pytest.raises(ValidationError, match="sigma"):
        build_graph(ok, ok, -1.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="sigma"):
            build_graph(ok, ok, bad)
    with pytest.raises(ValidationError, match="dimension"):
        build_graph(ok, np.ones((3, 2)), 0.5)
    with pytest.raises(ValidationError, match="at least one"):
        build_graph(ok, np.ones((2, 0)), 0.5)


def test_propagate_single_target_no_coupling():
    g = CrossDomainGraph(
        w_ts=np.array([[0.7, 0.3]]), w_tt=np.array([[0.0]]), sigma=0.1
    )
    p = propagate(g, np.eye(2))
    assert np.allclose(p[:, 0], [0.7, 0.3], atol=1e-15)


def test_propagate_two_target_coupling():
    # two targets leaning on each other: solving the harmonic system pulls
    # each one a third of the way toward the other's class
    g = CrossDomainGraph(
        w_ts=np.array([[0.5, 0.0], [0.0, 0.5]]),
        w_tt=np.array([[0.0, 0.5], [0.5, 0.0]]),
        sigma=0.1,
    )
    p = propagate(g, np.eye(2))
    oracle = fixed_point_oracle(g, np.eye(2))
    assert np.allclose(p, oracle, atol=1e-10)
    assert np.allclose(p[:, 0], [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    assert np.allclose(p[:, 1], [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)


def test_propagate_matches_fixed_point_on_random_graphs():
    rng = np.random.default_rng(31)
    for _ in range(50):
        g = random_graph(rng)
        y = random_labels(rng, g.w_ts.shape[1])
        p = propagate(g, y)
        oracle = fixed_point_oracle(g, y)
        assert np.abs(p - oracle).max() <= 1e-8
        assert np.allclose(p.sum(axis=0), 1.0, atol=1e-9)


def test_propagate_permutation_equivariance():
    # permuting source samples together with their labels must not change
    # the result (only summation order differs, hence the 1e-15 slack)
    rng = np.random.default_rng(32)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        n_s = int(rng.integers(2, 9))
        z_s = rng.standard_normal((d, n_s))
        z_t = rng.standard_normal((d, int(rng.integers(2, 7))))
        y = random_labels(rng, n_s)
        perm = rng.permutation(n_s)
        p1 = propagate(build_graph(z_s, z_t, 0.5), y)
        p2 = propagate(build_graph(z_s[:, perm], z_t, 0.5), y[perm])
        assert np.abs(p1 - p2).max() <= 1e-15


def test_propagate_singular_system():
    # both targets lean only on each other: (I - W_tt) loses rank
    g = CrossDomainGraph(
        w_ts=np.zeros((2, 2)),
        w_tt=np.array([[0.0, 1.0], [1.0, 0.0]]),
        sigma=0.1,
    )
    with pytest.raises(NumericalError, match="singular"):
        propagate(g, np.eye(2))


def test_propagate_shape_mismatch():
    g = CrossDomainGraph(
        w_ts=np.array([[0.7, 0.3]]), w_tt=np.array([[0.0]]), sigma=0.1
    )
    with pytest.raises(ValidationError, match="rows"):
        propagate(g, np.eye(3))


def test_reweight_hand_example():
    # weights [0.8, 0.2] over one sample each: (0.5*1.0, 0.5*0.25) / 0.625
    g = CrossDomainGraph(
        w_ts=np.array([[0.5, 0.5]]), w_tt=np.array([[0.0]]), sigma=0.1
    )
    w = ClassWeights(weights=np.array([0.8, 0.2]), mask=np.array([1.0, 1.0]))
    g2, n_dead = reweight_graph(g, w, np.array([0, 1]))
    assert n_dead == 0
    assert np.allclose(g2.w_ts[0], [0.8, 0.2], atol=1e-15)


def test_reweight_uniform_weights_is_identity():
    rng = np.random.default_rng(33)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        n_s = int(rng.integers(2, 9))
        z_s = rng.standard_normal((d, n_s))
        z_t = rng.standard_normal((d, int(rng.integers(2, 7))))
        y = random_labels(rng, n_s)
        c = y.shape[1]
        g = build_graph(z_s, z_t, 0.5)
        w = ClassWeights(weights=np.full(c, 1.0 / c), mask=np.ones(c))
        g2, n_dead = reweight_graph(g, w, np.argmax(y, axis=1))
        assert n_dead == 0
        p1 = propagate(g, y)
        p2 = propagate(g2, y)
        assert np.abs(p1 - p2).max() <= 1e-12


def test_reweight_masked_class_columns_become_zero():
    rng = np.random.default_rng(34)
    z_s = rng.standard_normal((3, 6))
    z_t = rng.standard_normal((3, 4))
    classes = np.array([0, 1, 2, 0, 1, 2])
    g = build_graph(z_s, z_t, 0.5)
    w = ClassWeights(
        weights=np.array([0.8, 0.0, 0.2]), mask=np.array([1.0, 0.0, 1.0])
    )
    g2, n_dead = reweight_graph(g, w, classes)
    assert n_dead == 0
    dead_cols = classes == 1
    assert np.all(g2.w_ts[:, dead_cols] == 0.0)
    assert np.all(g2.w_ts[:, ~dead_cols] > 0.0)
    rows = g2.w_ts.sum(axis=1) + g2.w_tt.sum(axis=1)
    assert np.allclose(rows, 1.0, atol=1e-12)


def test_reweight_dead_row_fallbacks():
    # every class masked: the single-target graph falls back to uniform
    # source affinities, the multi-target graph to uniform target affinities
    all_masked = ClassWeights(
        weights=np.array([0.5, 0.5]), mask=np.array([0.0, 0.0])
    )
    single = CrossDomainGraph(
        w_ts=np.array([[0.6, 0.4]]), w_tt=np.array([[0.0]]), sigma=0.1
    )
    g2, n_dead = reweight_graph(single, all_masked, np.array([0, 1]))
    assert n_dead == 1
    assert np.allclose(g2.w_ts, [[0.5, 0.5]])

    multi = CrossDomainGraph(
        w_ts=np.array([[0.6, 0.4], [0.3, 0.7]]),
        w_tt=np.zeros((2, 2)),
        sigma=0.1,
    )
    g3, n_dead = reweight_graph(multi, all_masked, np.array([0, 1]))
    assert n_dead == 2
    assert np.all(g3.w_ts == 0.0)
    assert np.allclose(g3.w_tt, [[0.0, 1.0], [1.0, 0.0]])


def test_reweight_validation():
    g = CrossDomainGraph(
        w_ts=np.array([[0.5, 0.5]]), w_tt=np.array([[0.0]]), sigma=0.1
    )
    w = ClassWeights(weights=np.array([0.8, 0.2]), mask=np.array([1.0, 1.0]))
    with pytest.raises(ValidationError, match="length"):
        reweight_graph(g, w, np.array([0]))
    with pytest.raises(ValidationError, match="class ids"):
        reweight_graph(g, w, np.array([0, 5]))


# The graph layer writes into buffers it owns.  These oracles are the
# textbook expressions it replaced, one fresh array per step; the fast
# path must reproduce them bit for bit, not merely to a tolerance.


def textbook_cosine(a, b):
    na = np.linalg.norm(a, axis=0)
    nb = np.linalg.norm(b, axis=0)
    ua = a / np.where(na > 0, na, 1.0)
    ub = b / np.where(nb > 0, nb, 1.0)
    return 1.0 - ua.T @ ub


def textbook_normalize(w_ts, w_tt):
    totals = w_ts.sum(axis=1) + w_tt.sum(axis=1)
    dead = totals == 0.0
    safe = np.where(dead, 1.0, totals)
    return w_ts / safe[:, None], w_tt / safe[:, None], dead


def textbook_graph(z_s, z_t, sigma):
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


def textbook_reweight(g, w, source_classes):
    factors = w.masked[source_classes]
    if factors.max() > 0:
        factors = factors / factors.max()
    w_ts, w_tt, dead = textbook_normalize(g.w_ts * factors[None, :], g.w_tt.copy())
    if dead.any():
        if g.w_tt.shape[0] > 1:
            w_tt[dead] = 1.0
            np.fill_diagonal(w_tt, 0.0)
        else:
            w_ts[dead] = 1.0
        w_ts, w_tt, _ = textbook_normalize(w_ts, w_tt)
    return w_ts, w_tt


def textbook_propagate(g, y_s):
    n_t = g.w_tt.shape[0]
    return np.linalg.solve(np.eye(n_t) - g.w_tt, g.w_ts @ y_s).T


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def graph_cases(rng):
    """Random embeddings plus the underflow paths: all rows dead, some rows dead."""
    for _ in range(40):
        d = int(rng.integers(2, 6))
        z_s = rng.standard_normal((d, int(rng.integers(1, 9))))
        z_t = rng.standard_normal((d, int(rng.integers(1, 9))))
        yield z_s, z_t, float(rng.uniform(0.05, 2.0))
    e = np.eye(4)
    yield e[:, :1], e[:, 1:3], 1e-3  # every affinity underflows
    yield e[:, :1], np.column_stack([e[:, 0], e[:, 1], e[:, 2]]), 1e-3  # one live row
    yield np.column_stack([e[:, 0], np.zeros(4)]), e[:, :2], 0.3  # a zero column


def test_build_graph_bit_identical_to_textbook():
    rng = np.random.default_rng(35)
    for z_s, z_t, sigma in graph_cases(rng):
        assert same_bits(cosine_distances(z_t, z_s), textbook_cosine(z_t, z_s))
        g = build_graph(z_s, z_t, sigma)
        w_ts, w_tt = textbook_graph(z_s, z_t, sigma)
        assert same_bits(g.w_ts, w_ts) and same_bits(g.w_tt, w_tt)


def test_reweight_and_propagate_bit_identical_to_textbook():
    rng = np.random.default_rng(36)
    for z_s, z_t, sigma in graph_cases(rng):
        n_s = z_s.shape[1]
        c = int(rng.integers(1, min(4, n_s) + 1))
        classes = np.concatenate([np.arange(c), rng.integers(0, c, n_s - c)])
        y = np.zeros((n_s, c))
        y[np.arange(n_s), classes] = 1.0
        mask = (rng.random(c) > 0.3).astype(float)
        for w in (
            ClassWeights(weights=rng.random(c), mask=mask),
            ClassWeights(weights=rng.random(c), mask=np.zeros(c)),  # dead rows
        ):
            g = build_graph(z_s, z_t, sigma)
            g2, _ = reweight_graph(g, w, classes)
            w_ts, w_tt = textbook_reweight(g, w, classes)
            assert same_bits(g2.w_ts, w_ts) and same_bits(g2.w_tt, w_tt)
            for graph in (g, g2):
                try:
                    want = textbook_propagate(graph, y)
                except np.linalg.LinAlgError:
                    want = None
                if want is None or not np.isfinite(want).all():
                    with pytest.raises(NumericalError):
                        propagate(graph, y)
                else:
                    assert same_bits(propagate(graph, y), want)


def test_propagate_bit_identical_on_random_and_sparse_graphs():
    rng = np.random.default_rng(37)
    for _ in range(50):
        g = random_graph(rng)
        if rng.random() < 0.5:  # exact zeros in W_tt, as underflow leaves them
            w_tt = g.w_tt * (rng.random(g.w_tt.shape) > 0.5)
            g = CrossDomainGraph(w_ts=g.w_ts, w_tt=w_tt, sigma=g.sigma)
        y = random_labels(rng, g.w_ts.shape[1])
        assert same_bits(propagate(g, y), textbook_propagate(g, y))


def test_reweight_and_propagate_leave_their_graph_unchanged():
    rng = np.random.default_rng(38)
    z_s = rng.standard_normal((3, 6))
    z_t = rng.standard_normal((3, 4))
    x_before = (z_s.tobytes(), z_t.tobytes())
    g = build_graph(z_s, z_t, 0.5)
    assert (z_s.tobytes(), z_t.tobytes()) == x_before
    classes = np.array([0, 1, 2, 0, 1, 2])
    before = (g.w_ts.copy(), g.w_tt.copy())
    for mask in (np.array([1.0, 0.0, 1.0]), np.zeros(3)):
        reweight_graph(g, ClassWeights(weights=np.array([0.8, 0.1, 0.2]), mask=mask), classes)
        assert same_bits(g.w_ts, before[0]) and same_bits(g.w_tt, before[1])
    propagate(g, np.eye(3)[classes])
    assert same_bits(g.w_ts, before[0]) and same_bits(g.w_tt, before[1])
    single = CrossDomainGraph(w_ts=np.array([[0.6, 0.4]]), w_tt=np.array([[0.0]]), sigma=0.1)
    kept = single.w_ts.copy()
    reweight_graph(single, ClassWeights(weights=np.ones(2), mask=np.zeros(2)), np.array([0, 1]))
    assert same_bits(single.w_ts, kept)

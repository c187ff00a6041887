"""End-to-end behavior of the adaptation loop and the propagation baseline."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from partialda import (
    AdaptationConfig,
    ConfigurationError,
    NumericalError,
    SyntheticSpec,
    ValidationError,
    accuracy,
    adapt,
    baseline_propagate,
    generate_synthetic,
    make_one_hot,
)
import partialda.pipeline
from partialda.graph import propagate_labels
from partialda.oracles import textbook_graph, textbook_propagate


def separable_instance(rng, n_classes=3, d=6, per_class=8, spread=0.05):
    """Tight clusters on orthogonal axes: trivially separable by angle."""
    centers = 10.0 * np.eye(d)[:, :n_classes]
    labels = np.repeat(np.arange(n_classes), per_class)
    x = centers[:, labels] + spread * rng.standard_normal((d, labels.size))
    y = np.zeros((labels.size, n_classes))
    y[np.arange(labels.size), labels] = 1.0
    return x, y, labels


def test_identical_domains_are_classified_perfectly():
    rng = np.random.default_rng(40)
    x, y, labels = separable_instance(rng)
    result = adapt(x, y, x.copy(), AdaptationConfig(k=3))
    overall, per_class = accuracy(result.hard_labels, labels)
    assert overall == 1.0
    assert all(v == 1.0 for v in per_class.values())
    assert result.iterations_run == len(result.history)
    assert result.iterations_run <= 10
    assert result.history[-1].label_change_fraction == 0.0
    for record in result.history:
        assert 0.0 <= record.label_change_fraction <= 1.0
        assert record.surviving_classes >= 1
        assert np.isfinite(record.objective)


def test_soft_labels_are_column_stochastic():
    rng = np.random.default_rng(41)
    x, y, _ = separable_instance(rng)
    x_t = x + 0.1 * rng.standard_normal(x.shape)
    result = adapt(x, y, x_t, AdaptationConfig(k=3, max_iterations=3))
    assert np.allclose(result.soft_labels.sum(axis=0), 1.0, atol=1e-9)
    assert result.soft_labels.shape == (y.shape[1], x_t.shape[1])
    assert result.hard_labels.shape == (x_t.shape[1],)


def test_single_iteration_budget():
    rng = np.random.default_rng(42)
    x, y, _ = separable_instance(rng)
    result = adapt(x, y, x.copy(), AdaptationConfig(k=2, max_iterations=1))
    assert result.iterations_run == 1
    assert len(result.history) == 1
    assert result.projection is not None


def test_label_change_fraction_counts():
    # each round's fraction is the share of targets whose hard label differs
    # from the round before; before round 1 they are the baseline's, which
    # reproduces the loop's initialization
    rng = np.random.default_rng(44)
    x, y, _ = separable_instance(rng)
    x_t = x + 5.0 * rng.standard_normal(x.shape)
    cfg = AdaptationConfig(k=3, max_iterations=3)
    labels = [baseline_propagate(x, y, x_t, cfg.sigma).hard_labels]
    labels += [adapt(x, y, x_t, replace(cfg, max_iterations=i)).hard_labels for i in (1, 2, 3)]
    want = [np.mean(a != b) for a, b in zip(labels, labels[1:])]
    assert [r.label_change_fraction for r in adapt(x, y, x_t, cfg).history] == want
    assert min(want) > 0.0  # every round changed some label


def test_errors_carry_the_iteration_index():
    # constant features survive initialization but leave no variance for
    # the projection step, which fails inside round one
    x_s = np.ones((3, 4))
    y_s = np.zeros((4, 2))
    y_s[[0, 2], 0] = 1.0
    y_s[[1, 3], 1] = 1.0
    with pytest.raises(NumericalError, match="^iteration 1:"):
        adapt(x_s, y_s, np.ones((3, 2)), AdaptationConfig(k=2))


def test_adapt_is_deterministic():
    rng = np.random.default_rng(43)
    x, y, _ = separable_instance(rng)
    x_t = x + 0.2 * rng.standard_normal(x.shape)
    cfg = AdaptationConfig(k=3, max_iterations=4)
    r1 = adapt(x, y, x_t, cfg)
    r2 = adapt(x, y, x_t, cfg)
    assert np.array_equal(r1.soft_labels, r2.soft_labels)
    assert np.array_equal(r1.hard_labels, r2.hard_labels)
    assert np.array_equal(r1.projection.a, r2.projection.a)
    assert np.array_equal(r1.projection.eigenvalues, r2.projection.eigenvalues)
    assert np.array_equal(r1.class_weights, r2.class_weights)
    assert r1.history == r2.history


def test_baseline_matches_direct_propagation():
    rng = np.random.default_rng(44)
    x, y, labels = separable_instance(rng)
    x_t = x + 0.1 * rng.standard_normal(x.shape)
    result = baseline_propagate(x, y, x_t, sigma=0.1)
    direct, _ = propagate_labels(x, x_t, 0.1, y)
    assert np.array_equal(result.soft_labels, direct)
    assert np.abs(direct - textbook_propagate(*textbook_graph(x, x_t, 0.1), y)).max() <= 1e-12
    assert result.projection is None
    assert result.history == []
    assert result.iterations_run == 0
    assert np.all(result.class_weights > 0)  # unthresholded: every class keeps mass
    overall, _ = accuracy(result.hard_labels, labels)
    assert overall == 1.0


SCALED_SPECS = [SyntheticSpec(),
                SyntheticSpec(num_source_classes=6, num_target_classes=3, dim=12, seed=7)]


@pytest.mark.parametrize("spec", SCALED_SPECS, ids=["default", "small"])
def test_lam_is_an_absolute_ridge(spec):
    # features scaled by 2**s and lam by 2**(2s) pose the same problem, so
    # every label, weight and objective is the same bit for bit and the
    # projection is scaled by 2**-s exactly, small scales included
    data = generate_synthetic(spec)
    y_s = make_one_hot(data.y_s, spec.num_source_classes)
    config = AdaptationConfig(k=5)
    want = adapt(data.x_s, y_s, data.x_t, config)
    for s in (-30, 30, -200):
        got = adapt(np.ldexp(data.x_s, s), y_s, np.ldexp(data.x_t, s),
                    replace(config, lam=np.ldexp(config.lam, 2 * s)))
        assert got.soft_labels.tobytes() == want.soft_labels.tobytes(), s
        assert np.array_equal(got.hard_labels, want.hard_labels)
        assert got.class_weights.tobytes() == want.class_weights.tobytes()
        assert got.history == want.history
        assert got.projection.a.tobytes() == np.ldexp(want.projection.a, -s).tobytes()
        assert got.projection.eigenvalues.tobytes() == want.projection.eigenvalues.tobytes()


def test_huge_features_are_propagated_or_refused_by_name():
    # squares overflow above about 1.3e154 and underflow below about
    # 1.5e-154: the graph rescales such columns exactly, and the projection
    # names an overflow instead of calling it "no variance"
    data = generate_synthetic(SyntheticSpec())
    y_s = make_one_hot(data.y_s, 10)
    want = baseline_propagate(data.x_s, y_s, data.x_t)
    assert accuracy(want.hard_labels, data.y_t)[0] > 0.9
    for scale in (2.0 ** 520, 2.0 ** -560):
        got = baseline_propagate(scale * data.x_s, y_s, scale * data.x_t)
        assert got.soft_labels.tobytes() == want.soft_labels.tobytes()
    with pytest.raises(NumericalError, match=r"^iteration 1: centered data overflows \(trace "):
        adapt(2.0 ** 520 * data.x_s, y_s, 2.0 ** 520 * data.x_t, AdaptationConfig(k=5))


def test_offset_and_tiny_features_are_judged_by_name():
    # a common offset of 1e153 overflows the data's sum of squares while the
    # centred data vary, so such data are accepted; centred squares that
    # underflow are named as such instead of as "no variance"
    rng = np.random.default_rng(47)
    x = 1e153 + 1e151 * rng.standard_normal((4, 200))
    y_s = make_one_hot(rng.integers(0, 3, 100), 3)
    result = adapt(x[:, :100], y_s, x[:, 100:], AdaptationConfig(k=2))
    assert np.isfinite(result.projection.a).all()
    assert np.abs(result.soft_labels.sum(axis=0) - 1.0).max() <= 1e-12
    data = generate_synthetic(SyntheticSpec())
    y_s = make_one_hot(data.y_s, 10)
    with pytest.raises(NumericalError, match=r"^iteration 1: centered data underflows "
                       r"\(trace 0\.000e\+00\); scale the features up$"):
        adapt(2.0 ** -560 * data.x_s, y_s, 2.0 ** -560 * data.x_t, AdaptationConfig(k=5))


def test_baseline_single_target_shape():
    rng = np.random.default_rng(45)
    x, y, _ = separable_instance(rng)
    result = baseline_propagate(x, y, x[:, :1], sigma=0.1)
    assert result.soft_labels.shape == (y.shape[1], 1)


def test_k_exceeding_dimension_is_rejected(monkeypatch):
    rng = np.random.default_rng(46)
    x, y, _ = separable_instance(rng)  # d = 6
    with monkeypatch.context() as patched:  # refused before the first propagation
        patched.setattr(partialda.pipeline, "propagate_labels", None)
        with pytest.raises(ConfigurationError, match="^k=7 exceeds the feature dimension 6$"):
            adapt(x, y, x.copy(), AdaptationConfig(k=7))
    # k = d is the largest subspace there is, and it runs
    result = adapt(x, y, x.copy(), AdaptationConfig(k=6, max_iterations=2))
    assert result.projection.a.shape == (6, 6)


def test_input_validation():
    rng = np.random.default_rng(47)
    x, y, _ = separable_instance(rng)
    with pytest.raises(ValidationError, match="dimensions differ"):
        adapt(x, y, np.ones((x.shape[0] + 1, 4)), AdaptationConfig(k=2))
    with pytest.raises(ValidationError):
        adapt(x, y[:-1], x.copy(), AdaptationConfig(k=2))


def test_graph_working_set_stays_below_two_target_squares():
    # numpy reports its array allocations to tracemalloc (LAPACK's scratch
    # copy of the system is not counted): reweighting in place and dropping
    # W_ts before the solve keeps the traced peak near 1.5 n_t^2 doubles,
    # where a copied W_tt and a separate I - W_tt gave 2.5 to 3.3
    data = generate_synthetic(SyntheticSpec(dim=32, samples_per_class_target=120))
    y_s = make_one_hot(data.y_s, num_classes=10)
    n_t = data.x_t.shape[1]
    assert (data.x_s.shape[1], n_t) == (300, 600)
    runs = (
        lambda: baseline_propagate(data.x_s, y_s, data.x_t),
        lambda: adapt(data.x_s, y_s, data.x_t, AdaptationConfig(k=5, max_iterations=2)),
    )
    for run in runs:
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * n_t**2


def test_subspace_working_set_stays_below_three_squares_of_the_dimension():
    # At a d-heavy shape the projection's arrays outweigh the graph.  The
    # loop keeps L^-1 and the invariant pencil base (d x d each), the
    # whitened targets (d x n_t) and O(d C) more (the whitened mean and
    # class sums), plus one d x d pencil buffer that the eigensolver works
    # in; each round adds only the (d, 3C + 3) scatter factor, a block of
    # source columns for the objective and the k-dimensional graph.  The
    # factoring holds the centred d x n copy for a moment beside L^-1 and
    # the targets, d^2 + d (n + n_t) doubles, which stays below 3 d^2 +
    # d n_t while n <= 2 d.  So the traced peak stays below 3 d^2 + d n_t
    # doubles plus the graph's 8 (n_t^2 + 256 n) bytes.  Keeping the whole
    # whitened data (d x n) read 5.74 MB here against this bound's 5.16 MB;
    # rebuilding the scatter from the stacked and whitened data each round
    # took 3 d n + 4 d^2 (R, R R.T and a copy of the pencil).
    data = generate_synthetic(SyntheticSpec(dim=384, samples_per_class_source=50,
                                            samples_per_class_target=20))
    y_s = make_one_hot(data.y_s, num_classes=10)
    d, n_s = data.x_s.shape
    n_t = data.x_t.shape[1]
    n = n_s + n_t
    assert (d, n_s, n_t) == (384, 500, 100) and n <= 2 * d
    tracemalloc.start()
    try:
        adapt(data.x_s, y_s, data.x_t, AdaptationConfig(k=5, max_iterations=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (3 * d**2 + d * n_t) + 8 * (n_t**2 + 256 * n)

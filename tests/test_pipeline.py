"""End-to-end behavior of the adaptation loop and the propagation baseline."""

import tracemalloc

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
from partialda.graph import build_graph, propagate
from partialda.pipeline import label_change_fraction


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
    assert label_change_fraction([0, 1, 2], [0, 1, 2]) == 0.0
    assert label_change_fraction([0, 1, 2], [1, 2, 0]) == 1.0
    assert label_change_fraction([0, 1, 1], [0, 1, 0]) == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValidationError, match="mismatch"):
        label_change_fraction([0, 1], [0, 1, 2])
    with pytest.raises(ValidationError, match="empty"):
        label_change_fraction([], [])


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
    assert np.array_equal(r1.class_weights.masked, r2.class_weights.masked)
    assert r1.history == r2.history


def test_baseline_matches_direct_propagation():
    rng = np.random.default_rng(44)
    x, y, labels = separable_instance(rng)
    x_t = x + 0.1 * rng.standard_normal(x.shape)
    result = baseline_propagate(x, y, x_t, sigma=0.1)
    direct = propagate(build_graph(x, x_t, 0.1), y)
    assert np.array_equal(result.soft_labels, direct)
    assert result.projection is None
    assert result.history == []
    assert result.iterations_run == 0
    assert np.all(result.class_weights.mask == 1.0)
    overall, _ = accuracy(result.hard_labels, labels)
    assert overall == 1.0


def test_baseline_single_target_shape():
    rng = np.random.default_rng(45)
    x, y, _ = separable_instance(rng)
    result = baseline_propagate(x, y, x[:, :1], sigma=0.1)
    assert result.soft_labels.shape == (y.shape[1], 1)


def test_k_exceeding_dimension_is_rejected():
    rng = np.random.default_rng(46)
    x, y, _ = separable_instance(rng)  # d = 6
    with pytest.raises(ConfigurationError, match="k=7 exceeds the feature dimension 6"):
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

import math
import tracemalloc

import numpy as np
import pytest

from partialda import (
    AdaptationConfig,
    ConfigurationError,
    SyntheticSpec,
    ValidationError,
    accuracy,
    adapt,
    generate_synthetic,
    make_one_hot,
)
from partialda.core import hard_labels


def test_make_one_hot_basic():
    y = make_one_hot([0, 2, 1, 0], 3)
    expected = np.array([
        [1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 1.0, 0.0],
        [1.0, 0.0, 0.0],
    ])
    assert np.array_equal(y, expected)


def test_make_one_hot_round_trip_property():
    rng = np.random.default_rng(0)
    for _ in range(50):
        c = int(rng.integers(1, 8))
        n = int(rng.integers(c, 40))
        labels = np.concatenate([np.arange(c), rng.integers(0, c, size=n - c)])
        rng.shuffle(labels)
        y = make_one_hot(labels, c)
        assert np.array_equal(np.argmax(y, axis=1), labels)
        assert np.array_equal(y.sum(axis=1), np.ones(n))
        assert (y.sum(axis=0) >= 1).all()


def test_make_one_hot_out_of_range():
    with pytest.raises(ValidationError, match=r"label 2 out of range"):
        make_one_hot([0, 1, 2], 2)


def test_make_one_hot_empty_class():
    with pytest.raises(ValidationError, match=r"class 1 has no samples"):
        make_one_hot([0, 0, 2], 3)
    # the first missing class is named wherever it sits: first, inside, last
    for labels, num_classes, missing in (([1, 2], 3, 0), ([0, 2, 0], 4, 1), ([1, 0], 3, 2)):
        with pytest.raises(ValidationError, match=f"^class {missing} has no samples$"):
            make_one_hot(labels, num_classes)


def test_make_one_hot_rejects_a_missing_class_before_allocating():
    # two labels naming 10**7 + 1 classes: the (2, 10**7 + 1) encoding would
    # take 160 MB, so the check must come before it
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="^class 1 has no samples$"):
            make_one_hot([0, 10**7], 10**7 + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_make_one_hot_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        make_one_hot([], 2)
    with pytest.raises(ValidationError):
        make_one_hot([0, 1], 0)
    with pytest.raises(ValidationError):
        make_one_hot([0.5, 1.0], 2)


def test_hard_labels_ties_take_lowest_index():
    p = np.array([
        [0.4, 0.5],
        [0.4, 0.2],
        [0.2, 0.3],
    ])
    assert np.array_equal(hard_labels(p), [0, 0])


def test_hard_labels_scaling_invariance():
    rng = np.random.default_rng(1)
    for _ in range(25):
        p = rng.random((int(rng.integers(2, 6)), int(rng.integers(1, 9))))
        scale = float(rng.uniform(0.1, 10.0))
        assert np.array_equal(hard_labels(p), hard_labels(scale * p))


def test_hard_labels_rejects_nan_and_empty():
    with pytest.raises(ValidationError, match="NaN"):
        hard_labels(np.array([[0.5, np.nan], [0.5, 0.5]]))
    with pytest.raises(ValidationError):
        hard_labels(np.zeros((3, 0)))


def test_accuracy_perfect_and_breakdown():
    overall, per_class = accuracy([0, 1, 1, 2], [0, 1, 2, 2])
    assert overall == 0.75
    assert per_class == {0: 1.0, 1: 1.0, 2: 0.5}
    same = np.array([3, 1, 4, 1, 5])
    overall, per_class = accuracy(same, same)
    assert overall == 1.0
    assert all(v == 1.0 for v in per_class.values())


def test_accuracy_errors():
    with pytest.raises(ValidationError, match="length mismatch"):
        accuracy([0, 1], [0, 1, 2])
    with pytest.raises(ValidationError, match="empty input"):
        accuracy([], [])


def test_config_defaults_and_validation():
    cfg = AdaptationConfig()
    assert cfg.lam == 0.1
    assert cfg.k == 100
    assert cfg.sigma == 0.1
    assert cfg.delta == 1e-3
    assert cfg.max_iterations == 10
    for bad in (
        dict(lam=0.0),
        dict(lam=-1.0),
        dict(k=0),
        dict(k=-1),
        dict(k=5.5),
        dict(sigma=0.0),
        dict(delta=-0.1),
        dict(max_iterations=0),
        dict(max_iterations=-2),
        dict(max_iterations=2.5),
        dict(alpha_p=-1.0),
        dict(rhs_reg=-1.0),
    ):
        with pytest.raises(ConfigurationError):
            AdaptationConfig(**bad)

    # NaN passes every comparison and inf overflows int(): each numeric
    # knob must reject both with a ConfigurationError naming it
    numeric = ("alpha_p", "alpha_c", "lam", "k", "sigma", "delta",
               "max_iterations", "rhs_reg")
    for name in numeric:
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
                AdaptationConfig(**{name: value})

    # integral floats are stored as ints and run exactly like them
    as_float = AdaptationConfig(k=5.0, max_iterations=3.0)
    as_int = AdaptationConfig(k=5, max_iterations=3)
    assert as_float == as_int
    assert type(as_float.k) is int and type(as_float.max_iterations) is int
    data = generate_synthetic(SyntheticSpec())
    y_s = make_one_hot(data.y_s, num_classes=10)
    got = adapt(data.x_s, y_s, data.x_t, as_float)
    want = adapt(data.x_s, y_s, data.x_t, as_int)
    assert np.array_equal(got.soft_labels, want.soft_labels)
    assert got.history == want.history

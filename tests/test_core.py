import dataclasses
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
    # integral float labels are taken as their ints
    assert np.array_equal(make_one_hot(np.array([0.0, 2.0, 1.0, 0.0]), 3), expected)


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


def test_adapt_refuses_one_dimensional_source_labels():
    # integer labels where the one-hot matrix belongs
    data = generate_synthetic(SyntheticSpec(num_source_classes=2, num_target_classes=1, dim=3))
    with pytest.raises(ValidationError, match=r"^label matrix must be 2-dimensional and "
                       rf"non-empty, got shape \({data.y_s.size},\)$"):
        adapt(data.x_s, data.y_s, data.x_t)


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


@pytest.mark.parametrize("num_classes, message", [
    (3.0, None),
    (np.float64(3.0), None),
    (np.int64(3), None),
    (2.5, "num_classes must be an integer, got 2.5"),
    (np.nan, "num_classes must be an integer, got nan"),
    (np.inf, "num_classes must be an integer, got inf"),
    ("3", "num_classes must be a number, got '3'"),
    (None, "num_classes must be a number, got None"),
    (True, "num_classes must be a number, got True"),
], ids=["3.0", "float64 3.0", "int64 3", "2.5", "nan", "inf", "str", "None", "True"])
def test_make_one_hot_num_classes_follows_the_integer_field_rule(num_classes, message):
    # the rule of check_numeric_fields for an int field: an integral float
    # is taken as its int, and anything else is a ValidationError
    labels = [0, 2, 1]
    if message is None:
        assert np.array_equal(make_one_hot(labels, num_classes), make_one_hot(labels, 3))
        return
    with pytest.raises(ValidationError) as exc:
        make_one_hot(labels, num_classes)
    assert str(exc.value) == message


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


# every numeric field of both dataclasses, with the error class each raises
NUMERIC_FIELDS = [
    *((AdaptationConfig, ConfigurationError, f.name)
      for f in dataclasses.fields(AdaptationConfig)),
    *((SyntheticSpec, ValidationError, f.name) for f in dataclasses.fields(SyntheticSpec)),
]


@pytest.mark.parametrize("kind, error, name", NUMERIC_FIELDS)
def test_numeric_fields_refuse_bools(kind, error, name):
    # Python counts True as the int 1, so k=True used to be taken as k=1
    # and alpha_p=True echoed as true into report.json
    for value in (True, False, np.True_):
        with pytest.raises(error, match=f"^{name} must be a number, got {value!r}$"):
            kind(**{name: value})


@pytest.mark.parametrize("kind, error, name", NUMERIC_FIELDS)
def test_numeric_fields_share_one_rule(kind, error, name):
    # one rule for both dataclasses: NaN passes every range check and inf
    # overflows int(), so each is refused by name, and a field with an
    # integer default holds an integer
    integral = isinstance(getattr(kind, name), int)
    refused = [(value, f"{name} must be an integer, got {value}" if integral
                else f"{name} must be finite, got {value}")
               for value in (math.nan, math.inf, -math.inf, *([2.5] if integral else []))]
    # a value that is no number is refused by name, not by math.isfinite or int()
    refused += [(value, f"{name} must be a number, got {value!r}") for value in ("5", "1.0", None)]
    for value, message in refused:
        with pytest.raises(error) as exc:
            kind(**{name: value})
        assert str(exc.value) == message
    # a Python int is fine anywhere, and an integral float is taken as the int
    whole = 5 if integral else 1
    as_float, as_int = kind(**{name: float(whole)}), kind(**{name: whole})
    assert as_float == as_int
    assert (type(getattr(as_float, name)) is int) == integral
    if kind is SyntheticSpec:
        got, want = generate_synthetic(as_float), generate_synthetic(as_int)
        assert got.x_s.tobytes() == want.x_s.tobytes() and got.x_t.tobytes() == want.x_t.tobytes()
        assert np.isfinite(want.x_s).all() and np.isfinite(want.x_t).all()


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
    ):
        with pytest.raises(ConfigurationError):
            AdaptationConfig(**bad)
    # the constraint side's regularizer is a constant of the subspace layer, not a knob
    with pytest.raises(TypeError, match="rhs_reg"):
        AdaptationConfig(rhs_reg=1e-6)

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

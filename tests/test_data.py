"""Synthetic generator, file formats and the report document.

The generator oracle is an independent nearest-center classifier on the
true cluster centers, never anything from the adaptation code.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from partialda import data as data_module
from partialda import (
    ParseError,
    ResultReport,
    SyntheticSpec,
    ValidationError,
    generate_synthetic,
    load_features_csv,
    load_labels,
    save_features_csv,
    save_labels,
    save_report,
    save_soft_labels,
)


def nearest_center_oracle(x, centers):
    """Classify each column of x by its Euclidean-nearest center column."""
    d2 = ((x[:, None, :] - centers[:, :, None]) ** 2).sum(axis=0)
    return np.argmin(d2, axis=0)


def test_generator_is_deterministic():
    a = generate_synthetic(SyntheticSpec())
    b = generate_synthetic(SyntheticSpec())
    assert np.array_equal(a.x_s, b.x_s)
    assert np.array_equal(a.y_s, b.y_s)
    assert np.array_equal(a.x_t, b.x_t)
    assert np.array_equal(a.y_t, b.y_t)
    assert np.array_equal(a.centers, b.centers)
    c = generate_synthetic(SyntheticSpec(seed=43))
    assert not np.array_equal(a.x_s, c.x_s)


def test_generator_counts_and_partial_label_space():
    spec = SyntheticSpec()
    data = generate_synthetic(spec)
    assert data.x_s.shape == (20, 300)
    assert data.x_t.shape == (20, 100)
    assert data.centers.shape == (20, 10)
    counts_s = np.bincount(data.y_s, minlength=10)
    assert np.all(counts_s == 30)
    counts_t = np.bincount(data.y_t, minlength=10)
    assert np.all(counts_t[:5] == 20)
    assert np.all(counts_t[5:] == 0)  # outlier classes never generate targets
    norms = np.linalg.norm(data.centers, axis=0)
    assert np.allclose(norms, spec.cluster_radius, atol=1e-12)


def test_targets_are_nearest_their_true_centers():
    data = generate_synthetic(SyntheticSpec())
    shared = data.centers[:, :5]
    pred = nearest_center_oracle(data.x_t, shared)
    assert np.mean(pred == data.y_t) >= 0.99


def test_degenerate_generator_reproduces_centers_exactly():
    spec = SyntheticSpec(
        noise_std=0.0, shift_rotation_deg=0.0, shift_translation=0.0
    )
    data = generate_synthetic(spec)
    assert np.array_equal(data.x_s, data.centers[:, data.y_s])
    assert np.array_equal(data.x_t, data.centers[:, data.y_t])


def test_spec_validation():
    with pytest.raises(ValidationError, match="num_target_classes"):
        SyntheticSpec(num_source_classes=3, num_target_classes=4)
    with pytest.raises(ValidationError, match="dim"):
        SyntheticSpec(dim=0)
    with pytest.raises(ValidationError, match="noise_std"):
        SyntheticSpec(noise_std=-1.0)
    with pytest.raises(ValidationError, match="cluster_radius"):
        SyntheticSpec(cluster_radius=0.0)
    with pytest.raises(ValidationError, match="seed"):
        SyntheticSpec(seed=-1)
    with pytest.raises(ValidationError, match="rotation"):
        SyntheticSpec(dim=1, shift_rotation_deg=5.0)
    with pytest.raises(ValidationError, match="samples per class"):
        SyntheticSpec(samples_per_class_target=0)


@pytest.mark.parametrize(
    "knob", ["cluster_radius", "noise_std", "shift_rotation_deg", "shift_translation"])
def test_spec_rejects_non_finite_float_knobs(knob):
    # NaN passes every range check, so each float knob is checked for finiteness
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValidationError, match=f"^{knob} must be finite, got {value}$"):
            SyntheticSpec(**{knob: value})
    data = generate_synthetic(SyntheticSpec(**{knob: 1}))  # a Python int is fine
    assert np.isfinite(data.x_s).all() and np.isfinite(data.x_t).all()


@pytest.mark.parametrize("field", [
    "num_source_classes", "num_target_classes", "dim",
    "samples_per_class_source", "samples_per_class_target", "seed",
])
def test_spec_rejects_non_integral_integer_fields(field):
    # each used to reach generate_synthetic (or int()) and fail there with a
    # bare TypeError, ValueError or OverflowError
    for value in (2.5, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValidationError, match=f"^{field} must be an integer, got {value}$"):
            SyntheticSpec(**{field: value})
    spec = SyntheticSpec(**{field: 5.0})  # an integral float is taken as an int
    assert type(getattr(spec, field)) is int
    got, want = generate_synthetic(spec), generate_synthetic(SyntheticSpec(**{field: 5}))
    assert got.x_s.tobytes() == want.x_s.tobytes() and got.x_t.tobytes() == want.x_t.tobytes()


def test_feature_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(50)
    x = rng.standard_normal((4, 7)) * np.pi
    path = tmp_path / "x.csv"
    save_features_csv(x, path)
    assert np.array_equal(load_features_csv(path), x)


def test_feature_csv_layout(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    x = load_features_csv(path)
    assert x.shape == (2, 2)  # two samples, two features each
    assert np.array_equal(x[:, 0], [1.0, 2.0])
    assert np.array_equal(x[:, 1], [3.0, 4.0])


def test_feature_csv_parse_errors(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0\n2.0,3.0\n")
    with pytest.raises(ParseError, match="row 2 has 2 columns, expected 1"):
        load_features_csv(ragged)

    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,oops\n")
    with pytest.raises(ParseError, match="non-numeric value 'oops'"):
        load_features_csv(bad)

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValidationError, match="empty feature file"):
        load_features_csv(empty)

    nonfinite = tmp_path / "nan.csv"
    nonfinite.write_text("1.0,nan\n")
    with pytest.raises(ValidationError, match="NaN or Inf"):
        load_features_csv(nonfinite)


def line_loop(path):
    """The line-by-line parser called directly, with the loader's checks."""
    rows = data_module._read_rows(path)
    if not rows:
        raise ValidationError(f"empty feature file: {path}")
    parsed = data_module._parse_rows(path, rows)
    return data_module.as_feature_matrix(parsed.T, name=f"features from {path}")


ODD_FILES = {
    "blank_line_mid_file": "1,2\n\n3,4\n",
    "whitespace_only_line": "1,2\n \t\n3,4\n",
    "trailing_blank_lines": "1,2\n3,4\n\n  \n",
    "crlf": "1,2\r\n3,4\r\n",
    "spaces_and_tabs": " 1.5 ,\t2\t\n  3 , 4 \n",
    "leading_plus": "+1,2\n3,+4e-2\n",
    "underscore": "1_0,2\n3,4\n",
    "non_ascii_digit": "\u0661,2\n3,\u0664.5\n",
    "fullwidth_digit": "\uff11,2\n",
    "non_ascii_space": "1\u00a0,\u20032\n",
    "hash": "#1,2\n3,4\n",
    "hash_after_value": "1,2 # note\n",
    "quoted_cell": '"1",2\n',
    "empty_cell": "1,,2\n",
    "trailing_comma": "1,2,\n3,4,\n",
    "ragged": "1,2\n3\n",
    "nan": "nan,1\n",
    "inf": "1,inf\n",
    "infinity": "-Infinity,1\n",
    "vertical_tab": "1,2\x0b3,4\n",
    "vertical_tab_in_cell": "1\x0b,2\n",
    "form_feed": "1\x0c2\n",
    "unit_separator": "1\x1f,2\n",
    "nul": "1\x00,2\n",
    "hex": "0x10,2\n",
    "overflow": "1e999,1\n",
    "single_value": "7\n",
    "single_column": "1\n2\n3\n",
    "no_final_newline": "1,2\n3,4",
    "only_blank_lines": "\n\n",
}


@pytest.mark.parametrize("name", sorted(ODD_FILES))
def test_feature_csv_odd_inputs_match_line_loop(tmp_path, name):
    # the C reader may only speed the loader up: on every input it must
    # return what the line loop returns, or fail exactly as it fails
    path = tmp_path / f"{name}.csv"
    path.write_text(ODD_FILES[name])
    try:
        want = line_loop(path)
    except (ParseError, ValidationError) as exc:
        with pytest.raises(type(exc)) as got:
            load_features_csv(path)
        assert str(got.value) == str(exc)
    else:
        got = load_features_csv(path)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_well_formed_feature_csv_skips_line_loop(tmp_path, monkeypatch):
    def refuse(path, rows):
        raise AssertionError(f"{path} reached the line loop")

    monkeypatch.setattr(data_module, "_parse_rows", refuse)
    rng = np.random.default_rng(52)
    saved = tmp_path / "saved.csv"
    x = rng.standard_normal((6, 9))
    save_features_csv(x, saved)
    assert np.array_equal(load_features_csv(saved), x)
    hand = tmp_path / "hand.csv"
    hand.write_text(" 1 ,+2\r\n3e0,\t4.\r\n\r\n")
    assert np.array_equal(load_features_csv(hand), [[1.0, 3.0], [2.0, 4.0]])


@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
@example(np.array([[-0.0, 0.0, 5e-324], [-2.2250738585072014e-308, 1.7976931348623157e308, -1e-320]]))
@example(np.array([[np.nextafter(1.0, 2.0), 0.1 + 0.2, -1e300, 1e-300]]))
def test_feature_csv_round_trip_is_bit_exact(x):
    # a save/load round trip reproduces every bit, subnormals and -0.0 included
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.csv"
        save_features_csv(x, path)
        got = load_features_csv(path)
    assert got.shape == x.shape and got.tobytes() == x.tobytes()


def test_label_file_round_trip(tmp_path):
    path = tmp_path / "y.txt"
    save_labels([0, 1, 1], path)
    assert np.array_equal(load_labels(path), [0, 1, 1])
    path.write_text("2\n")
    assert np.array_equal(load_labels(path), [2])


def test_label_file_parse_errors(tmp_path):
    path = tmp_path / "y.txt"
    path.write_text("0\na\n")
    with pytest.raises(ParseError, match="line 2: not an integer"):
        load_labels(path)
    path.write_text("0\n-3\n")
    with pytest.raises(ParseError, match="negative label"):
        load_labels(path)
    path.write_text("")
    with pytest.raises(ValidationError, match="empty label file"):
        load_labels(path)


def test_soft_label_csv_layout_and_round_trip(tmp_path):
    path = tmp_path / "p.csv"
    save_soft_labels(np.array([[0.7], [0.3]]), path)
    assert path.read_text() == "0.7,0.3\n"
    rng = np.random.default_rng(51)
    p = rng.random((3, 5))
    p /= p.sum(axis=0)
    save_soft_labels(p, path)
    assert np.array_equal(load_features_csv(path), p)


def test_save_labels_refuses_what_load_labels_refuses(tmp_path):
    path = tmp_path / "y.txt"
    for labels, message in (
        ([], r"shape \(0,\)"),
        ([[0, 1], [1, 0]], r"shape \(2, 2\)"),
        ([1.5, 2.0], "label 1.5 at index 0 is not a non-negative integer"),
        ([0, -1, 2], "label -1 at index 1 is not a non-negative integer"),
        ([0.0, math.nan], "label nan at index 1 is not a non-negative integer"),
        ([math.inf], "label inf at index 0 is not a non-negative integer"),
        (["1"], "dtype <U1"),
        ([True, False], "dtype bool"),
    ):
        with pytest.raises(ValidationError, match=message):
            save_labels(labels, path)
        assert not path.exists()
    save_labels(np.array([3.0, 0.0, 2.0]), path)
    assert path.read_text() == "3\n0\n2\n"
    assert np.array_equal(load_labels(path), [3, 0, 2])
    save_labels(np.array([7, 0], dtype=np.uint8), path)
    assert np.array_equal(load_labels(path), [7, 0])


def test_report_round_trip(tmp_path):
    # the document save_report writes, byte for byte: field order, then format and version
    report = ResultReport(
        config={"k": 5, "sigma": 0.1, "kernel": "none"},
        overall_accuracy=0.97,
        per_class_accuracy={0: 1.0, 3: 0.9},
        class_weights=[0.5, 0.0, 0.5],
        class_mask=[1, 0, 1],
        iterations_run=4,
        history=[{"objective": 1.25, "label_change_fraction": 0.0}],
        warnings={"mask_fallbacks": 0},
        duration_seconds=0.25,
    )
    path = tmp_path / "report.json"
    save_report(report, path)
    want = {
        "config": {"k": 5, "sigma": 0.1, "kernel": "none"},
        "overall_accuracy": 0.97,
        "per_class_accuracy": {"0": 1.0, "3": 0.9},
        "class_weights": [0.5, 0.0, 0.5],
        "class_mask": [1, 0, 1],
        "iterations_run": 4,
        "history": [{"objective": 1.25, "label_change_fraction": 0.0}],
        "warnings": {"mask_fallbacks": 0},
        "duration_seconds": 0.25,
        "format": "partialda-report",
        "version": 1,
    }
    assert path.read_text() == json.dumps(want, indent=2) + "\n"


def test_report_without_accuracy(tmp_path):
    report = ResultReport(
        config={},
        overall_accuracy=None,
        per_class_accuracy=None,
        class_weights=[1.0],
        class_mask=[1],
        iterations_run=0,
    )
    path = tmp_path / "report.json"
    save_report(report, path)
    doc = json.loads(path.read_text())
    assert doc["overall_accuracy"] is None and doc["per_class_accuracy"] is None
    assert doc["history"] == [] and doc["warnings"] == {} and doc["duration_seconds"] == 0.0


def test_report_errors(tmp_path):
    with pytest.raises(OSError):
        save_report(
            ResultReport(
                config={},
                overall_accuracy=None,
                per_class_accuracy=None,
                class_weights=[1.0],
                class_mask=[1],
                iterations_run=0,
            ),
            tmp_path / "missing-dir" / "report.json",
        )

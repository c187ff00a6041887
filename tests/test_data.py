"""Synthetic generator, file formats and report round-trips.

The generator oracle is an independent nearest-center classifier on the
true cluster centers, never anything from the adaptation code.
"""

import json

import numpy as np
import pytest

from partialda import (
    ParseError,
    ResultReport,
    SyntheticSpec,
    ValidationError,
    generate_synthetic,
    load_features_csv,
    load_labels,
    load_report,
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


def test_report_round_trip(tmp_path):
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
    assert load_report(path) == report


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
    assert load_report(path) == report


def test_report_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError, match="invalid report document"):
        load_report(path)
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ParseError, match="not a .* report"):
        load_report(path)
    path.write_text('{"format": "partialda-report"}')
    with pytest.raises(ParseError, match="'config'"):
        load_report(path)
    doc = ResultReport(config={}, overall_accuracy=None, per_class_accuracy=None,
                       class_weights=[1.0], class_mask=[1], iterations_run=0).to_dict()
    del doc["history"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="'history'"):
        load_report(path)
    path.write_text("[1, 2]")
    with pytest.raises(ParseError, match="not a JSON object"):
        load_report(path)
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

"""Command line interface: wiring, output files, exit codes."""

import json
from dataclasses import fields

import numpy as np
import pytest

from partialda import AdaptationConfig, IterationRecord, load_features_csv
from partialda.cli import main


GEN_FLAGS = [
    "--num-source-classes", "4",
    "--num-target-classes", "2",
    "--dim", "6",
    "--samples-per-class-source", "8",
    "--samples-per-class-target", "6",
    "--noise-std", "1.0",
    "--seed", "7",
]


def gen_dataset(directory):
    code = main(["gen-synth", "--out-dir", str(directory), *GEN_FLAGS])
    assert code == 0
    return {
        "source_features": directory / "source_features.csv",
        "source_labels": directory / "source_labels.txt",
        "target_features": directory / "target_features.csv",
        "target_labels": directory / "target_labels.txt",
        "spec": directory / "spec.json",
    }


def adapt_args(files, out_dir, *extra):
    return [
        "adapt",
        "--source-features", str(files["source_features"]),
        "--source-labels", str(files["source_labels"]),
        "--target-features", str(files["target_features"]),
        "--target-labels", str(files["target_labels"]),
        "--out", str(out_dir),
        "--k", "3",
        "--max-iterations", "3",
        *extra,
    ]


def test_gen_synth_writes_five_files(tmp_path):
    files = gen_dataset(tmp_path / "data")
    for path in files.values():
        assert path.exists(), path
    spec = json.loads(files["spec"].read_text())
    assert spec["num_source_classes"] == 4
    assert spec["seed"] == 7


def test_gen_synth_is_deterministic(tmp_path):
    a = gen_dataset(tmp_path / "a")
    b = gen_dataset(tmp_path / "b")
    for key in a:
        assert a[key].read_bytes() == b[key].read_bytes(), key


def test_gen_synth_rejects_bad_spec(tmp_path, capsys):
    code = main([
        "gen-synth", "--out-dir", str(tmp_path / "x"),
        "--num-source-classes", "2", "--num-target-classes", "5",
    ])
    assert code == 1
    assert "num_target_classes" in capsys.readouterr().err


def test_gen_synth_non_finite_knob_exits_one(tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["gen-synth", "--out-dir", str(out), "--noise-std", "nan"]) == 1
    assert "noise_std must be finite, got nan" in capsys.readouterr().err
    assert not out.exists()


def test_adapt_writes_report_and_soft_labels(tmp_path, capsys):
    files = gen_dataset(tmp_path / "data")
    out = tmp_path / "run"
    capsys.readouterr()
    assert main(adapt_args(files, out)) == 0
    summary = capsys.readouterr().out
    assert summary.startswith("adapt: accuracy=")
    assert "surviving_classes=" in summary

    report = json.loads((out / "report.json").read_text())
    assert report["overall_accuracy"] is not None
    assert report["config"]["k"] == 3
    assert report["iterations_run"] == len(report["history"])
    p = load_features_csv(out / "soft_labels.csv")
    assert p.shape[0] == 4  # one row of probabilities per source class
    assert np.allclose(p.sum(axis=0), 1.0, atol=1e-9)


def test_adapt_without_truth_reports_no_accuracy(tmp_path, capsys):
    files = gen_dataset(tmp_path / "data")
    out = tmp_path / "run"
    args = adapt_args(files, out)
    i = args.index("--target-labels")
    del args[i:i + 2]
    assert main(args) == 0
    assert "accuracy=n/a" in capsys.readouterr().out
    assert json.loads((out / "report.json").read_text())["overall_accuracy"] is None


def test_baseline_writes_report(tmp_path, capsys):
    files = gen_dataset(tmp_path / "data")
    out = tmp_path / "base"
    capsys.readouterr()
    code = main([
        "baseline",
        "--source-features", str(files["source_features"]),
        "--source-labels", str(files["source_labels"]),
        "--target-features", str(files["target_features"]),
        "--target-labels", str(files["target_labels"]),
        "--out", str(out),
    ])
    assert code == 0
    assert capsys.readouterr().out.startswith("baseline: accuracy=")
    report = json.loads((out / "report.json").read_text())
    assert report["iterations_run"] == 0
    assert report["history"] == []


REPORT_KEYS = ["config", "overall_accuracy", "per_class_accuracy", "class_weights",
               "class_mask", "iterations_run", "history", "warnings", "duration_seconds",
               "format", "version"]


def check_report_schema(report, config_types):
    """The documented JSON type of every report field, and how the fields relate."""
    assert list(report) == REPORT_KEYS
    assert report["format"] == "partialda-report" and report["version"] == 1
    assert {k: type(v) for k, v in report["config"].items()} == config_types
    assert type(report["overall_accuracy"]) is float
    per_class = report["per_class_accuracy"]
    assert per_class and all(type(v) is float and k == str(int(k)) for k, v in per_class.items())
    weights = report["class_weights"]
    assert weights and all(type(w) is float for w in weights)
    assert report["class_mask"] == [int(w > 0) for w in weights]
    assert type(report["iterations_run"]) is int
    assert len(report["history"]) == report["iterations_run"]
    for entry in report["history"]:
        assert [(k, type(v).__name__) for k, v in entry.items()] == [
            (f.name, f.type) for f in fields(IterationRecord)]
    warnings = report["warnings"]
    assert set(warnings) == {"mask_fallbacks", "graph_fallbacks"}
    assert all(type(v) is int for v in warnings.values())
    assert type(report["duration_seconds"]) is float


def test_report_schema_is_pinned(tmp_path):
    files = gen_dataset(tmp_path / "data")
    assert main(adapt_args(files, tmp_path / "adapt")) == 0
    report = json.loads((tmp_path / "adapt" / "report.json").read_text())
    check_report_schema(report, {f.name: type(f.default) for f in fields(AdaptationConfig)})
    assert report["iterations_run"] >= 1
    inputs = adapt_args(files, tmp_path / "baseline")[1:11]  # the five input and output flags
    assert main(["baseline", *inputs]) == 0
    report = json.loads((tmp_path / "baseline" / "report.json").read_text())
    check_report_schema(report, {"sigma": float})
    assert report["iterations_run"] == 0


def test_eval_scores_soft_labels(tmp_path, capsys):
    files = gen_dataset(tmp_path / "data")
    out = tmp_path / "run"
    assert main(adapt_args(files, out)) == 0
    capsys.readouterr()
    code = main([
        "eval", str(out / "soft_labels.csv"), str(files["target_labels"]),
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("overall_accuracy ")
    assert float(lines[0].split()[1]) >= 0.0
    assert any(line.startswith("class 0 accuracy") for line in lines[1:])


def test_eval_resolves_ties_toward_lower_class(tmp_path, capsys):
    pred = tmp_path / "p.csv"
    pred.write_text("0.5,0.5\n")  # tied probabilities -> class 0
    truth = tmp_path / "y.txt"
    truth.write_text("0\n")
    assert main(["eval", str(pred), str(truth)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "overall_accuracy 1.000000"


def test_eval_length_mismatch_exits_one(tmp_path, capsys):
    pred = tmp_path / "p.csv"
    pred.write_text("0.7,0.3\n0.2,0.8\n")
    truth = tmp_path / "y.txt"
    truth.write_text("0\n")
    assert main(["eval", str(pred), str(truth)]) == 1
    assert "mismatch" in capsys.readouterr().err


def test_missing_file_exit_code_names_path(tmp_path, capsys):
    files = gen_dataset(tmp_path / "data")
    args = adapt_args(files, tmp_path / "run")
    i = args.index("--source-features")
    args[i + 1] = str(tmp_path / "nope.csv")
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "file not found" in err and "nope.csv" in err


def test_non_utf8_features_exit_one(tmp_path, capsys):
    files = gen_dataset(tmp_path / "data")
    path = files["source_features"]
    path.write_bytes(path.read_bytes().replace(b"\n", b"\xff\n", 1))
    assert main([
        "baseline",
        "--source-features", str(path),
        "--source-labels", str(files["source_labels"]),
        "--target-features", str(files["target_features"]),
        "--out", str(tmp_path / "run"),
    ]) == 1
    err = capsys.readouterr().err
    assert f"{path}: not UTF-8 text" in err and "0xff" in err


def test_non_utf8_labels_exit_one(tmp_path, capsys):
    pred = tmp_path / "p.csv"
    pred.write_text("0.7,0.3\n0.2,0.8\n")
    truth = tmp_path / "y.txt"
    truth.write_bytes(b"0\n\xfe\n")
    assert main(["eval", str(pred), str(truth)]) == 1
    err = capsys.readouterr().err
    assert f"{truth}: not UTF-8 text: byte 2 is 0xfe" in err


def test_pathological_delta_exits_one(tmp_path, capsys):
    files = gen_dataset(tmp_path / "data")
    args = adapt_args(files, tmp_path / "run", "--delta", "0.9")
    assert main(args) == 1
    assert "no class survives threshold" in capsys.readouterr().err


def test_non_finite_sigma_exits_one(tmp_path, capsys):
    files = gen_dataset(tmp_path / "data")
    assert main(adapt_args(files, tmp_path / "adapt", "--sigma", "nan")) == 1
    assert "sigma must be finite" in capsys.readouterr().err
    baseline = [
        "baseline",
        "--source-features", str(files["source_features"]),
        "--source-labels", str(files["source_labels"]),
        "--target-features", str(files["target_features"]),
        "--out", str(tmp_path / "baseline"),
    ]
    for value in ("nan", "inf"):
        assert main([*baseline, "--sigma", value]) == 1
        assert "sigma must be positive and finite" in capsys.readouterr().err


def test_degenerate_data_exits_two(tmp_path, capsys):
    xs = tmp_path / "xs.csv"
    xs.write_text("1.0,1.0,1.0\n" * 4)
    ys = tmp_path / "ys.txt"
    ys.write_text("0\n1\n0\n1\n")
    xt = tmp_path / "xt.csv"
    xt.write_text("1.0,1.0,1.0\n" * 2)
    code = main([
        "adapt",
        "--source-features", str(xs),
        "--source-labels", str(ys),
        "--target-features", str(xt),
        "--out", str(tmp_path / "run"),
        "--k", "2",
    ])
    assert code == 2
    assert "numerical error" in capsys.readouterr().err


def test_unknown_flag_exits_one(capsys):
    assert main(["adapt", "--bogus"]) == 1
    capsys.readouterr()


def test_missing_subcommand_exits_one(capsys):
    assert main([]) == 1
    capsys.readouterr()

"""Command line interface: wiring, output files, exit codes."""

import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings

import partialda._lapack as _lapack
import partialda.cli
from partialda import (AdaptationConfig, IterationRecord, NumericalError, load_features_csv,
                       save_features_csv, save_labels)
from partialda.cli import main
from partialda.core import hard_labels
from partialda.errors import AdaptationError
from tests.test_pipeline import run_small, small_runs


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
    return dataset_files(directory)


def dataset_files(directory):
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


def test_every_text_file_names_its_encoding(tmp_path):
    # with EncodingWarning an error, a file opened in the locale's encoding
    # stops the command
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    files, run = dataset_files(tmp_path / "data"), tmp_path / "run"
    for args in (["gen-synth", "--out-dir", str(tmp_path / "data"), *GEN_FLAGS],
                 adapt_args(files, run),
                 ["eval", str(run / "soft_labels.csv"), str(files["target_labels"])]):
        proc = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                               "-W", "error::EncodingWarning", "-m", "partialda.cli", *args],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


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
    report = json.loads((out / "report.json").read_text())
    assert report["overall_accuracy"] is None and report["per_class_accuracy"] is None


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
               "numpy_version", "blas_threads", "format", "version"]


def check_report_schema(report, config_types):
    """The documented JSON type of every report field, and how the fields relate."""
    assert list(report) == REPORT_KEYS
    assert report["format"] == "partialda-report" and report["version"] == 2
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
    assert report["numpy_version"] == np.__version__
    assert report["blas_threads"] is None or type(report["blas_threads"]) is int


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


def test_report_records_numpy_version_and_blas_threads(tmp_path, monkeypatch):
    # a run's bits hold only at a fixed BLAS thread count, so the report
    # names the count of numpy's OpenBLAS and the numpy that ran; it writes
    # null where that library is not found
    files = gen_dataset(tmp_path / "data")
    threads = _lapack.blas_threads()
    assert threads is None or threads >= 1
    reports = []
    for lookup, out in ((_lapack._lookup, "found"), (dict, "missing")):
        monkeypatch.setattr(_lapack, "_lookup", lookup)
        assert main(["baseline", *adapt_args(files, tmp_path / out)[1:11]]) == 0
        reports.append(json.loads((tmp_path / out / "report.json").read_text()))
    found, missing = reports
    assert found["numpy_version"] == missing["numpy_version"] == np.__version__
    assert found["blas_threads"] == threads
    assert missing["blas_threads"] is None
    assert '"blas_threads": null' in (tmp_path / "missing" / "report.json").read_text()


def test_report_is_indented_json_in_key_order(tmp_path):
    # the document byte for byte: json.dumps with indent 2 and a newline,
    # keys in REPORT_KEYS order and the class ids as strings
    files = gen_dataset(tmp_path / "data")
    assert main(adapt_args(files, tmp_path / "run")) == 0
    text = (tmp_path / "run" / "report.json").read_bytes().decode("utf-8")
    report = json.loads(text)
    assert text == json.dumps(report, indent=2) + "\n"
    assert list(report) == REPORT_KEYS
    assert list(report["per_class_accuracy"]) == ["0", "1"]


def test_outputs_repeat_across_processes_and_blas_threads(tmp_path):
    # a run is bit-identical in a new process at the same BLAS thread count;
    # another count may round a gemm sum differently (on this dataset the soft
    # labels moved by 1.8e-15), so across counts only the hard labels must agree
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    files = dataset_files(tmp_path / "data")
    assert main(["gen-synth", "--out-dir", str(tmp_path / "data"), "--seed", "3"]) == 0
    runs, counts = [], []
    for run, threads in enumerate(("2", "2", "1")):
        out = tmp_path / f"run{run}"
        proc = subprocess.run(
            [sys.executable, "-m", "partialda.cli", "adapt", *adapt_args(files, out)[1:11],
             "--k", "5"],
            env={**env, "OPENBLAS_NUM_THREADS": threads}, capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        report = json.loads((out / "report.json").read_text())
        assert type(report.pop("duration_seconds")) is float
        counts.append(report["blas_threads"])
        runs.append(((out / "soft_labels.csv").read_bytes(), list(report.items()),
                     hard_labels(load_features_csv(out / "soft_labels.csv"))))
    (soft, report, hard), (soft_again, report_again, _), (_, _, hard_one_thread) = runs
    assert soft_again == soft
    assert report_again == report
    assert np.array_equal(hard_one_thread, hard)
    assert counts[2] in (1, None)  # None only where numpy ships no OpenBLAS


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


def no_solve(*args, **kwargs):
    raise AssertionError("the solve ran before the inputs were checked")


@pytest.mark.parametrize("command", ["adapt", "baseline"])
@pytest.mark.parametrize("case", ["missing labels", "labels of another length", "out is a file"])
def test_scoring_and_output_errors_come_before_the_solve(tmp_path, capsys, monkeypatch,
                                                         command, case):
    # the target labels are read and length-checked, and the output
    # directory made, before the solve: each error keeps its text and exit
    # code, and no run is spent on a result that would be discarded
    monkeypatch.setattr(partialda.cli, "adapt", no_solve)
    monkeypatch.setattr(partialda.cli, "baseline_propagate", no_solve)
    files = gen_dataset(tmp_path / "data")
    labels, out = files["target_labels"], tmp_path / "run"
    if case == "missing labels":
        labels = tmp_path / "nope.txt"
        message = f"file not found: {labels}"
    elif case == "labels of another length":
        labels = tmp_path / "three.txt"
        labels.write_text("0\n1\n0\n")
        message = "length mismatch between predictions (12,) and truth (3,)"
    else:
        out.write_text("not a directory\n")
        message = f"[Errno 17] File exists: '{out}'"
    args = [command, "--source-features", str(files["source_features"]),
            "--source-labels", str(files["source_labels"]),
            "--target-features", str(files["target_features"]),
            "--target-labels", str(labels), "--out", str(out)]
    assert main(args) == 1
    assert capsys.readouterr().err == f"partialda: error: {message}\n"
    if case == "out is a file":
        assert out.read_text() == "not a directory\n"
    else:
        assert not out.exists()


def test_bad_config_leaves_no_output_directory(tmp_path, capsys, monkeypatch):
    # the configuration is checked before the inputs are read, and --out is
    # made only when there are results to write
    monkeypatch.setattr(partialda.cli, "adapt", no_solve)
    out = tmp_path / "run" / "nested"
    assert main(adapt_args(gen_dataset(tmp_path / "data"), out, "--k", "0")) == 1
    assert capsys.readouterr().err == "partialda: error: k must be an integer >= 1, got 0\n"
    assert not (tmp_path / "run").exists()


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


def test_label_beyond_int64_exits_one(tmp_path, capsys):
    pred = tmp_path / "p.csv"
    pred.write_text("0.7,0.3\n0.2,0.8\n")
    truth = tmp_path / "y.txt"
    truth.write_text("0\n99999999999999999999\n")
    assert main(["eval", str(pred), str(truth)]) == 1
    err = capsys.readouterr().err
    assert f"{truth}: line 2: label 99999999999999999999 is not below 2**63" in err


def test_pathological_delta_exits_one(tmp_path, capsys):
    files = gen_dataset(tmp_path / "data")
    args = adapt_args(files, tmp_path / "run", "--delta", "0.9")
    assert main(args) == 1
    assert "no class survives threshold" in capsys.readouterr().err
    # no class holds half of the default benchmark's targets
    assert main(["gen-synth", "--out-dir", str(tmp_path / "default")]) == 0
    args = adapt_args(dataset_files(tmp_path / "default"), tmp_path / "run", "--delta", "0.5")
    assert main(args) == 1
    assert "no class survives threshold delta=0.5 " in capsys.readouterr().err


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
    assert not (tmp_path / "run").exists()


def test_unknown_flag_exits_one(capsys):
    assert main(["adapt", "--bogus"]) == 1
    capsys.readouterr()


def test_removed_rhs_reg_flag_exits_one(tmp_path, capsys):
    # the constraint side's regularizer is a constant, so --rhs-reg is no flag
    files = gen_dataset(tmp_path / "data")
    capsys.readouterr()
    assert main(adapt_args(files, tmp_path / "run", "--rhs-reg", "1e-6")) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: partialda")
    assert err.endswith("partialda: error: unrecognized arguments: --rhs-reg 1e-6\n")
    assert not (tmp_path / "run").exists()


def test_missing_subcommand_exits_one(capsys):
    assert main([]) == 1
    capsys.readouterr()


@settings(max_examples=8)
@given(small_runs())
# no class weight exceeds delta = 1, a refused configuration
@example((np.eye(2), np.eye(2), np.ones((2, 1)), AdaptationConfig(k=1, delta=1.0), 0.1))
def test_every_run_exits_with_a_documented_code_and_one_line(run):
    # the drawn runs of tests/test_pipeline.py through the command line:
    # exit 0 with the soft labels the library returns, bit for bit, and
    # nothing on stderr, or the code of the error the library raises, 1
    # for a refused input or configuration and 2 for a numerical failure,
    # with one line on stderr
    x_s, y_s, x_t, config, sigma = run
    try:
        want = run_small(*run)
    except AdaptationError as exc:
        want = 2 if isinstance(exc, NumericalError) else 1
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_features_csv(x_s, tmp / "xs.csv")
        save_labels(np.argmax(y_s, axis=1), tmp / "ys.txt")
        save_features_csv(x_t, tmp / "xt.csv")
        args = ["--source-features", str(tmp / "xs.csv"), "--source-labels", str(tmp / "ys.txt"),
                "--target-features", str(tmp / "xt.csv"), "--out", str(tmp / "out")]
        if config is None:
            args = ["baseline", *args, "--sigma", repr(sigma)]
        else:
            args = ["adapt", *args]
            for f in fields(config):
                flag = "--lambda" if f.name == "lam" else "--" + f.name.replace("_", "-")
                args += [flag, repr(getattr(config, f.name))]
        err = StringIO()
        with redirect_stderr(err), redirect_stdout(StringIO()):
            code = main(args)
        lines = err.getvalue().splitlines()
        if isinstance(want, int):
            assert code == want and len(lines) == 1
            assert not (tmp / "out").exists()
        else:
            assert code == 0 and lines == []
            got = load_features_csv(tmp / "out" / "soft_labels.csv")
            assert got.tobytes() == want.soft_labels.tobytes()

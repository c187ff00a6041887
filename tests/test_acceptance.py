"""Acceptance gate: seven end-to-end checks, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Oracles are independent of the code under test: direct loss evaluations for
the alignment matrices, explicit residuals for the eigensolver, fixed-point
iteration for propagation and the generator's ground truth for the
adaptation scenario.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from partialda import (
    AdaptationConfig,
    ConfigurationError,
    NumericalError,
    ParseError,
    ResultReport,
    SyntheticSpec,
    ValidationError,
    accuracy,
    adapt,
    baseline_propagate,
    generate_synthetic,
    load_features_csv,
    load_labels,
    make_one_hot,
    save_report,
)
from partialda.alignment import (
    apply_mask,
    binarize_weights,
    compute_class_weights,
    solve_gram_system,
    source_sample_weights,
)
from partialda.cli import main as cli_main
from partialda.core import hard_labels
from partialda.graph import propagate_labels
from partialda.oracles import (
    build_center_operators,
    build_m0,
    build_mc,
    build_mp,
    centering_matrix,
    combine,
    generalized_eigh,
)
from partialda.pipeline import label_change_fraction
from partialda.subspace import embed, gram_matrix, solve_projection
from tests.test_alignment import (
    oracle_center_gap,
    oracle_cluster_gap,
    oracle_mean_gap,
    random_instance,
    trace_loss,
)
from tests.test_graph import fixed_point_oracle, textbook_graph
from tests.test_subspace import conditioned_instance


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({title}): FAIL")
        raise
    print(f"criterion {number} ({title}): PASS")


_SCENARIO: dict = {}


def adaptation_scenario():
    """Shared default-benchmark run used by criteria 4 and 5."""
    if not _SCENARIO:
        data = generate_synthetic(SyntheticSpec())
        y_s = make_one_hot(data.y_s, num_classes=10)
        config = AdaptationConfig(k=5)
        start = time.perf_counter()
        result = adapt(data.x_s, y_s, data.x_t, config)
        elapsed = time.perf_counter() - start
        base = baseline_propagate(data.x_s, y_s, data.x_t, sigma=config.sigma)
        _SCENARIO.update(
            data=data, result=result, baseline=base, elapsed=elapsed,
            config=config,
        )
    return _SCENARIO


def test_criterion_1_trace_identities():
    with criterion(1, "alignment trace identities vs direct losses"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        checked = 0
        for _ in range(110):
            x_s, y_s, x_t, p = random_instance(rng)
            x = np.hstack([x_s, x_t])
            a = rng.standard_normal((x_s.shape[0], int(rng.integers(1, 4))))
            omega = rng.random(x_s.shape[1]) + 0.01

            got = trace_loss(build_m0(omega, x_t.shape[1]), x, a)
            want = oracle_mean_gap(x_s, x_t, omega, a)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

            mp = build_mp(build_center_operators(y_s, p))
            got = trace_loss(mp, x, a)
            want = oracle_center_gap(x_s, y_s, x_t, p, a)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

            got = trace_loss(build_mc(y_s, p), x, a)
            want = oracle_cluster_gap(x_s, y_s, x_t, p, a)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)
            checked += 1
        elapsed = time.perf_counter() - start
        assert checked >= 100
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_eigensolver_residuals():
    with criterion(2, "generalized eigensolver residual and constraint"):
        rng = np.random.default_rng(102)
        start = time.perf_counter()
        checked = 0
        for _ in range(55):
            data, m_all = conditioned_instance(rng)
            z = data.matrix
            n = z.shape[1]
            lam = 0.1
            k = max(1, z.shape[0] // 2)
            w = data.whitened
            proj = solve_projection(data, w @ m_all @ w.T, k)
            a, phi = proj.a, proj.eigenvalues

            lhs = z @ m_all @ z.T + lam * np.eye(z.shape[0])
            lhs = (lhs + lhs.T) / 2
            zhz = z @ centering_matrix(n) @ z.T
            zhz = (zhz + zhz.T) / 2
            rhs = zhz + 1e-6 * np.trace(zhz) / n * np.eye(z.shape[0])
            residual = np.linalg.norm(lhs @ a - rhs @ a @ np.diag(phi))
            assert residual <= 1e-8 * np.linalg.norm(lhs)
            assert np.linalg.norm(a.T @ zhz @ a - np.eye(k)) <= 1e-6 * k
            checked += 1
        elapsed = time.perf_counter() - start
        assert checked >= 50
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_3_propagation_equivalence():
    with criterion(3, "closed-form propagation equals fixed point"):
        rng = np.random.default_rng(103)
        for _ in range(55):
            n_s = int(rng.integers(2, 31))
            n_t = int(rng.integers(2, 51))
            d = int(rng.integers(2, 9))
            z_s = rng.standard_normal((d, n_s))
            z_t = rng.standard_normal((d, n_t))
            sigma = float(rng.uniform(0.3, 2.0))
            c = int(rng.integers(2, min(6, n_s + 1)))
            labels = np.concatenate([np.arange(c), rng.integers(0, c, n_s - c)])
            y = np.zeros((n_s, c))
            y[np.arange(n_s), labels] = 1.0
            p, _ = propagate_labels(z_s, z_t, sigma, y)
            oracle = fixed_point_oracle(*textbook_graph(z_s, z_t, sigma), y)
            assert np.abs(p - oracle).max() <= 1e-8
            assert np.abs(p.sum(axis=0) - 1.0).max() <= 1e-9


def test_criterion_4_partial_adaptation_beats_baseline():
    with criterion(4, "outlier suppression and accuracy gain on the benchmark"):
        scenario = adaptation_scenario()
        data, result = scenario["data"], scenario["result"]
        overall, _ = accuracy(result.hard_labels, data.y_t)
        base_overall, _ = accuracy(scenario["baseline"].hard_labels, data.y_t)
        assert overall >= 0.95, f"adaptation accuracy {overall:.4f}"
        assert overall > base_overall, (
            f"no gain: {overall:.4f} vs baseline {base_overall:.4f}"
        )
        outlier_weights = result.class_weights[5:]
        assert outlier_weights.shape == (5,)
        assert np.all(outlier_weights == 0.0), outlier_weights
        assert scenario["elapsed"] < 10.0, f"took {scenario['elapsed']:.2f}s"


def test_criterion_5_convergence_within_five_iterations():
    with criterion(5, "hard labels stable within five iterations"):
        scenario = adaptation_scenario()
        result = scenario["result"]
        assert scenario["config"].max_iterations == 10
        fractions = [rec.label_change_fraction for rec in result.history]
        stable_at = next(
            (i + 1 for i, f in enumerate(fractions) if f == 0.0), None
        )
        assert stable_at is not None, f"never stable: {fractions}"
        assert stable_at <= 5, f"stable only at iteration {stable_at}"


def test_criterion_6_pipeline_determinism(tmp_path):
    with criterion(6, "identical seeds give byte-identical pipeline output"):
        outputs = []
        for run in ("one", "two"):
            base = tmp_path / run
            data_dir = base / "data"
            run_dir = base / "run"
            assert cli_main(["gen-synth", "--out-dir", str(data_dir)]) == 0
            assert cli_main([
                "adapt",
                "--source-features", str(data_dir / "source_features.csv"),
                "--source-labels", str(data_dir / "source_labels.txt"),
                "--target-features", str(data_dir / "target_features.csv"),
                "--target-labels", str(data_dir / "target_labels.txt"),
                "--out", str(run_dir),
                "--k", "5",
            ]) == 0
            assert cli_main([
                "eval",
                str(run_dir / "soft_labels.csv"),
                str(data_dir / "target_labels.txt"),
            ]) == 0
            report_lines = [
                line
                for line in (run_dir / "report.json").read_text().splitlines()
                if '"duration_seconds"' not in line
            ]
            outputs.append({
                "dataset": tuple(
                    (data_dir / name).read_bytes()
                    for name in (
                        "source_features.csv", "source_labels.txt",
                        "target_features.csv", "target_labels.txt", "spec.json",
                    )
                ),
                "soft_labels": (run_dir / "soft_labels.csv").read_bytes(),
                "report": "\n".join(report_lines),
            })
        assert outputs[0]["dataset"] == outputs[1]["dataset"]
        assert outputs[0]["soft_labels"] == outputs[1]["soft_labels"]
        assert outputs[0]["report"] == outputs[1]["report"]


def test_criterion_7_documented_error_cases(tmp_path):
    with criterion(7, "every documented failure raises its error class"):
        masked_out = np.zeros(2)  # every class masked
        y2 = np.eye(2)
        # two identical targets orthogonal to both sources: at this sigma
        # they lean only on each other, so (I - W_tt) is singular
        on_e1 = np.array([[1.0, 1.0], [0.0, 0.0]])
        on_e2 = np.array([[0.0, 0.0], [1.0, 1.0]])
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("1.0\n2.0,3.0\n")
        bad_cell = tmp_path / "bad.csv"
        bad_cell.write_text("1.0,oops\n")
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        bad_label = tmp_path / "labels.txt"
        bad_label.write_text("0\nx\n")
        some_report = ResultReport(
            config={}, overall_accuracy=None, per_class_accuracy=None,
            class_weights=[1.0], class_mask=[1], iterations_run=0,
        )
        raw_proj = solve_projection(gram_matrix(np.eye(4), 0.1), np.eye(4), 1)

        cases = [
            # class of the raise, then the call that must produce it
            (ValidationError, lambda: make_one_hot(np.array([0, 5]), 3)),
            (ValidationError, lambda: make_one_hot(np.array([0, 0]), 2)),
            (ValidationError, lambda: hard_labels(np.array([[np.nan], [0.5]]))),
            (ValidationError, lambda: accuracy(np.array([0, 1]), np.array([0]))),
            (ValidationError, lambda: accuracy(np.array([]), np.array([]))),
            (ConfigurationError, lambda: AdaptationConfig(k=0)),
            (ConfigurationError, lambda: AdaptationConfig(lam=-1.0)),
            (ConfigurationError, lambda: AdaptationConfig(delta=-1.0)),
            (ValidationError, lambda: compute_class_weights(np.zeros((2, 3)))),
            (ConfigurationError, lambda: binarize_weights(np.array([0.5, 0.5]), 0.9)),
            (ConfigurationError, lambda: source_sample_weights(masked_out, y2)),
            (NumericalError, lambda: solve_gram_system(
                np.zeros((2, 2)), np.eye(2), 0.0)),
            (ValidationError, lambda: combine(
                np.eye(2), np.eye(3), np.eye(2), 1.0, 1.0)),
            (ValidationError, lambda: centering_matrix(0)),
            (NumericalError, lambda: generalized_eigh(
                np.eye(3), np.zeros((3, 3)), 2)),
            (ValidationError, lambda: generalized_eigh(np.eye(2), np.eye(2), 3)),
            (NumericalError, lambda: solve_projection(
                gram_matrix(np.ones((3, 5)), 0.1), np.eye(3), 2)),
            (ValidationError, lambda: embed(raw_proj, gram_matrix(np.eye(3)))),
            (ValidationError, lambda: propagate_labels(np.eye(2), np.eye(2), 0.0, y2)),
            (NumericalError, lambda: propagate_labels(on_e1, on_e2, 0.02, y2)),
            (ValidationError, lambda: propagate_labels(on_e1, on_e2, 0.02, np.eye(3))),
            (ValidationError, lambda: label_change_fraction([0, 1], [0])),
            (ConfigurationError, lambda: adapt(
                np.eye(3), np.eye(3), np.eye(3), AdaptationConfig(k=4))),
            (NumericalError, lambda: adapt(
                np.ones((3, 4)),
                make_one_hot(np.array([0, 1, 0, 1]), 2),
                np.ones((3, 2)),
                AdaptationConfig(k=2))),
            (ValidationError, lambda: baseline_propagate(
                np.eye(3), np.eye(3), np.eye(4))),
            (ParseError, lambda: load_features_csv(ragged)),
            (ParseError, lambda: load_features_csv(bad_cell)),
            (ValidationError, lambda: load_features_csv(empty)),
            (ParseError, lambda: load_labels(bad_label)),
            (ValidationError, lambda: SyntheticSpec(
                num_source_classes=2, num_target_classes=5)),
            (OSError, lambda: save_report(
                some_report, tmp_path / "no-dir" / "r.json")),
        ]
        for expected, call in cases:
            with pytest.raises(expected):
                call()

        # the loop errors carry their round number
        with pytest.raises(NumericalError, match="^iteration 1:"):
            adapt(
                np.ones((3, 4)),
                make_one_hot(np.array([0, 1, 0, 1]), 2),
                np.ones((3, 2)),
                AdaptationConfig(k=2),
            )

        # documented non-error behaviors on the same degenerate shapes
        assert hard_labels(np.array([[0.5], [0.5]]))[0] == 0  # tie-break
        repaired, n_dead = apply_mask(
            np.array([[0.0, 0.4], [0.0, 0.6]]),
            np.array([0.5, 0.5]),
        )
        assert n_dead == 1  # dead column repaired, counted, not raised
        assert np.allclose(repaired[:, 0], [0.5, 0.5])

        # command line mappings: 1 for bad input, 2 for numerical failure
        xs = tmp_path / "xs.csv"
        xs.write_text("1.0,1.0\n" * 4)
        ys = tmp_path / "ys.txt"
        ys.write_text("0\n1\n0\n1\n")
        xt = tmp_path / "xt.csv"
        xt.write_text("1.0,1.0\n" * 2)
        common = [
            "adapt",
            "--source-features", str(xs),
            "--source-labels", str(ys),
            "--target-features", str(xt),
            "--out", str(tmp_path / "out"),
            "--k", "2",
        ]
        assert cli_main(common) == 2  # no variance -> numerical failure
        assert cli_main(common + ["--delta", "0.9"]) == 1
        assert cli_main([
            "adapt",
            "--source-features", str(tmp_path / "missing.csv"),
            "--source-labels", str(ys),
            "--target-features", str(xt),
            "--out", str(tmp_path / "out"),
        ]) == 1
        assert cli_main([
            "gen-synth", "--out-dir", str(tmp_path / "g"),
            "--num-source-classes", "2", "--num-target-classes", "5",
        ]) == 1
        pred = tmp_path / "pred.csv"
        pred.write_text("0.7,0.3\n0.2,0.8\n")
        short = tmp_path / "short.txt"
        short.write_text("0\n")
        assert cli_main(["eval", str(pred), str(short)]) == 1

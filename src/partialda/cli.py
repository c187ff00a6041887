"""Command line front end.

Subcommands: ``gen-synth`` writes a synthetic benchmark, ``adapt`` runs the
full adaptation loop, ``baseline`` runs the single-propagation reference and
``eval`` scores saved soft labels against ground truth.  Exit codes: 0 on
success, 1 for parse, validation or configuration problems, 2 for numerical
failures.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from ._lapack import blas_threads
from .core import AdaptationConfig, accuracy, check_truth_shape, hard_labels, make_one_hot
from .data import (
    SyntheticSpec,
    generate_synthetic,
    load_features_csv,
    load_labels,
    save_features_csv,
    save_labels,
)
from .errors import ConfigurationError, NumericalError, ParseError, ValidationError
from .pipeline import AdaptationResult, adapt, baseline_propagate


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_io_arguments(sub):
    sub.add_argument("--source-features", required=True, help="CSV, one sample per row")
    sub.add_argument("--source-labels", required=True, help="one integer per line")
    sub.add_argument("--target-features", required=True, help="CSV, one sample per row")
    sub.add_argument("--target-labels", help="optional ground truth for scoring")
    sub.add_argument("--out", required=True, help="output directory")


def _add_field_flags(sub, cls) -> None:
    """One ``--field-name`` flag per field of the dataclass ``cls``, typed and defaulted by it."""
    for f in fields(cls):
        flag = "--lambda" if f.name == "lam" else "--" + f.name.replace("_", "-")
        sub.add_argument(flag, dest=f.name, type=type(f.default), default=f.default)


def _from_args(cls, args):
    """An instance of the dataclass ``cls`` built from the flags of its fields."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="partialda", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    p_adapt = commands.add_parser("adapt", help="run the adaptation loop")
    _add_io_arguments(p_adapt)
    _add_field_flags(p_adapt, AdaptationConfig)
    p_adapt.set_defaults(func=cmd_adapt)

    p_base = commands.add_parser("baseline", help="single propagation, no projection")
    _add_io_arguments(p_base)
    p_base.add_argument("--sigma", type=float, default=AdaptationConfig.sigma)
    p_base.set_defaults(func=cmd_baseline)

    p_gen = commands.add_parser("gen-synth", help="write a synthetic benchmark")
    p_gen.add_argument("--out-dir", required=True)
    _add_field_flags(p_gen, SyntheticSpec)
    p_gen.set_defaults(func=cmd_gen_synth)

    p_eval = commands.add_parser("eval", help="score saved soft labels")
    p_eval.add_argument("pred_soft_labels", help="CSV written by adapt or baseline")
    p_eval.add_argument("truth_labels", help="one integer per line")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def _load_inputs(args):
    """Domains, target labels and the output directory, all checked before any solve.

    A missing or wrong-length label file, or an ``--out`` that exists and is
    not a directory, fails here rather than after the solve has run.  The
    directory itself is made only when there are results to write.
    """
    x_s = load_features_csv(args.source_features)
    labels_s = load_labels(args.source_labels)
    y_s = make_one_hot(labels_s, num_classes=int(labels_s.max()) + 1)
    x_t = load_features_csv(args.target_features)
    truth = None
    if args.target_labels:
        truth = load_labels(args.target_labels)
        check_truth_shape((x_t.shape[1],), truth)
    out_dir = Path(args.out)
    if out_dir.exists() and not out_dir.is_dir():  # what mkdir would raise after the solve
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(out_dir))
    return x_s, y_s, x_t, truth, out_dir


def _write_outputs(result: AdaptationResult, config_echo: dict, truth, out_dir: Path,
                   duration: float) -> float | None:
    """Write ``report.json`` and ``soft_labels.csv`` into ``out_dir``; return the accuracy."""
    overall, per_class = (None, None) if truth is None else accuracy(result.hard_labels, truth)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "config": config_echo,
        "overall_accuracy": overall,
        "per_class_accuracy": per_class,  # json writes the class ids as strings
        "class_weights": result.class_weights.tolist(),
        "class_mask": [int(v > 0) for v in result.class_weights],
        "iterations_run": result.iterations_run,
        "history": [asdict(rec) for rec in result.history],
        "warnings": {
            "mask_fallbacks": sum(r.mask_fallbacks for r in result.history),
            "graph_fallbacks": sum(r.graph_fallbacks for r in result.history),
        },
        "duration_seconds": duration,
        "numpy_version": np.__version__,
        "blas_threads": blas_threads(),  # the bits of a run hold at a fixed thread count
        "format": "partialda-report",
        "version": 2,
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    save_features_csv(result.soft_labels, out_dir / "soft_labels.csv")  # one target per row
    return overall


def _run(args, kind: str, solve, config_echo: dict) -> int:
    """Load and check the inputs, time ``solve(x_s, y_s, x_t)``, write the outputs, summarize.

    ``solve`` looks ``adapt`` or ``baseline_propagate`` up on this module
    when it runs, so a wrapper set there sees the call.
    """
    x_s, y_s, x_t, truth, out_dir = _load_inputs(args)
    start = time.perf_counter()
    result = solve(x_s, y_s, x_t)
    duration = time.perf_counter() - start
    overall = _write_outputs(result, config_echo, truth, out_dir, duration)
    acc = "n/a" if overall is None else f"{overall:.4f}"
    print(f"{kind}: accuracy={acc} "
          f"surviving_classes={np.count_nonzero(result.class_weights)} "
          f"iterations={result.iterations_run}")
    return 0


def cmd_adapt(args) -> int:
    config = _from_args(AdaptationConfig, args)  # checked before any file is read
    return _run(args, "adapt", lambda *domains: adapt(*domains, config), asdict(config))


def cmd_baseline(args) -> int:
    return _run(args, "baseline",
                lambda *domains: baseline_propagate(*domains, sigma=args.sigma),
                {"sigma": args.sigma})


def cmd_gen_synth(args) -> int:
    spec = _from_args(SyntheticSpec, args)
    dataset = generate_synthetic(spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_features_csv(dataset.x_s, out_dir / "source_features.csv")
    save_labels(dataset.y_s, out_dir / "source_labels.txt")
    save_features_csv(dataset.x_t, out_dir / "target_features.csv")
    save_labels(dataset.y_t, out_dir / "target_labels.txt")
    (out_dir / "spec.json").write_text(json.dumps(asdict(spec), indent=2) + "\n",
                                       encoding="utf-8")
    print(f"gen-synth: wrote {dataset.x_s.shape[1]} source and "
          f"{dataset.x_t.shape[1]} target samples to {out_dir}")
    return 0


def cmd_eval(args) -> int:
    p = load_features_csv(args.pred_soft_labels)
    truth = load_labels(args.truth_labels)
    pred = hard_labels(p)
    overall, per_class = accuracy(pred, truth)
    print(f"overall_accuracy {overall:.6f}")
    for c in sorted(per_class):
        print(f"class {c} accuracy {per_class[c]:.6f}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValidationError, ConfigurationError, ParseError) as exc:
        print(f"partialda: error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        name = exc.filename if exc.filename else exc
        print(f"partialda: error: file not found: {name}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"partialda: error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"partialda: numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

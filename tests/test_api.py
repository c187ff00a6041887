"""The public API: the names ``partialda`` exports and what importing it loads."""

import argparse
import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import partialda
import partialda.graph
import partialda.pipeline
import partialda.subspace
from partialda import AdaptationConfig, AdaptationResult, IterationRecord, SyntheticSpec
from partialda.cli import build_parser, main

PUBLIC = [
    "adapt",
    "baseline_propagate",
    "AdaptationConfig",
    "AdaptationResult",
    "IterationRecord",
    "SyntheticSpec",
    "SyntheticDataset",
    "generate_synthetic",
    "make_one_hot",
    "accuracy",
    "load_features_csv",
    "save_features_csv",
    "load_labels",
    "save_labels",
    "AdaptationError",
    "ConfigurationError",
    "NumericalError",
    "ParseError",
    "ValidationError",
]


def test_public_api_is_pinned():
    assert len(PUBLIC) == 19
    assert sorted(partialda.__all__) == sorted(PUBLIC + ["__version__"])
    for name in partialda.__all__:
        assert getattr(partialda, name) is not None, name


def public_definitions(module):
    """The public functions and classes a module defines itself, sorted."""
    return sorted(
        name for name, value in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    )


def test_graph_surface_is_pinned():
    # one route through the graph: build, reweight and solve happen in one call
    assert public_definitions(partialda.graph) == ["propagate_labels"]


def test_subspace_surface_is_pinned():
    # one call per round: solve_projection checks its inputs, builds its
    # factors and returns the objective; the dense oracles solve their
    # class-indicator systems themselves
    assert public_definitions(partialda.subspace) == [
        "Projection", "WhitenedData", "gram_matrix", "solve_projection"]


def test_pipeline_surface_is_pinned():
    # the loop and its baseline; the class-weight policy is the loop's own,
    # and apply_mask stays public as the boundary of a round
    assert public_definitions(partialda.pipeline) == [
        "AdaptationResult", "IterationRecord", "adapt", "apply_mask", "baseline_propagate"]


def test_result_fields_are_pinned():
    # a run's whole state; the round count is the history's length, not a field
    assert [f.name for f in dataclasses.fields(AdaptationResult)] == [
        "projection", "soft_labels", "hard_labels", "class_weights", "history"]
    record = IterationRecord(objective=1.0, label_change_fraction=0.0, surviving_classes=1,
                             mask_fallbacks=0, graph_fallbacks=0)
    weights = np.ones(1)
    for history in ([], [record, record]):
        result = AdaptationResult(None, weights[:, None], np.zeros(1, int), weights, history)
        assert result.iterations_run == len(history)
    with pytest.raises(AttributeError):
        result.iterations_run = 0


CONFIG_FIELDS = [
    "alpha_p",
    "alpha_c",
    "lam",
    "k",
    "sigma",
    "delta",
    "max_iterations",
]
IO_ARGUMENTS = ["source_features", "source_labels", "target_features", "target_labels", "out"]


SPEC_FIELDS = {
    "num_source_classes": int,
    "num_target_classes": int,
    "dim": int,
    "samples_per_class_source": int,
    "samples_per_class_target": int,
    "cluster_radius": float,
    "noise_std": float,
    "shift_rotation_deg": float,
    "shift_translation": float,
    "seed": int,
}


def subcommands():
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_config_knobs_are_pinned():
    assert [f.name for f in dataclasses.fields(AdaptationConfig)] == CONFIG_FIELDS


def test_adapt_flags_mirror_the_config_fields():
    adapt = subcommands()["adapt"]
    actions = [a for a in adapt._actions if a.dest != "help"]
    assert sorted(a.dest for a in actions) == sorted(CONFIG_FIELDS + IO_ARGUMENTS)
    flags = {a.dest: a.option_strings for a in actions}
    for name in CONFIG_FIELDS + IO_ARGUMENTS:
        want = "--lambda" if name == "lam" else "--" + name.replace("_", "-")
        assert flags[name] == [want], name
    defaults = AdaptationConfig()
    for name in CONFIG_FIELDS:
        assert adapt.get_default(name) == getattr(defaults, name), name


def test_gen_synth_flags_mirror_the_spec_fields():
    assert [f.name for f in dataclasses.fields(SyntheticSpec)] == list(SPEC_FIELDS)
    gen = subcommands()["gen-synth"]
    actions = {a.dest: a for a in gen._actions if a.dest != "help"}
    assert sorted(actions) == sorted([*SPEC_FIELDS, "out_dir"])
    assert actions["out_dir"].option_strings == ["--out-dir"] and actions["out_dir"].required
    defaults = SyntheticSpec()
    for name, kind in SPEC_FIELDS.items():
        assert actions[name].option_strings == ["--" + name.replace("_", "-")], name
        assert actions[name].type is kind, name
        assert gen.get_default(name) == getattr(defaults, name), name
        assert type(getattr(defaults, name)) is kind, name


def test_baseline_sigma_defaults_to_the_config_sigma():
    assert subcommands()["baseline"].get_default("sigma") == AdaptationConfig().sigma


@pytest.mark.parametrize("command", ["adapt", "baseline", "gen-synth", "eval"])
def test_every_subcommand_help_exits_zero(command, capsys):
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: partialda {command}")


def test_removed_kernel_flag_is_a_usage_error(tmp_path, capsys):
    io = [f"--{name.replace('_', '-')}={tmp_path / name}" for name in IO_ARGUMENTS]
    for flag in (["--kernel", "linear"], ["--binary-sample-weights"],
                 ["--convergence-tol", "0.01"]):
        assert main(["adapt", *io, *flag]) == 1
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_import_leaves_oracles_unloaded():
    # the dense reference matrices are for tests and demos, not for the loop
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = ("import sys, partialda, partialda.cli; "
            "assert 'partialda.oracles' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_process_pools_unloaded():
    # feature files are split between readers by os.fork alone: importing a
    # pool module would add to every run's start-up
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = ("import sys, partialda, partialda.cli; "
            "loaded = {'multiprocessing', 'concurrent.futures'} & set(sys.modules); "
            "assert not loaded, loaded")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_import_does_not_look_up_lapack():
    # numpy's LAPACK routines are looked up on the first call, not at import,
    # which stays cheap
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = ("import partialda, partialda.cli, partialda._lapack as l; "
            "assert l._lookup.cache_info().currsize == 0, l._lookup.cache_info()")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr

"""The public API: the names ``partialda`` exports and what importing it loads."""

import os
import subprocess
import sys
from pathlib import Path

import partialda

PUBLIC = [
    "adapt",
    "baseline_propagate",
    "AdaptationConfig",
    "AdaptationResult",
    "IterationRecord",
    "ResultReport",
    "SyntheticSpec",
    "SyntheticDataset",
    "generate_synthetic",
    "make_one_hot",
    "accuracy",
    "load_features_csv",
    "save_features_csv",
    "load_labels",
    "save_labels",
    "save_soft_labels",
    "load_report",
    "save_report",
    "AdaptationError",
    "ConfigurationError",
    "NumericalError",
    "ParseError",
    "ValidationError",
]


def test_public_api_is_pinned():
    assert len(PUBLIC) == 23
    assert sorted(partialda.__all__) == sorted(PUBLIC + ["__version__"])
    for name in partialda.__all__:
        assert getattr(partialda, name) is not None, name


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

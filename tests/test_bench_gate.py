"""The benchmark's soft-label gate, checked on the two datasets nearest to it.

``bench/run.py`` refuses a solve whose soft labels stray more than
``SOFT_TOL`` (1e-10) from ``bench/reference``, or whose hard labels or rounds
differ.  These cases run the same CLI calls on the generator seeds whose
solves sit closest to that bound, so a change that moves the soft labels
fails here and not only in a benchmark run.  Nothing under ``bench`` is
written.
"""

import contextlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from partialda.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_run():
    """``bench/run.py`` as a module, with the environment it pins on import restored."""
    saved, saved_flag = dict(os.environ), sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no bytecode cache under bench
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # its dataclasses look their module up by name
    finally:
        sys.dont_write_bytecode = saved_flag
        os.environ.clear()
        os.environ.update(saved)
    return module


@pytest.mark.parametrize("name, seed", [("adapt-raw", 2), ("adapt-wide", 1)])
def test_solve_stays_within_the_benchmark_gate(bench_run, tmp_path, name, seed):
    workload = bench_run.WORKLOADS[name]
    manifest = json.loads((bench_run.REFERENCE / "manifest.json").read_text())
    recorded = manifest["workloads"][name][str(seed)]
    data, out = tmp_path / "data", tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-synth", "--out-dir", str(data), "--seed", str(seed),
                     *workload.gen_args]) == 0
    assert bench_run.digests(data) == recorded["digests"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(bench_run.instance(workload, seed, data, out).argv) == 0
    p = np.loadtxt(out / "soft_labels.csv", delimiter=",", ndmin=2).T
    with np.load(bench_run.REFERENCE / f"{name}.npz") as ref:
        soft, hard = ref[f"soft_{seed}"], ref[f"hard_{seed}"]
    assert p.shape == soft.shape
    assert np.array_equal(np.argmax(p, axis=0), hard)
    assert np.abs(p - soft).max() <= bench_run.SOFT_TOL
    report = json.loads((out / "report.json").read_text())
    assert report["iterations_run"] == recorded["rounds"]

"""Benchmark of the ``partialda`` command line, driven in process.

One caller in a closed loop calls ``partialda.cli.main(argv)`` for one solve
after another; each solve goes from ``argv`` to ``report.json`` and
``soft_labels.csv`` written.  The inputs of every workload are fixed
``partialda gen-synth`` datasets, one per generator seed; ``--seed`` only
orders the solves.  Every output is checked against the reference in
``bench/reference``.  Run from the repository root:

    python3 bench/run.py --workload adapt-raw --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 25 --trace 1
    python3 bench/run.py --make-reference   # only when outputs change on purpose

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
input digests, the BLAS thread count and the library versions are recorded
in ``bench/reference/manifest.json``; NOTES.md explains the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

# The BLAS pool is sized when numpy loads, so pin it before numpy is
# imported, here and in every child process (they inherit the environment).
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
WORK = BENCH / ".work"

SOFT_TOL = 1e-10  # agreement with the reference soft labels (ROADMAP aim 2)
STOCHASTIC_TOL = 1e-8  # |column sum - 1|; the 4000-target LU solve reaches ~1e-10
NEGATIVE_TOL = 1e-12
IMPORT_SAMPLES = 5
GEN_FILES = ("source_features.csv", "source_labels.txt", "target_features.csv",
             "target_labels.txt", "spec.json")


@dataclass(frozen=True)
class Workload:
    command: str
    gen_args: tuple[str, ...]
    solve_args: tuple[str, ...]


# Why each workload exists, and which layers it should move, is in NOTES.md
# and in the "why" of each workload in BENCHMARK.json.
WORKLOADS = {
    "adapt-raw": Workload(
        "adapt",
        ("--num-source-classes", "10", "--num-target-classes", "5", "--dim", "256",
         "--samples-per-class-source", "160", "--samples-per-class-target", "200"),
        ("--k", "5"),
    ),
    "adapt-wide": Workload(
        "adapt",
        ("--num-source-classes", "31", "--num-target-classes", "10", "--dim", "1024",
         "--noise-std", "1.25",
         "--samples-per-class-source", "30", "--samples-per-class-target", "20"),
        ("--k", "5"),
    ),
    "baseline-large": Workload(
        "baseline",
        ("--num-source-classes", "10", "--num-target-classes", "5", "--dim", "256",
         "--samples-per-class-source", "200", "--samples-per-class-target", "800"),
        (),
    ),
}
GEN_SEEDS = (0, 1, 2)


class BenchError(Exception):
    """The benchmark cannot run: missing program, missing reference or drifted inputs."""


@dataclass
class Instance:
    """One workload dataset and the argv of its solve."""

    seed: int
    data: Path
    out: Path
    argv: list[str]


# ---------------------------------------------------------------- inputs


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def generate(workload: Workload, seed: int, out_dir: Path) -> None:
    """Write one dataset with ``partialda gen-synth`` in a child process.

    A child keeps the generator's memory out of the measured peak RSS.
    """
    cmd = [sys.executable, "-m", "partialda.cli", "gen-synth", "--out-dir", str(out_dir),
           "--seed", str(seed), *workload.gen_args]
    proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise BenchError(f"gen-synth failed ({proc.returncode}): {proc.stderr.strip()}")


def digests(data_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((data_dir / name).read_bytes()).hexdigest()
            for name in GEN_FILES}


def load_manifest() -> dict:
    path = REFERENCE / "manifest.json"
    if not path.is_file():
        raise BenchError(f"no reference manifest at {path}; run with --make-reference")
    return json.loads(path.read_text())


def prepare(name: str, seeds, work: Path, manifest: dict | None) -> list[Instance]:
    """Generate the datasets of one workload and check them against the manifest."""
    workload = WORKLOADS[name]
    instances = []
    for seed in seeds:
        data = work / f"data-{seed}"
        generate(workload, seed, data)
        if manifest is not None:
            recorded = manifest["workloads"].get(name, {}).get(str(seed))
            if recorded is None:
                raise BenchError(f"no reference for {name} generator seed {seed}")
            found = digests(data)
            if found != recorded["digests"]:
                changed = sorted(f for f in GEN_FILES if found[f] != recorded["digests"][f])
                raise BenchError(
                    f"input drift: {name} seed {seed} files {changed} differ from the "
                    "recorded digests; the generator changed, so the workload would be "
                    "silently resized or re-seeded")
        instances.append(instance(workload, seed, data, work / f"out-{seed}"))
    return instances


def instance(workload: Workload, seed: int, data: Path, out: Path) -> Instance:
    argv = [workload.command,
            "--source-features", str(data / "source_features.csv"),
            "--source-labels", str(data / "source_labels.txt"),
            "--target-features", str(data / "target_features.csv"),
            "--target-labels", str(data / "target_labels.txt"),
            "--out", str(out), *workload.solve_args]
    return Instance(seed, data, out, argv)


# ---------------------------------------------------------------- environment


def import_seconds() -> float:
    """Median time to ``import partialda`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import partialda; "
            "print(repr(time.perf_counter() - t))")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def blas_info() -> dict:
    """Library versions and the thread count each loaded OpenBLAS reports."""
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's own OpenBLAS

    def blas_version(module):
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"

    runtime = {}
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                runtime[Path(path).name] = getter()
                break
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(np),
        "scipy_blas": blas_version(scipy),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_runtime": runtime,
    }


# ---------------------------------------------------------------- solving


def solve(main, inst: Instance) -> tuple[float, int]:
    """One timed CLI call; returns wall seconds and exit code."""
    for name in ("soft_labels.csv", "report.json"):
        (inst.out / name).unlink(missing_ok=True)
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(inst.argv)
    except Exception:  # a crash is a failed solve, not the end of the run
        traceback.print_exc()
        code = -1
    return time.perf_counter() - start, code


def read_outputs(inst: Instance) -> tuple[bytes, dict] | None:
    """The written outputs, without the one report field that is a timing."""
    try:
        soft = (inst.out / "soft_labels.csv").read_bytes()
        report = json.loads((inst.out / "report.json").read_text())
    except (OSError, ValueError):
        return None
    report.pop("duration_seconds", None)
    return soft, report


def check(inst: Instance, ref: dict) -> tuple[float | None, str]:
    """Accuracy of the written outputs, or None and the reason they are wrong."""
    try:
        p = np.loadtxt(inst.out / "soft_labels.csv", delimiter=",", ndmin=2).T
        report = json.loads((inst.out / "report.json").read_text())
    except (OSError, ValueError) as exc:
        return None, f"unreadable output: {exc}"
    soft = ref["soft"]
    if p.shape != soft.shape:
        return None, f"soft label shape {p.shape}, reference {soft.shape}"
    if not np.isfinite(p).all():
        return None, "non-finite soft labels"
    if p.min() < -NEGATIVE_TOL or np.abs(p.sum(axis=0) - 1.0).max() > STOCHASTIC_TOL:
        return None, "soft labels are not column-stochastic"
    hard = np.argmax(p, axis=0)
    if not np.array_equal(hard, ref["hard"]):
        return None, f"{int((hard != ref['hard']).sum())} hard labels differ from the reference"
    gap = float(np.abs(p - soft).max())
    if gap > SOFT_TOL:
        return None, f"soft labels differ from the reference by {gap:.3e}"
    if report.get("iterations_run") != ref["rounds"]:
        return None, f"{report.get('iterations_run')} rounds, reference {ref['rounds']}"
    acc = float(np.mean(hard == ref["truth"]))
    if report.get("overall_accuracy") != acc:
        return None, f"report accuracy {report.get('overall_accuracy')}, labels give {acc}"
    return acc, ""


def load_reference(name: str, manifest: dict, instances: list[Instance]) -> dict[int, dict]:
    with np.load(REFERENCE / f"{name}.npz") as arrays:
        refs = {}
        for inst in instances:
            refs[inst.seed] = {
                "soft": arrays[f"soft_{inst.seed}"],
                "hard": arrays[f"hard_{inst.seed}"],
                "truth": np.loadtxt(inst.data / "target_labels.txt", dtype=int, ndmin=1),
                "rounds": manifest["workloads"][name][str(inst.seed)]["rounds"],
            }
    return refs


def schedule(instances, seed: int):
    """Instances in closed-loop order: seeded shuffled passes, forever."""
    rng = random.Random(seed)
    while True:
        order = list(instances)
        rng.shuffle(order)
        yield from order


def per_solve(times: dict[int, list[float]]) -> float:
    """Median seconds of each dataset's solve, averaged over the datasets.

    This is the median pass total divided by the solves in a pass, and it
    does not depend on which datasets the time limit cut.  Only correct
    solves are timed; a dataset without one is left out, and 0 means that
    no solve was correct.
    """
    medians = [statistics.median(t) for t in times.values() if t]
    return statistics.fmean(medians) if medians else 0.0


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "B"
    return {"peak_rss_mib": "MiB", "accuracy": "fraction"}.get(metric, "count")


def measure(name: str, seed: int, seconds: float, trace: bool, gen_seeds) -> dict:
    """Run one workload for ``seconds`` and return its metrics and counts."""
    sys.path.insert(0, str(SRC))
    import partialda.cli as cli
    import partialda.pipeline as pipeline
    import spans

    manifest = load_manifest()
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        instances = prepare(name, gen_seeds, work, manifest)
        refs = load_reference(name, manifest, instances)
        print(f"# inputs: {len(instances) * len(GEN_FILES)} files match the recorded digests")
        setup_s = import_seconds()
        print(f"# env {json.dumps(blas_info(), sort_keys=True)}")

        # One tiny solve through each path first, so that what numpy and
        # scipy load lazily is not charged to the first timed solve.
        tiny_workload = Workload(WORKLOADS[name].command, (), WORKLOADS[name].solve_args)
        generate(tiny_workload, 0, work / "warmup")
        tiny = instance(tiny_workload, -1, work / "warmup", work / "warmup-out")
        tracer = spans.Tracer([cli, pipeline])
        solve(cli.main, tiny)
        if trace:
            with tracer.installed():
                solve(cli.main, tiny)
            tracer.spans.clear()

        plain: dict[int, list[float]] = {i.seed: [] for i in instances}
        traced: dict[int, list[float]] = {i.seed: [] for i in instances}
        accuracies: dict[int, float] = {}
        last: dict[int, float] = {}
        attempted, failures = 0, []
        started = time.perf_counter()
        for step, inst in enumerate(schedule(instances, seed)):
            # After one full pass, start a solve only if it should end in time.
            if (step >= len(instances)
                    and time.perf_counter() - started + last[inst.seed] > seconds):
                break
            wall, code = solve(cli.main, inst)
            attempted += 1
            acc, why = check(inst, refs[inst.seed]) if code == 0 else (None, f"exit code {code}")
            if acc is None:
                failures.append(f"{name} seed {inst.seed}: {why}")
            else:
                plain[inst.seed].append(wall)
                accuracies[inst.seed] = acc
            if trace and acc is not None:
                untraced = read_outputs(inst)
                tracer.solve += 1
                with tracer.installed():
                    t_wall, t_code = solve(cli.main, inst)
                wall += t_wall
                attempted += 1
                if t_code != 0 or read_outputs(inst) != untraced:
                    failures.append(f"{name} seed {inst.seed}: traced outputs differ from "
                                    f"untraced outputs (exit code {t_code})")
                else:
                    traced[inst.seed].append(t_wall)
            last[inst.seed] = wall
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    end_to_end = {
        "solve_s": per_solve(plain),
        "peak_rss_mib": peak_rss_mib,
        "accuracy": statistics.fmean(accuracies.values()) if accuracies else 0.0,
        "setup_s": setup_s,
    }
    for failure, times in Counter(failures).items():
        print(f"# FAILED {failure} ({times}x)", file=sys.stderr)
    print(f"# untraced solve seconds by generator seed: {json.dumps(plain)}")
    result = {"attempted": attempted, "failed": len(failures), "end_to_end": end_to_end}
    if trace:
        path = WORK / "traces" / f"{name}-seed{seed}.json"
        tracer.dump(path)
        print(f"# traced solve seconds by generator seed: {json.dumps(traced)}")
        print(f"# {len(tracer.spans)} spans of {tracer.solve} traced solves written to {path}")
        layers = spans.layer_metrics(tracer.spans, max(tracer.solve, 1))
        layers["trace.overhead_s"] = (
            per_solve(traced) - end_to_end["solve_s"] if tracer.solve else 0.0)
        result["per_layer"] = layers
    return result


def summary_line(name: str, result: dict) -> str:
    e2e = result["end_to_end"]
    fraction = result["failed"] / result["attempted"]
    return (f"{name}: solve_s={e2e['solve_s']:.4f} s "
            f"peak_rss_mib={e2e['peak_rss_mib']:.1f} MiB "
            f"accuracy={e2e['accuracy']:.4f} fraction "
            f"failed_fraction={fraction:.4f} ({result['failed']}/{result['attempted']}) "
            f"setup_s={e2e['setup_s']:.4f} s")


def result_json(result: dict, trace: bool) -> dict:
    metrics = result["per_layer"] if trace else result["end_to_end"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    lines = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--gen-seeds", args.gen_seeds]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        out = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not out:
            raise BenchError(f"workload {name} exited with code {proc.returncode}")
        print("\n".join(out[:-1]))
        doc = json.loads(out[-1])
        combined["correct"] &= doc["correct"]
        combined["attempted"] += doc["attempted"]
        combined["failed"] += doc["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in doc["metrics"].items()})
        lines.append(next(line for line in out if line.startswith(f"{name}: ")))
    print("\n".join(lines))
    print(json.dumps(combined))
    return 0


def make_reference(gen_seeds) -> None:
    """Record input digests and the outputs of this commit as the reference."""
    sys.path.insert(0, str(SRC))
    import partialda.cli as cli

    manifest = {
        "about": "Inputs and outputs of the benchmark solves; written by "
                 "bench/run.py --make-reference.",
        "environment": blas_info(),
        "workloads": {},
    }
    REFERENCE.mkdir(exist_ok=True)
    for name in WORKLOADS:
        work = WORK / f"reference-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            arrays, entries = {}, {}
            for inst in prepare(name, gen_seeds, work, None):
                _, code = solve(cli.main, inst)
                if code != 0:
                    raise BenchError(f"{name} seed {inst.seed} exited with code {code}")
                p = np.loadtxt(inst.out / "soft_labels.csv", delimiter=",", ndmin=2).T
                report = json.loads((inst.out / "report.json").read_text())
                arrays[f"soft_{inst.seed}"] = p
                arrays[f"hard_{inst.seed}"] = np.argmax(p, axis=0)
                entries[str(inst.seed)] = {
                    "digests": digests(inst.data),
                    "rounds": report["iterations_run"],
                    "accuracy": report["overall_accuracy"],
                    "surviving_classes": int(sum(report["class_mask"])),
                }
                print(f"{name} seed {inst.seed}: {entries[str(inst.seed)]['rounds']} rounds, "
                      f"accuracy {report['overall_accuracy']}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        np.savez_compressed(REFERENCE / f"{name}.npz", **arrays)
        manifest["workloads"][name] = entries
    (REFERENCE / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="orders the solves")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--gen-seeds", default=",".join(map(str, GEN_SEEDS)),
                        help="comma-separated gen-synth seeds, one dataset each")
    parser.add_argument("--make-reference", action="store_true")
    args = parser.parse_args(argv)
    gen_seeds = [int(s) for s in args.gen_seeds.split(",")]
    try:
        if not (SRC / "partialda" / "__init__.py").is_file():
            raise BenchError(f"partialda sources not found under {SRC}")
        if args.make_reference:
            make_reference(gen_seeds)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return run_all(args)
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), gen_seeds)
    except BenchError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2
    print(summary_line(args.workload, result))
    if args.trace:
        for k, v in result["per_layer"].items():
            print(f"{args.workload}: {k}={v:.6g} {unit(k)}")
    print(json.dumps(result_json(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span recording around the calls the partialda CLI and pipeline make.

The program has no tracing of its own yet, so the benchmark records spans
from outside: :meth:`Tracer.installed` rebinds every public partialda
function that ``partialda.cli`` and ``partialda.pipeline`` look up as a
module attribute to a wrapper that records one span per call, and restores
the originals on exit.  A span's layer is the module that defines the
function (``partialda.graph.build_graph`` belongs to ``graph``).  Spans stay
in memory; :func:`layer_metrics` reduces them to the per-layer metrics and
:meth:`Tracer.dump` writes them out once the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    solve: int  # spans of one solve share this identifier
    count: float = 0.0


def _nbytes(arr) -> int:
    return int(arr.nbytes)


# Work counted at the same boundaries as the spans, from each call's result.
COUNTERS = {
    "load_features_csv": lambda x: int(x.size),
    "load_labels": lambda x: int(x.size),
    "build_m0": _nbytes,
    "build_mp": _nbytes,
    "build_mc": _nbytes,
    "combine": _nbytes,
    "build_center_operators": lambda ops: ops.y_st.nbytes + ops.y_c.nbytes + ops.mu.nbytes,
    "solve_projection": lambda proj: int(proj.a.shape[0]),
    "build_graph": lambda g: g.w_ts.nbytes + g.w_tt.nbytes,
    "adapt": lambda result: int(result.iterations_run),
}


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self, modules):
        self.modules = modules
        self.spans: list[Span] = []
        self.solve = 0
        self._stack: list[int] = []

    def _wrap(self, fn, layer: str):
        name = fn.__name__
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, layer, time.perf_counter(), 0.0, parent, self.solve)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.count = counter(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Trace every call made through the given modules' attributes."""
        saved = []
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or not value.__module__.startswith("partialda.")):
                    continue
                saved.append((module, attr, value))
                setattr(module, attr, self._wrap(value, value.__module__.split(".")[-1]))
        try:
            yield self
        finally:
            for module, attr, value in saved:
                setattr(module, attr, value)

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n")


# Per-layer stage timers: the summed span time of these functions.  None of
# them calls another traced function, so span time is also self time.
STAGES = {
    "data.load_s": ("load_features_csv", "load_labels"),
    "data.save_s": ("save_report", "save_soft_labels"),
    "alignment.m0_s": ("build_m0",),
    "alignment.mp_s": ("build_center_operators", "build_mp"),
    "alignment.mc_s": ("build_mc",),
    "alignment.combine_s": ("combine",),
    "alignment.weights_s": ("compute_class_weights", "binarize_weights",
                            "source_sample_weights", "apply_mask"),
    "subspace.solve_s": ("solve_projection",),
    "subspace.embed_s": ("embed",),
    "subspace.objective_s": ("projection_objective",),
    "subspace.gram_s": ("gram_matrix",),
    "graph.build_s": ("build_graph",),
    "graph.reweight_s": ("reweight_graph",),
    "graph.propagate_s": ("propagate",),
}
# Layers whose own code sits between traced calls: reported as self time.
SELF_LAYERS = ("core", "cli", "pipeline")
ALIGNMENT_OUTPUTS = ("build_m0", "build_mp", "build_mc", "combine", "build_center_operators")


def layer_metrics(spans: list[Span], solves: int) -> dict[str, float]:
    """Per-solve layer metrics from the spans of ``solves`` traced solves.

    Times and counts are per solve, except ``pipeline.round_s`` and
    ``alignment.matrix_bytes`` (per adaptation round) and the two sizes
    ``subspace.pencil_dim`` and ``graph.affinity_bytes`` (largest seen).
    A layer that no solve called reports zero.
    """
    total = defaultdict(float)
    count = defaultdict(float)
    largest = defaultdict(float)
    child_time = defaultdict(float)
    mask_starts = defaultdict(list)
    for s in spans:
        total[s.name] += s.end - s.start
        count[s.name] += s.count
        largest[s.name] = max(largest[s.name], s.count)
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
            if s.name == "apply_mask":
                mask_starts[s.parent].append(s.start)
    self_time = defaultdict(float)
    for i, s in enumerate(spans):
        self_time[s.layer] += (s.end - s.start) - child_time[i]

    # A round runs from one apply_mask call to the next, the last one to the
    # end of adapt.
    round_time = sum(spans[i].end - starts[0] for i, starts in mask_starts.items())
    rounds = count["adapt"]

    out = {name: sum(total[f] for f in funcs) / solves for name, funcs in STAGES.items()}
    out.update({f"{layer}.self_s": self_time[layer] / solves for layer in SELF_LAYERS})
    out["data.values_parsed"] = (count["load_features_csv"] + count["load_labels"]) / solves
    out["pipeline.rounds"] = rounds / solves
    out["pipeline.round_s"] = round_time / rounds if rounds else 0.0
    out["alignment.matrix_bytes"] = (
        sum(count[f] for f in ALIGNMENT_OUTPUTS) / rounds if rounds else 0.0)
    out["subspace.pencil_dim"] = largest["solve_projection"]
    out["graph.affinity_bytes"] = largest["build_graph"]
    return out

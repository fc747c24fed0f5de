"""Span tracing from outside the program.

Tracer.install wraps every public function of the package, except the
scalar helpers in geometry, in every module namespace that bound it:
winding_area is wrapped in cli, plateau and relaxation as well as in
winding, so calls made through any import are seen.  Each call appends a
span [name, start, end, parent, op] to an in-memory list; hooks read work
counts off arguments and results at the same boundary.  Tracer.restore
puts the originals back.

per_layer_metrics turns the spans and counts of n ops into per-op
values named <module>.<quantity>.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

import numpy as np


def _max_iters_and_tol(args, kwargs):
    options = args[2] if len(args) > 2 else kwargs.get("options")
    if options is None:
        from bvplateau.plateau import PlateauOptions

        options = PlateauOptions()
    return options.max_iters, options.grad_tol


def _minimize(tracer, args, kwargs, result):
    counts = tracer.counts
    max_iters, grad_tol = _max_iters_and_tol(args, kwargs)
    counts["plateau.iterations"] += result.iterations
    for _delta, iters, grad_norm in result.stages:
        counts["plateau.stages"] += 1
        counts["plateau.stages_at_cap"] += iters == max_iters
        counts["plateau.converged_stages"] += grad_norm < grad_tol
    tracer.grad_norms.append(result.grad_norm)


def _arrangement(tracer, args, kwargs, result):
    counts = tracer.counts
    v = np.asarray(args[0].vertices)
    m = int(np.count_nonzero(np.any(v[1:] != v[:-1], axis=1)))
    inputs = set(map(tuple, v.tolist()))
    counts["winding.segments"] += m
    counts["winding.pair_tests"] += m * (m - 1) // 2
    # input vertices keep their coordinates exactly; the rest are cuts
    counts["winding.cut_vertices"] += sum(
        tuple(p) not in inputs for p in np.asarray(result.vertices).tolist()
    )
    counts["winding.faces"] += len(result.faces)


def _grid(tracer, args, kwargs, result):
    counts = tracer.counts
    counts["winding.grid_samples"] += result.samples


def _mesh(tracer, args, kwargs, result):
    counts = tracer.counts
    counts["meshing.vertices"] += result.n_vertices
    counts["meshing.triangles"] += len(result.triangles)


def _evaluate_many(tracer, args, kwargs, result):
    counts = tracer.counts
    counts["curves.evaluate_many_points"] += len(result)


HOOKS = {
    "plateau.jacobian_tv_minimize": _minimize,
    "winding.build_arrangement": _arrangement,
    "winding.winding_area_grid": _grid,
    "meshing.make_disk_mesh": _mesh,
    "curves.evaluate_many": _evaluate_many,
}


# geometry's scalar helpers (cross2 and friends) run hundreds of thousands of
# times in one arrangement; spans around them add about 0.3 s to each op
UNTRACED = ("bvplateau.geometry",)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[str, float] = defaultdict(float)
        self.grad_norms: list[float] = []  # final sup-norm gradient of each minimisation
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self, modules) -> None:
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("bvplateau.") or obj.__module__ in UNTRACED:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])

    def restore(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper


# (metric, span name) pairs reported as inclusive seconds per op
TIMED = [
    ("plateau.minimize_s", "plateau.jacobian_tv_minimize"),
    ("plateau.jacobian_tv_s", "plateau.jacobian_tv"),
    ("winding.build_arrangement_s", "winding.build_arrangement"),
    ("winding.grid_s", "winding.winding_area_grid"),
    ("meshing.make_disk_mesh_s", "meshing.make_disk_mesh"),
    ("curveio.load_curve_s", "curveio.load_curve"),
    ("curves.completed_curve_s", "curves.completed_curve"),
    ("curves.total_variation_s", "curves.total_variation"),
    ("curves.mollify_sequence_s", "curves.mollify_sequence"),
    ("curves.evaluate_many_s", "curves.evaluate_many"),
    ("curves.l1_distance_s", "curves.l1_distance"),
    ("homogeneous.graph_area_term_s", "homogeneous.graph_area_term"),
    ("homogeneous.singular_term_s", "homogeneous.singular_term"),
    ("homogeneous.tangential_variation_s", "homogeneous.tangential_variation"),
    ("relaxation.strict_convergence_report_s", "relaxation.strict_convergence_report"),
    ("relaxation.recovery_sequence_s", "relaxation.recovery_sequence"),
    ("relaxation.area_functional_s", "relaxation.area_functional"),
    ("relaxation.slicing_check_s", "relaxation.slicing_check"),
]

# (metric, span name) pairs reported as calls per op
CALLS = [
    ("plateau.minimize_calls", "plateau.jacobian_tv_minimize"),
    ("winding.build_arrangement_calls", "winding.build_arrangement"),
    ("curves.completed_curve_calls", "curves.completed_curve"),
    ("relaxation.minimize_for_profile_calls", "relaxation.minimize_for_profile"),
]

# work counts reported per op
COUNTED = [
    "plateau.iterations", "plateau.stages_at_cap",
    "winding.segments", "winding.pair_tests", "winding.cut_vertices", "winding.faces",
    "winding.grid_samples", "meshing.vertices", "meshing.triangles",
    "curves.evaluate_many_points",
]

OP_SPAN = "cli.main"


def per_layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-op inclusive time and calls of each traced function, work
    counts per op, and the CLI's self time: op time not covered by the
    op's direct child spans.  Nested calls of a function inside itself
    are counted once in its time."""
    spans = tracer.spans
    inclusive: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    child_time: dict[int, float] = defaultdict(float)
    for i, (name, start, end, parent, _op) in enumerate(spans):
        calls[name] += 1
        if parent is not None:
            child_time[parent] += end - start
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            inclusive[name] += end - start
    self_s = sum(
        (end - start) - child_time[i]
        for i, (name, start, end, _p, _o) in enumerate(spans)
        if name == OP_SPAN
    )
    n = max(n_ops, 1)
    c = tracer.counts
    out = {metric: inclusive[span] / n for metric, span in TIMED}
    out.update({metric: calls[span] / n for metric, span in CALLS})
    out.update({name: c[name] / n for name in COUNTED})
    out["cli.self_s"] = self_s / n
    iters = c["plateau.iterations"]
    out["plateau.s_per_iter"] = inclusive["plateau.jacobian_tv_minimize"] / iters if iters else 0.0
    stages = c["plateau.stages"]
    out["plateau.converged_stage_share"] = c["plateau.converged_stages"] / stages if stages else 0.0
    out["plateau.final_grad_norm"] = float(np.median(tracer.grad_norms)) if tracer.grad_norms else 0.0
    pairs = c["winding.pair_tests"]
    out["winding.cut_hit_ratio"] = c["winding.cut_vertices"] / pairs if pairs else 0.0
    return out

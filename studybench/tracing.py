"""Spans and counts around the program's public functions, installed from
outside the program by replacing module and class attributes in the round
process before the study starts.

Each wrapped call records one span (name, start, end, parent, level) in
memory. A layer's self time is the duration of its spans minus the time
their wrapped callees took, so every interval of the study is charged to
exactly one layer; time in no wrapped call is charged to `cli.self_s`.
"""

import functools
import sys
import time
from collections import Counter, defaultdict
from dataclasses import replace

PACKAGE = "spacetime_hp"

# (layer, owner inside the package, attributes): module functions are
# replaced in every loaded module of the package that imported them by name;
# class attributes are replaced on the class.
LAYERS = [
    ("spatial_fem.refine", "spatial_fem", ["uniform_interval_mesh", "lshape_mesh", "refine_uniform", "refine_graded"]),
    ("spatial_fem.assemble", "spatial_fem", ["assemble_spatial"]),
    ("spatial_fem.quadrature", "spatial_fem.SpatialQuadrature", ["__init__", "moments", "fe_values", "l2_norm_sq"]),
    ("temporal_hp.mesh", "temporal_hp", ["build_mesh", "uniform_mesh", "make_basis"]),
    ("temporal_hp.basis_eval", "temporal_hp.TemporalBasis", ["eval_all", "eval_element"]),
    ("hilbert.assemble", "hilbert", ["assemble"]),
    ("solver.project_rhs", "solver", ["project_rhs"]),
    ("solver.solve", "solver", ["solve"]),
    ("metrics.error", "metrics", ["l2q_error_element_parts"]),
]
# fields of the problem returned by get_problem
PROBLEM_LAYERS = [("problems.forcing", ["g"]), ("problems.exact", ["u_exact", "du_dt_exact"])]
ROOT_LAYER = "cli.self"

TIME_METRICS = [layer for layer, _, _ in LAYERS] + [layer for layer, _ in PROBLEM_LAYERS] + [ROOT_LAYER]
COUNT_METRICS = [
    "hilbert.element_pairs",
    "problems.forcing_calls",
    "problems.forcing_points",
    "problems.exact_calls",
    "problems.exact_points",
    "spatial_fem.quadrature_points",
    "solver.splu_calls",
]


def _quadrature_points(result, quad, *args, **kwargs):
    return {"spatial_fem.quadrature_points": len(quad.weights)}


def _element_pairs(result, basis, *args, **kwargs):
    return {"hilbert.element_pairs": basis.mesh.m**2}


def _points(prefix):
    def count(result, t, x, *args, **kwargs):
        return {f"{prefix}_calls": 1, f"{prefix}_points": len(x)}

    return count


COUNTERS = {
    "spatial_fem.quadrature": _quadrature_points,
    "hilbert.assemble": _element_pairs,
    "problems.forcing": _points("problems.forcing"),
    "problems.exact": _points("problems.exact"),
}


def _resolve(path):
    """The module or class named by a dotted path inside the package, or None."""
    parts = path.split(".")
    obj = sys.modules.get(f"{PACKAGE}.{parts[0]}")
    for part in parts[1:]:
        obj = getattr(obj, part, None)
    return obj


def replace_everywhere(original, replacement):
    """Rebind every name in the package's loaded modules that refers to
    `original`, so callers that imported it by name see the replacement."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Recorder:
    """In-memory spans and counts for one traced study."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, level]
        self.layer_of = {}  # span name -> layer
        self.open = []  # (span index, name) of the calls in progress
        self.counts = Counter()
        self.level = 0
        self.absent = []

    def wrap(self, layer, name, fn):
        count = COUNTERS.get(layer)
        self.layer_of[name] = layer
        spans, open_, clock = self.spans, self.open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, open_[-1][0] if open_ else -1, self.level])
            open_.append((idx, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[idx][1:3] = start, end
            if count is not None:
                self.counts.update(count(result, *args, **kwargs))
            return result

        return traced

    def install(self):
        """Wrap every layer that exists in the loaded package; a name that no
        longer exists is reported as absent."""
        for layer, owner_path, attrs in LAYERS:
            owner = _resolve(owner_path)
            for attr in attrs:
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    self.absent.append(f"{owner_path}.{attr}")
                    continue
                wrapped = self.wrap(layer, f"{owner_path}.{attr}", fn)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapped)
                else:
                    replace_everywhere(fn, wrapped)
        self._install_problem_hooks()
        self._install_splu_counter()

    def _install_problem_hooks(self):
        get_problem = getattr(_resolve("problems"), "get_problem", None)
        if get_problem is None:
            self.absent.append("problems.get_problem")
            return
        recorder = self

        @functools.wraps(get_problem)
        def traced_problem(*args, **kwargs):
            prob = get_problem(*args, **kwargs)
            fields = {}
            for layer, attrs in PROBLEM_LAYERS:
                for attr in attrs:
                    fn = getattr(prob, attr, None)
                    if fn is None:
                        recorder.absent.append(f"problems.{attr}")
                    else:
                        fields[attr] = recorder.wrap(layer, f"problems.{attr}", fn)
            return replace(prob, **fields)

        replace_everywhere(get_problem, traced_problem)

    def _install_splu_counter(self):
        solver = _resolve("solver")
        spla = getattr(solver, "spla", None)
        if spla is None or not hasattr(spla, "splu"):
            self.absent.append("solver.spla.splu")
            return
        splu, open_, counts = spla.splu, self.open, self.counts

        @functools.wraps(splu)
        def counted(*args, **kwargs):
            if any(name == "solver.solve" for _, name in open_):
                counts["solver.splu_calls"] += 1
            return splu(*args, **kwargs)

        spla.splu = counted

    def self_times(self):
        """Self seconds per layer, in total and per level."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        by_level = defaultdict(lambda: defaultdict(float))
        for (name, start, end, _, level), inner in zip(self.spans, child):
            layer = self.layer_of[name]
            total[layer] += end - start - inner
            by_level[level][layer] += end - start - inner
        return total, by_level

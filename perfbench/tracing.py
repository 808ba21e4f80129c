"""Span recorder for the traced benchmark run.

The library has no timers of its own, so the traced run wraps the public
functions of each layer from outside and rebinds every name that points at
them: module globals (``darcy_linear`` calls ``assemble`` and ``solve``
directly, ``make_reservoir_mesh`` calls ``make_rectangle_mesh``), module
attributes reached as ``darcy_linear.assemble`` from ``barus_direct`` and
``verification``, and the re-exports in ``poroflow/__init__``.

Each span is kept in memory as [name, start, end, parent, op, attrs] and
written out once, when the run ends.  A span's self time is its duration
minus the durations of its direct children.  End-to-end metrics never come
from a traced run; the recording cost is reported as ``trace.overhead_s``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

clock = time.perf_counter

NAME, START, END, PARENT, OP, ATTRS = range(6)

# Self time per timed op, by span name.
OP_LAYERS = {
    "geometry.mesh_build": "geometry.mesh_build_s",
    "geometry.validate": "geometry.validate_s",
    "geometry.label_lookup": "geometry.label_lookup_s",
    "darcy_linear.solve": "darcy_linear.solve_s",
    "darcy_linear.assemble": "darcy_linear.assemble_s",
    "darcy_linear.post": "darcy_linear.post_s",
    "darcy_linear.transformed": "darcy_linear.transformed_self_s",
    "darcy_linear.flux_direct": "darcy_linear.flux_direct_s",
    "transform.map": "transform.map_s",
    "barus_direct.picard": "barus_direct.picard_self_s",
    "verification.reciprocity": "verification.reciprocity_s",
    "verification.principles": "verification.principles_s",
    "op": "bench.unattributed_s",
}

# Self time per set-up, for the layers that set-up runs (mesh,
# permeability and, on reservoir_sweep, the ceiling-flux calibration).
SETUP_LAYERS = {
    "geometry.mesh_build": "setup.geometry.mesh_build_s",
    "geometry.validate": "setup.geometry.validate_s",
    "geometry.label_lookup": "setup.geometry.label_lookup_s",
    "darcy_linear.assemble": "setup.darcy_linear.assemble_s",
    "darcy_linear.solve": "setup.darcy_linear.solve_s",
    "darcy_linear.post": "setup.darcy_linear.post_s",
    "transform.map": "setup.transform.map_s",
    "verification.calibrate": "setup.verification.calibrate_s",
    "setup": "setup.unattributed_s",
}

# Per-op counts of outermost calls (a nested call of the same layer, such as
# nodes_with_label -> edges_with_label, is part of the outer one).
CALLS = {
    "geometry.label_lookup": "geometry.label_lookup_calls",
    "darcy_linear.solve": "darcy_linear.solve_calls",
    "darcy_linear.assemble": "darcy_linear.assemble_calls",
    "transform.map": "transform.map_calls",
}

COUNTS = {
    "darcy_linear.cg_iterations": "count/solve",
    "darcy_linear.unknowns": "count/solve",
    "darcy_linear.matvec_flops": "computed_flop/op",
    "barus_direct.sweeps": "count/picard",
    "barus_direct.linear_iterations": "count/picard",
    "barus_direct.assembles_per_sweep": "ratio",
    "trace.overhead_s": "s",
}


def metric_units():
    """Every per-layer metric name with its unit."""
    units = {name: "s" for name in OP_LAYERS.values()}
    units.update({name: "s" for name in SETUP_LAYERS.values()})
    units.update({name: "count/op" for name in CALLS.values()})
    units.update(COUNTS)
    return units


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self.overhead = defaultdict(float)  # op id -> seconds spent recording
        self._stack = []

    def _open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def wrap(self, name, fn, annotate=None):
        """``fn`` recording one span per call; ``annotate(args, result)``
        attaches counts to the span after it has ended."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = clock()
            span = self._open(name)
            span[START] = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                self._stack.pop()
            if annotate is not None:
                span[ATTRS] = annotate(args, return_value)
            self.overhead[self.op] += (span[START] - t_in) + (clock() - span[END])
            return return_value

        return traced

    @contextlib.contextmanager
    def root(self, name, op):
        """Top-level span around one set-up (``op="setup"``) or one op."""
        self.op = op
        span = self._open(name)
        span[START] = clock()
        try:
            yield
        finally:
            span[END] = clock()
            self._stack.pop()
            self.op = None

    def write(self, path):
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [
            {"id": i, "name": s[NAME], "start": s[START] - t0, "end": s[END] - t0,
             "parent": s[PARENT], "op": s[OP], **(s[ATTRS] or {})}
            for i, s in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows))


def _solve_counts(args, result):
    """Unknowns and the nonzeros of the reduced matrix CG multiplies by."""
    system = args[0]
    n = system.mesh.n_nodes
    free = np.ones(n, dtype=bool)
    free[list(system.dirichlet_map) or [0]] = False  # pure-velocity: node 0 pinned
    raw = system.raw_matrix.tocsr()
    rows = np.repeat(np.arange(n), np.diff(raw.indptr))
    nnz = int(np.count_nonzero(free[rows] & free[raw.indices]))
    return {"iterations": result.iterations, "unknowns": int(free.sum()), "nnz": nnz}


def _picard_counts(args, result):
    return {"sweeps": result.iterations, "linear_iterations": result.linear_iterations}


def _rebind(original, replacement):
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").split(".")[0] != "poroflow":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer):
    """Wrap each layer's public functions in place for the rest of the process."""
    from poroflow import barus_direct, darcy_linear, geometry, transform, verification

    transform_maps = [
        name for name, fn in vars(transform).items()
        if inspect.isfunction(fn) and fn.__module__ == transform.__name__
        and not name.startswith("_")
    ]
    functions = [
        ("geometry.mesh_build", geometry, ["make_rectangle_mesh", "make_reservoir_mesh"], None),
        ("darcy_linear.assemble", darcy_linear, ["assemble"], None),
        ("darcy_linear.solve", darcy_linear, ["solve"], _solve_counts),
        ("darcy_linear.post", darcy_linear,
         ["mobility_tensors", "transform_bcs", "recover_velocity", "nodal_reactions",
          "boundary_flux"], None),
        ("darcy_linear.transformed", darcy_linear, ["solve_transformed_bvp"], None),
        ("darcy_linear.flux_direct", darcy_linear, ["boundary_flux_direct"], None),
        ("transform.map", transform, transform_maps, None),
        ("barus_direct.picard", barus_direct, ["picard_solve"], _picard_counts),
        ("verification.calibrate", verification, ["calibrate_ceiling_flux"], None),
        ("verification.reciprocity", verification, ["reciprocity_residual_darcy"], None),
        ("verification.principles", verification,
         ["check_min_principle", "check_max_principle"], None),
    ]
    for span_name, module, names, annotate in functions:
        for name in names:
            original = getattr(module, name)
            _rebind(original, tracer.wrap(span_name, original, annotate))

    methods = [
        ("geometry.validate", ["validate"]),
        ("geometry.label_lookup", ["edges_with_label", "nodes_with_label"]),
    ]
    for span_name, names in methods:
        for name in names:
            setattr(geometry.Mesh, name, tracer.wrap(span_name, getattr(geometry.Mesh, name)))


def _inside(spans, i, name):
    parent = spans[i][PARENT]
    while parent is not None:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(tracer, ops, setups):
    """Per-layer metrics over the completed ``ops`` and ``setups`` set-ups."""
    spans = tracer.spans
    done = set(ops)
    children = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]] += s[END] - s[START]

    self_op = defaultdict(float)
    self_setup = defaultdict(float)
    calls = defaultdict(int)
    totals = defaultdict(float)
    for i, s in enumerate(spans):
        name = s[NAME]
        self_time = s[END] - s[START] - children[i]
        if s[OP] == "setup":
            self_setup[name] += self_time
            continue
        if s[OP] not in done:
            continue
        self_op[name] += self_time
        if s[PARENT] is None or spans[s[PARENT]][NAME] != name:
            calls[name] += 1
        attrs = s[ATTRS]  # None when the call raised
        if name == "darcy_linear.solve" and attrs:
            totals["iterations"] += attrs["iterations"]
            totals["unknowns"] += attrs["unknowns"]
            totals["flops"] += 2 * attrs["nnz"] * attrs["iterations"]
        elif name == "barus_direct.picard" and attrs:
            totals["picards"] += 1
            totals["sweeps"] += attrs["sweeps"]
            totals["linear_iterations"] += attrs["linear_iterations"]
        elif name == "darcy_linear.assemble" and _inside(spans, i, "barus_direct.picard"):
            totals["picard_assembles"] += 1

    n_ops = max(len(done), 1)
    solves = max(calls["darcy_linear.solve"], 1)
    picards = max(totals["picards"], 1)
    units = metric_units()
    values = {metric: self_op[layer] / n_ops for layer, metric in OP_LAYERS.items()}
    values.update({metric: self_setup[layer] / setups for layer, metric in SETUP_LAYERS.items()})
    values.update({metric: calls[layer] / n_ops for layer, metric in CALLS.items()})
    values.update({
        "darcy_linear.cg_iterations": totals["iterations"] / solves,
        "darcy_linear.unknowns": totals["unknowns"] / solves,
        "darcy_linear.matvec_flops": totals["flops"] / n_ops,
        "barus_direct.sweeps": totals["sweeps"] / picards,
        "barus_direct.linear_iterations": totals["linear_iterations"] / picards,
        "barus_direct.assembles_per_sweep": totals["picard_assembles"] / max(totals["sweeps"], 1),
        "trace.overhead_s": sum(tracer.overhead[op] for op in done) / n_ops,
    })
    return {name: (values[name], units[name]) for name in units}

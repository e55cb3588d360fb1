"""Outside-in span recorder for the ivhs layers.

The tracer wraps the public entry points of each module from outside the
program: every binding of a target function is replaced, including the
names modules import from each other (``theorem.socle_check``,
``jacobian._fp_rref``), and methods are wrapped on their class.  Each call
records a span (name, start, end, parent) in memory; self time per layer is
computed from the spans when the run ends.  Counters that ratios need (calls,
entries eliminated, unknowns) are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute, layer).  Layer None: the span is recorded, but its self
# time is reported under trace.other_s with the benchmark's own overhead.
TARGETS = (
    ("linalg", "Matrix.rank", "linalg.elim"),
    ("linalg", "Matrix.rref", "linalg.elim"),
    ("linalg", "Matrix.kernel_basis", "linalg.elim"),
    ("linalg", "Matrix.inverse", "linalg.elim"),
    ("linalg", "_fp_rref", "linalg.elim"),
    ("linalg", "Matrix.__matmul__", "linalg.matmul"),
    ("linalg", "Matrix.from_rows", "linalg.build"),
    ("linalg", "Matrix.hstack", "linalg.build"),
    ("linalg", "Matrix.vstack", "linalg.build"),
    ("linalg", "standard_complement", "hodge.chart"),  # builds the chart complement W
    ("polyring", "basis", "polyring.basis"),
    ("jacobian", "JacobianContext.piece", "jacobian.piece"),
    ("jacobian", "action_matrix", "jacobian.action"),
    ("jacobian", "multiplication_map", "jacobian.action"),
    ("jacobian", "macaulay_injectivity_check", "jacobian.action"),
    ("jacobian", "socle_check", "theorem.gate"),
    ("jacobian", "smoothness_probe", "theorem.gate"),
    ("symmetrizers", "symmetrizer_system", "symmetrizers.assembly"),
    ("symmetrizers", "verify_candidate_symmetrizer", "symmetrizers.check"),
    ("symmetrizers", "symmetrizer_space", "symmetrizers.other"),
    ("symmetrizers", "prop4_construction", "symmetrizers.other"),
    ("symmetrizers", "genericity_experiment", "symmetrizers.other"),
    ("symmetrizers", "fiber_forward_check", "symmetrizers.other"),
    ("hodge", "ChartData.__init__", "hodge.chart"),
    ("hodge", "theta_inverse", "hodge.chart"),
    ("hodge", "project", "hodge.chart"),
    ("hodge", "check_integral", "hodge.integral"),
    ("theorem", "smoothness_gate", "theorem.gate"),
    ("theorem", "canonical_symmetrizer_check", "theorem.canonical"),
    ("theorem", "ring_frame_candidate", "theorem.frame"),
    ("theorem", "geometric_frame_candidate", "theorem.frame"),
    ("theorem", "verify_theorem", None),
)

#: Layers reported as ``<layer>_s``, in output order.
TIMED_LAYERS = (
    "linalg.elim", "linalg.matmul", "linalg.build", "polyring.basis",
    "jacobian.piece", "jacobian.action", "symmetrizers.assembly",
    "symmetrizers.check", "symmetrizers.other", "hodge.chart",
    "hodge.integral", "theorem.gate", "theorem.canonical", "theorem.frame",
)
OP_SPAN = "op"  # one span around each traced operation


class SpanRecorder:
    """Spans in flat arrays: name id, start, end and parent span index."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str | None] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.counts: Counter = Counter()
        self.pieces_seen: set = set()  # (id(ctx), degree) asked of the current op

    def _name_id(self, name: str, layer: str | None) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def begin(self, name: str, layer: str | None = None) -> int:
        i = len(self.start)
        self.name.append(self._name_id(name, layer))
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._open.pop()

    def current_layer(self) -> str | None:
        top = self._open[-1]
        return self.layers[self.name[top]] if top >= 0 else None

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span duration minus its children's."""
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        own = dur.copy()
        has_parent = parent >= 0
        np.subtract.at(own, parent[has_parent], dur[has_parent])
        by_name = np.bincount(np.frombuffer(self.name, dtype=np.int32), weights=own,
                              minlength=len(self.names))
        out: Counter = Counter()
        for nid, seconds in enumerate(by_name):
            layer = self.layers[nid]
            out[layer if layer in TIMED_LAYERS else "other"] += float(seconds)
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([self.names[self.name[i]], self.start[i], self.end[i],
                                     self.parent[i]]) + "\n")


def _resolve(module, attr: str):
    """(owner, name, original) for 'func' or 'Class.method' in ``module``."""
    if "." in attr:
        cls_name, name = attr.split(".")
        owner = getattr(module, cls_name)
        return owner, name, owner.__dict__[name]
    return module, attr, getattr(module, attr)


class Tracer:
    """Installs span wrappers on every binding of the targets, and removes them.

    Wrappers are installed only around traced operations, so untraced
    operations in the same process run the unmodified program.
    """

    def __init__(self, rec: SpanRecorder):
        from ivhs import fields, polyring

        self.rec = rec
        self._basis = polyring.basis
        self._bindings: list[tuple[object, str, object, object]] = []  # owner, name, original, wrapper
        wrappers = {}
        for mod_name, attr, layer in TARGETS:
            module = sys.modules[f"ivhs.{mod_name}"]
            owner, name, original = _resolve(module, attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", layer, original)
            if isinstance(owner, type):
                self._bindings.append((owner, name, original, wrapper))
            else:
                wrappers[id(original)] = (original, wrapper)
        # A function imported elsewhere is bound in several modules; replace all.
        modules = [m for n, m in sorted(sys.modules.items()) if n == "ivhs" or n.startswith("ivhs.")]
        for module in modules:
            for name, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((module, name, value, hit[1]))
        coerce = fields.FieldSpec.__dict__["coerce"]
        self._bindings.append((fields.FieldSpec, "coerce", coerce, self._counted(coerce)))

    def _counted(self, coerce):
        counts = self.rec.counts

        # Called millions of times per operation: keep the wrapper minimal.
        @functools.wraps(coerce)
        def counted(field, x):
            counts["coerce_calls"] += 1
            return coerce(field, x)

        return counted

    def _wrap(self, name: str, layer: str | None, original):
        rec = self.rec
        static = isinstance(original, staticmethod)
        fn = original.__func__ if static else original
        after = _HOOKS.get(name)
        nested_elim = layer == "linalg.elim"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top_level = nested_elim and rec.current_layer() != "linalg.elim"
            i = rec.begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.finish(i)
            if top_level:
                rows, cols = _elim_shape(name, args)
                rec.counts["elim_calls"] += 1
                rec.counts["elim_entries"] += rows * cols
            if after is not None:
                after(rec, args, kwargs, result)
            return result

        return staticmethod(wrapper) if static else wrapper

    def install(self) -> None:
        self.rec.pieces_seen.clear()
        for owner, name, _, wrapper in self._bindings:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._bindings:
            setattr(owner, name, original)

    def basis_cache_info(self):
        return self._basis.cache_info()


def _elim_shape(name: str, args) -> tuple[int, int]:
    rows, cols = args[0].shape
    if name.endswith(".inverse"):
        return rows, 2 * cols  # [A | I] is eliminated
    return rows, cols


def _count_piece(rec, args, kwargs, piece) -> None:
    """A piece is built the first time its context is asked for a degree
    (the context caches it), or on every explicit-method request."""
    ctx, m = args[0], args[1]
    method = args[2] if len(args) > 2 else kwargs.get("method", "auto")
    if method == "auto":
        key = (id(ctx), m)
        if key in rec.pieces_seen:
            return
        rec.pieces_seen.add(key)
        method = "monomial" if ctx.has_monomial_ideal else "dense"
    if m >= ctx.d - 1:  # lower degrees hold no ideal part: no elimination
        rec.counts[f"{method}_pieces"] += 1


def _count_action(rec, args, kwargs, result) -> None:
    mat = getattr(result, "matrix", result)
    rec.counts["action_entries"] += mat.rows * mat.cols


def _count_unknowns(rec, args, kwargs, system) -> None:
    rec.counts["unknowns"] += system.cols


def _count_space(rec, args, kwargs, space) -> None:
    rec.counts["spaces"] += 1


_HOOKS = {
    "jacobian.JacobianContext.piece": _count_piece,
    "jacobian.action_matrix": _count_action,
    "jacobian.multiplication_map": _count_action,
    "symmetrizers.symmetrizer_system": _count_unknowns,
    "symmetrizers.symmetrizer_space": _count_space,
}

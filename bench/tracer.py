"""Spans around warpcurv's layer boundaries, installed from outside.

A wrap point is a module attribute that its module looks up at call time.
``closed_form.jet2`` is closed_form's own binding of ``expr.jet2``, so
wrapping it times the expression work closed_form asks for and nothing
else.  The package is never edited; ``uninstall`` puts every original back.

A span records its name, start, end and parent.  Spans are kept in flat
arrays and written out at exit.  A span name's first component is the
layer that owns the wrapped function, and the layer is charged that
span's self time: its duration minus the durations of its direct
children.  Calls nest on one thread, so children never overlap and no
time is counted twice.  The runner checks that the self times of the
reported layers add up to each operation's wall time, timed outside the
operation's root span.
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np

OP = "bench.op"  # root span of one operation; its self time is harness overhead

# (module, attribute, span name)
WRAP_POINTS = (
    ("closed_form", "jet2", "expr.jet2"),
    ("closed_form", "value_and_gradient", "expr.value_and_gradient"),
    ("geometry", "evaluate", "expr.evaluate"),
    ("geometry", "value_and_gradient", "expr.value_and_gradient"),
    ("geometry", "jet2", "expr.jet2"),
    ("warped", "evaluate", "expr.evaluate"),
    ("oracle", "christoffels_of", "geometry.christoffels_of"),
    ("oracle", "metric_at", "geometry.metric_at"),
    ("oracle", "_inverse_of", "geometry._inverse_of"),
    ("warped", "metric_at", "geometry.metric_at"),
    ("closed_form", "_metric_and_first_derivs", "geometry._metric_and_first_derivs"),
    ("closed_form", "_inverse_of", "geometry._inverse_of"),
    ("closed_form", "_christoffels_from_parts", "geometry._christoffels_from_parts"),
    ("closed_form", "bundle_fd", "oracle.bundle_fd.factor"),
    ("geodesics", "christoffels_closed", "closed_form.christoffels_closed"),
    ("geodesics", "_point_data", "closed_form._point_data"),
    ("geodesics", "assemble_metric", "warped.assemble_metric"),
)
# integrate picks its right-hand side from this dict at call time
RHS_POINTS = (("full", "geodesics.rhs_full"), ("split", "geodesics.rhs_split"))

# The benchmark's own calls into the package.
ENTRY_SPANS = {
    "bundle_closed": "closed_form.bundle_closed",
    "bundle_fd": "oracle.bundle_fd.product",
    "compare_bundles": "oracle.compare_bundles",
    "integrate": "geodesics.integrate",
    "as_plain_metric": "warped.as_plain_metric",
    "load_catalog": "manifest.load",
    "parse_manifest": "manifest.load",
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.tags = []  # (index of the next span, label)
        self._stack = [-1]
        self._undo = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        clock = time.perf_counter
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack,
        )

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def tag(self, label: str):
        """Label the spans that follow, up to the next tag."""
        self.tags.append((len(self.name_id), label))

    def install(self, package):
        """Wrap every wrap point of the imported package's modules."""
        for module, attr, name in WRAP_POINTS:
            mod = getattr(package, module)
            orig = getattr(mod, attr)
            setattr(mod, attr, self.wrap(name, orig))
            self._undo.append((mod.__dict__, attr, orig))
        rhs = package.geodesics._RHS
        for key, name in RHS_POINTS:
            orig = rhs[key]
            rhs[key] = self.wrap(name, orig)
            self._undo.append((rhs, key, orig))

    def uninstall(self):
        while self._undo:
            table, key, orig = self._undo.pop()
            table[key] = orig

    @contextlib.contextmanager
    def installed(self, package):
        self.install(package)
        try:
            yield
        finally:
            self.uninstall()

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "tag_index": np.array([i for i, _ in self.tags], dtype=np.int64),
            "tag_label": np.array([label for _, label in self.tags]),
        }

    def save(self, path):
        np.savez(path, **self.arrays())


class Analysis:
    """Per-span self times and per-operation sums of one traced phase."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = list(a["names"])
        self.name_id = a["name_id"]
        parent = a["parent"]
        self.dur = a["end"] - a["start"]
        n = len(self.dur)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=self.dur[has_parent], minlength=n)
        self.self_time = self.dur - child

        # the top ancestor of each span, by pointer jumping
        top = np.arange(n)
        while True:
            up = parent[top]
            moving = up >= 0
            if not moving.any():
                break
            top[moving] = up[moving]
        op_id = self.names.index(OP) if OP in self.names else -1
        self.in_op = self.name_id[top] == op_id
        self.roots = np.flatnonzero((self.name_id == op_id) & ~has_parent)
        self.op_of = np.searchsorted(self.roots, top, side="left")
        self.op_time = float(self.dur[self.roots].sum())

        self.tag_labels = list(a["tag_label"])
        self.tag_of = np.searchsorted(a["tag_index"], np.arange(n), side="right") - 1

    def _mask(self, name: str, tag: str | None = None) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        mask = (self.name_id == self.names.index(name)) & self.in_op
        if tag is not None:
            ids = [i for i, label in enumerate(self.tag_labels) if label == tag]
            mask &= np.isin(self.tag_of, ids)
        return mask

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def us_p50(self, name: str, tag: str | None = None) -> float:
        d = self.dur[self._mask(name, tag)]
        return float(np.median(d) * 1e6) if d.size else 0.0

    def ms_p50_outside_ops(self, name: str) -> float:
        """Median span of a call made outside any operation (set-up)."""
        if name not in self.names:
            return 0.0
        d = self.dur[(self.name_id == self.names.index(name)) & ~self.in_op]
        return float(np.median(d) * 1e3) if d.size else 0.0

    def layer_sum_errors(self, op_seconds, layers) -> np.ndarray:
        """Per operation, |self time of the spans of `layers` - the
        operation's wall time| / wall time.  A span of another layer, or a
        root span that misses part of the operation, shows as an error."""
        ids = [i for i, nm in enumerate(self.names) if nm.split(".")[0] in layers]
        mask = np.isin(self.name_id, ids) & self.in_op
        per_op = np.bincount(self.op_of[mask], weights=self.self_time[mask],
                             minlength=len(self.roots))
        wall = np.asarray(op_seconds, dtype=float)
        return np.abs(per_op - wall) / wall

    def _share(self, ids) -> float:
        mask = np.isin(self.name_id, ids) & self.in_op
        return float(self.self_time[mask].sum() / self.op_time) if self.op_time else 0.0

    def layer_share(self, layer: str) -> float:
        """Self time of a layer's spans over operation wall time."""
        return self._share([i for i, nm in enumerate(self.names) if nm.split(".")[0] == layer])

    def span_share(self, name: str) -> float:
        """Self time of one span name over operation wall time."""
        return self._share([i for i, nm in enumerate(self.names) if nm == name])

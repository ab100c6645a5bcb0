"""Spans around calls into octe6, recorded from outside the package.

``Tracer.install`` replaces every public function of the six layer modules,
and each name that a ``from .x import y`` re-bound in a sibling module or in
the package namespace, with a timing wrapper; ``uninstall`` puts every
original binding back.  Spans (name, start, end, parent, operation id) are
kept in flat in-memory arrays and written out once, after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "octe6"
LAYERS = ("octonion", "jordan", "transform", "generators", "cayley", "cli")

# (module, class, attribute) -> span name
METHODS = {
    ("transform", "NestedMap", "apply"): "transform.apply",
    ("transform", "NestedMap", "as_linear_op"): "transform.as_linear_op",
    ("generators", "GeneratorCurve", "__call__"): "generators.curve_eval",
    ("jordan", "JordanMatrix", "__init__"): "jordan.JordanMatrix.constructed",
}

ROOT = "bench.op"


def _omul_products(x, y, *_):
    return int(np.prod(np.broadcast_shapes(np.shape(x)[:-1], np.shape(y)[:-1]), dtype=np.int64))


def _omatmul_products(A, *_):
    return int(np.shape(A)[0]) ** 3


# octonion products requested per call: batch size of omul, n^3 per omatmul
PRODUCT_COUNTERS = {"octonion.omul": _omul_products, "octonion.omatmul": _omatmul_products}


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.products = 0
        self._stack = [-1]
        self._op_id = -1
        self._bindings: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._id(name)
        counter = PRODUCT_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                self.products += counter(*args)
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def call_op(self, fn, *args):
        """Run one benchmark operation under a root span."""
        self._op_id += 1
        idx = self._open(self._id(ROOT))
        try:
            return fn(*args)
        finally:
            self._close(idx)

    # -- installing and restoring bindings ---------------------------------

    def _modules(self):
        pkg = importlib.import_module(PACKAGE)
        mods = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        return pkg, mods

    def _set(self, namespace, attr: str, value) -> None:
        self._bindings.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        pkg, mods = self._modules()
        wrappers = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for namespace in (pkg, *mods.values()):
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in wrappers:
                    self._set(namespace, attr, wrappers[id(obj)])
        for (layer, cls_name, attr), name in METHODS.items():
            cls = getattr(mods[layer], cls_name)
            self._set(cls, attr, self.wrap(name, cls.__dict__[attr]))

    def uninstall(self) -> None:
        while self._bindings:
            namespace, attr, original = self._bindings.pop()
            setattr(namespace, attr, original)

    # -- aggregation -------------------------------------------------------

    def _durations(self) -> np.ndarray:
        return np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)

    def self_times(self) -> np.ndarray:
        """Per span: duration minus the durations of its direct children."""
        dur = self._durations()
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur - child

    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, summed self seconds)."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        calls = np.bincount(ids, minlength=len(self.names))
        selfs = np.bincount(ids, weights=self.self_times(), minlength=len(self.names))
        return {name: (int(calls[i]), float(selfs[i])) for i, name in enumerate(self.names)}

    def root_seconds(self) -> float:
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        return float(self._durations()[ids == self._ids.get(ROOT, -1)].sum())

    @property
    def ops(self) -> int:
        return self._op_id + 1

    def write(self, path) -> None:
        """All spans as a compressed .npz; a span's parent is an index into the same arrays."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32))

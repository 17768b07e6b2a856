"""Span tracing of qgwalk, installed from outside the package.

``Tracer.install()`` wraps every public function of the layer modules (the
``__all__`` names, or the public names defined in a module without one) and
every public method of their public classes, such as ``CoinSet.validate``.
Each wrapper is rebound under every name that bound the original in any
qgwalk module.  Python looks a module global up when a call is made, so
calls made inside the package are recorded too, for example
``evolution -> coin_operator -> CoinSet.validate -> unitarity_defect``.
Private helpers and closures stay inside their caller's self time.

A span records its name, start, end, parent span and job id.  Spans stay in
compact arrays in memory until ``spans()`` hands them over.  Self time is a
span's duration minus the part its child spans cover; calls are single
threaded, so children nest inside their parent.
"""

from __future__ import annotations

import functools
import importlib
import types
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("graphs", "operators", "coins", "dynamics", "szegedy", "quantum_graph", "cli")


def _public_names(mod) -> list:
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    return [n for n in names if getattr(getattr(mod, n), "__module__", None) == mod.__name__]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.job = -1
        self._patches: list = []
        self.clear()

    def clear(self) -> None:
        self._name_ids = array("i")
        self._parents = array("i")
        self._jobs = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._stack = [-1]

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer._starts)
            tracer._name_ids.append(nid)
            tracer._parents.append(tracer._stack[-1])
            tracer._jobs.append(tracer.job)
            tracer._ends.append(0.0)
            tracer._stack.append(idx)
            tracer._starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._ends[idx] = perf_counter()
                tracer._stack.pop()

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("qgwalk")
        modules = {layer: importlib.import_module(f"qgwalk.{layer}") for layer in LAYERS}
        self.names = []
        wrapped = {}  # id(original function) -> (original, wrapper)
        for layer, mod in modules.items():
            for name in _public_names(mod):
                obj = getattr(mod, name)
                if isinstance(obj, types.FunctionType):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
                elif isinstance(obj, type):
                    self._wrap_methods(f"{layer}.{name}", obj)
        for mod in (package, *modules.values()):
            for gname, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, gname, hit[1])

    def _wrap_methods(self, prefix: str, cls: type) -> None:
        for name, member in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(member, types.FunctionType):
                self._patch(cls, name, self._wrap(f"{prefix}.{name}", member))
            elif isinstance(member, (classmethod, staticmethod)):
                kind = type(member)
                self._patch(cls, name, kind(self._wrap(f"{prefix}.{name}", member.__func__)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spans(self) -> dict:
        """The recorded spans as numpy columns, plus the name table."""
        return {
            "name_id": np.frombuffer(self._name_ids, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parents, dtype=np.int32).copy(),
            "job": np.frombuffer(self._jobs, dtype=np.int32).copy(),
            "start": np.frombuffer(self._starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self._ends, dtype=np.float64).copy(),
            "names": np.array(self.names),
        }


def aggregate(spans: dict) -> dict:
    """Per span name: summed self time, summed duration, and call count."""
    n_names = len(spans["names"])
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    self_time = dur - covered
    ids = spans["name_id"]
    self_s = np.bincount(ids, weights=self_time, minlength=n_names)
    total_s = np.bincount(ids, weights=dur, minlength=n_names)
    calls = np.bincount(ids, minlength=n_names)
    return {str(name): {"self_s": float(self_s[i]), "total_s": float(total_s[i]),
                        "calls": int(calls[i])}
            for i, name in enumerate(spans["names"])}

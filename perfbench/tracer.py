"""In-memory span tracer that wraps the library's public functions by identity.

Each layer is a list of targets ``"module:qualname"``. Installing the tracer
replaces the target object everywhere a ``twistwidth`` module holds it (so
``from .x import f`` copies are covered) and, for methods, on the class.
A target missing from the library is recorded as absent, not an error.

A span is (layer, start, end, parent span, instance id). Self time is the
span's duration minus the time its child spans cover, accumulated online,
so it is exact for every call even when the span log is capped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

# layer name -> targets; "count" layers record a call count and no span.
LAYERS = {
    "core.validate": ["twistwidth.core:validate"],
    "core.minor": [
        "twistwidth.core:DeltaMatroid.minor",
        "twistwidth.core:DeltaMatroid.restrict",
        "twistwidth.core:DeltaMatroid.delete",
        "twistwidth.core:DeltaMatroid.contract",
    ],
    "core.twist": [
        "twistwidth.core:DeltaMatroid.twist",
        "twistwidth.core:DeltaMatroid.dual",
    ],
    "matroids.d_min": ["twistwidth.matroids:d_min"],
    "matroids.rank": ["twistwidth.matroids:Matroid.rank"],
    "matroids.connectivity": ["twistwidth.matroids:Matroid.connectivity"],
    "structure.min_width_twist": ["twistwidth.structure:min_width_twist"],
    "structure.rough_structure_witnesses": [
        "twistwidth.structure:rough_structure_witnesses"
    ],
    "structure.twist_width_formula": ["twistwidth.structure:twist_width_formula"],
    "minors.is_obstructed": ["twistwidth.minors:is_obstructed"],
    "minors.canonical_form": ["twistwidth.minors:canonical_form"],
    "minors.has_minor_isomorphic": ["twistwidth.minors:has_minor_isomorphic"],
    "minors.are_isomorphic": ["twistwidth.minors:are_isomorphic"],
    "minors.matroid_twist_obstructions": [
        "twistwidth.minors:matroid_twist_obstructions"
    ],
    "certify.certify": ["twistwidth.certify:certify"],
    "certify.build_aux_graph": ["twistwidth.certify:build_aux_graph"],
    # the certificate's self re-check of a minor witness
    "certify.verify": ["twistwidth.minors:Obstruction.verify"],
    "enumeration.enumerate_all": ["twistwidth.enumeration:enumerate_all"],
    "enumeration.verify_theorem": ["twistwidth.enumeration:verify_theorem"],
    "fileio.parse": ["twistwidth.fileio:parse"],
    "fileio.serialize": ["twistwidth.fileio:serialize"],
    "cli.main": ["twistwidth.cli:main"],
}
COUNT_LAYERS = {"core.dm_built": ["twistwidth.core:DeltaMatroid.__init__"]}

_MISSING = object()


def _resolve(spec):
    """(owner, attribute name, object) for ``module:qualname``, or None."""
    modname, qualname = spec.split(":")
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, _MISSING)
        if owner is _MISSING:
            return None
    obj = vars(owner).get(name, _MISSING)
    if obj is _MISSING or not callable(obj):
        return None
    return owner, name, obj


class Tracer:
    """Calls, self time and a capped span log per layer, for one run."""

    def __init__(self, span_cap: int = 100_000):
        self.layers = list(LAYERS) + list(COUNT_LAYERS)
        self.calls = [0] * len(self.layers)
        self.self_s = [0.0] * len(self.layers)
        self.axiom_pairs = 0  # sum of |F|^2 over validate results (computed)
        self.iso_hits = 0
        self.verify_instances = 0
        self.instance = -1
        self.absent = []
        self.span_cap = span_cap
        self.spans_dropped = 0
        self._layer = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._inst = array("i")
        self._stack = []  # [span id, child time]
        self._patched = []  # (owner, name, original)

    # -- recording --------------------------------------------------------

    def _timed(self, lid, count, fn, args, kwargs):
        if count:
            self.calls[lid] += 1
        stack = self._stack
        sid = len(self._layer)
        if sid < self.span_cap:
            self._layer.append(lid)
            self._start.append(0.0)
            self._end.append(0.0)
            self._parent.append(stack[-1][0] if stack else -1)
            self._inst.append(self.instance)
        else:
            sid = -1
            self.spans_dropped += 1
        frame = [sid, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - start
            self.self_s[lid] += dur - frame[1]
            if stack:
                stack[-1][1] += dur
            if sid >= 0:
                self._start[sid] = start
                self._end[sid] = end

    def _wrapper(self, layer, fn):
        lid = self.layers.index(layer)
        tracer = self
        if layer in COUNT_LAYERS:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.calls[lid] += 1
                return fn(*args, **kwargs)
            return counted
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                tracer.calls[lid] += 1
                while True:
                    item = tracer._timed(lid, False, next, (it, _MISSING), {})
                    if item is _MISSING:
                        return
                    yield item
            return traced_gen
        hook = _HOOKS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer._timed(lid, True, fn, args, kwargs)
            if hook is not None:
                hook(tracer, result)
            return result
        return traced

    # -- installation -----------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "twistwidth" or name.startswith("twistwidth.")]
        for layer, specs in {**LAYERS, **COUNT_LAYERS}.items():
            for spec in specs:
                found = _resolve(spec)
                if found is None:
                    self.absent.append(spec)
                    continue
                owner, name, original = found
                wrapped = self._wrapper(layer, original)
                if inspect.isclass(owner):
                    self._patch(owner, name, original, wrapped)
                    continue
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapped)

    def _patch(self, owner, name, original, wrapped):
        setattr(owner, name, wrapped)
        self._patched.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for lid, layer in enumerate(self.layers):
            if layer in COUNT_LAYERS:
                out[layer] = self.calls[lid]
                continue
            out[f"{layer}.calls"] = self.calls[lid]
            out[f"{layer}.self_s"] = self.self_s[lid]
        calls = {layer: self.calls[i] for i, layer in enumerate(self.layers)}
        out["core.axiom_pairs"] = self.axiom_pairs
        iso = calls["minors.are_isomorphic"]
        out["minors.are_isomorphic.hit_ratio"] = self.iso_hits / iso if iso else 0.0
        certs = calls["certify.certify"]
        out["certify.depth_mean"] = (
            calls["certify.build_aux_graph"] / certs if certs else 0.0
        )
        out["enumeration.verify_theorem.instances"] = self.verify_instances
        return out

    def write_spans(self, path, meta: dict):
        doc = {
            **meta,
            "layers": self.layers,
            "absent": self.absent,
            "span_cap": self.span_cap,
            "spans_dropped": self.spans_dropped,
            "columns": ["layer", "start", "end", "parent", "instance"],
            "layer": list(self._layer),
            "start": list(self._start),
            "end": list(self._end),
            "parent": list(self._parent),
            "instance": list(self._inst),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _on_validate(tracer, d):
    tracer.axiom_pairs += len(d.masks) ** 2


def _on_are_isomorphic(tracer, result):
    tracer.iso_hits += result is not None


def _on_verify_theorem(tracer, report):
    tracer.verify_instances += report.checked


_HOOKS = {
    "core.validate": _on_validate,
    "minors.are_isomorphic": _on_are_isomorphic,
    "enumeration.verify_theorem": _on_verify_theorem,
}

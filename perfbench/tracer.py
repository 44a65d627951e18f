"""Span recording around the public functions of each diagonalis layer.

The library is not edited: ``install`` replaces every public module-level
function of the layer modules by a recording wrapper, and rebinds every
reference other diagonalis modules hold to it (``constructors.
hermitian_eigenvalues``, the module-global ``hermitian_eigensystem`` that
``numerical_range_support`` looks up, ...), so spans nest the way the calls
do.  ``uninstall`` puts the originals back.

Spans live in flat arrays in memory (name, parent span, instance id, start,
end, raised) and are written out once, at the end of the traced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("seqspec", "majorization", "spectra", "deciders", "constructors",
          "oracle", "jsonio", "cli")


class Recorder:
    """Flat in-memory span store; one span per wrapped call."""

    def __init__(self):
        self.names = []          # name id -> "layer.function"
        self.layer_of = []       # name id -> index into LAYERS
        self.name_ids = {}
        self.name = array("H")
        self.parent = array("q")
        self.inst = array("q")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.stack = []
        self.instance = -1
        self.active = False
        self.horizon_hits = 0
        self.notfound = 0

    def name_id(self, layer, func):
        key = f"{layer}.{func}"
        if key not in self.name_ids:
            self.name_ids[key] = len(self.names)
            self.names.append(key)
            self.layer_of.append(LAYERS.index(layer))
        return self.name_ids[key]

    def open(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.inst.append(self.instance)
        self.raised.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx, raised):
        self.end[idx] = time.perf_counter()
        self.stack.pop()
        if raised:
            self.raised[idx] = 1

    def arrays(self):
        """The spans as numpy arrays, for analysis and for writing out."""
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "inst": np.frombuffer(self.inst, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def write(self, path):
        np.savez_compressed(path, names=np.array(self.names), layers=np.array(LAYERS),
                            layer_of=np.array(self.layer_of, dtype=np.int16),
                            **self.arrays())


def self_times(start, end, parent):
    """Duration of each span minus the part of it its child spans cover.

    Spans of one thread nest, so the children of a span are disjoint
    sub-intervals of it and their coverage is the sum of their durations.
    """
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent)
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def _observer(layer, func, rec):
    """Result hook for the few calls whose outcome is a per-layer counter."""
    if layer == "majorization" and func == "weak_majorize":
        def seen(out):
            if out.verdict == "Unknown" and out.detail.startswith("horizon"):
                rec.horizon_hits += 1
        return seen
    if layer == "constructors" and func.startswith(("construct_", "convex_")):
        not_found = sys.modules["diagonalis.constructors"].NotFound

        def seen(out):
            if isinstance(out, not_found):
                rec.notfound += 1
        return seen
    return None


def _wrap(fn, name_id, rec, seen):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        idx = rec.open(name_id)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            rec.close(idx, True)
            raise
        rec.close(idx, False)
        if seen is not None:
            seen(out)
        return out
    return wrapper


def install(rec):
    """Wrap every layer's public functions; returns the undo list."""
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"diagonalis.{layer}")
        for func, obj in vars(mod).items():
            if (func.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            nid = rec.name_id(layer, func)
            wrappers[id(obj)] = (obj, _wrap(obj, nid, rec, _observer(layer, func, rec)))
    undo = []
    for modname, mod in list(sys.modules.items()):
        if modname != "diagonalis" and not modname.startswith("diagonalis."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                undo.append((mod, attr, obj))
                setattr(mod, attr, hit[1])
    return undo


def uninstall(undo):
    for mod, attr, obj in undo:
        setattr(mod, attr, obj)


def layer_metrics(rec, instances):
    """Per-layer calls, self time and errors per traced instance, plus the
    span-derived extras (eigensolver and Haar calls, oracle restarts)."""
    a = rec.arrays()
    layer_of = np.array(rec.layer_of, dtype=np.int64)
    span_layer = layer_of[a["name"]] if len(a["name"]) else np.zeros(0, dtype=np.int64)
    selfs = self_times(a["start"], a["end"], a["parent"])
    k = len(LAYERS)
    calls = np.bincount(span_layer, minlength=k)
    self_s = np.bincount(span_layer, weights=selfs, minlength=k)
    errors = np.bincount(span_layer, weights=a["raised"], minlength=k)
    per = max(instances, 1)
    out = {}
    for i, layer in enumerate(LAYERS):
        out[f"{layer}.calls"] = (calls[i] / per, "count/inst")
        out[f"{layer}.self_s"] = (self_s[i] / per, "s/inst")
        out[f"{layer}.errors"] = (errors[i] / per, "count/inst")

    def count(name):
        nid = rec.name_ids.get(name)
        return 0 if nid is None else int(np.sum(a["name"] == nid))

    out["spectra.eig_calls"] = (count("spectra.hermitian_eigensystem") / per, "count/inst")
    out["spectra.haar_calls"] = (count("spectra.haar_unitary") / per, "count/inst")
    out["oracle.restarts"] = (_haar_inside_search(rec, a) / per, "count/inst")
    out["majorization.horizon_hits"] = (rec.horizon_hits / per, "count/inst")
    out["constructors.notfound"] = (rec.notfound / per, "count/inst")
    return out


def _haar_inside_search(rec, a):
    haar = rec.name_ids.get("spectra.haar_unitary")
    search = rec.name_ids.get("oracle.search_membership")
    if haar is None or search is None:
        return 0
    names, parent = a["name"], a["parent"]
    hits = 0
    for idx in np.flatnonzero(names == haar):
        p = parent[idx]
        while p >= 0 and names[p] != search:
            p = parent[p]
        hits += p >= 0
    return int(hits)

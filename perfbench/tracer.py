"""Span tracer for the benchmark's traced runs.

`Tracer.install` wraps every public function of the krawbound layers --
module-level functions, public methods of public classes, and the callbacks
of the CLI commands -- both where it is defined and in every krawbound module
that imported it, so calls one layer makes into another are attributed too.
Nothing in the library is edited: the wrappers are attributes set on the
imported modules, from the benchmark's own process.

Each call is one span (name, start, end, parent), kept in flat arrays in
memory. A span's self time is its duration minus the time its direct child
spans cover; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from array import array

LAYERS = ("numerics", "krawchouk", "cube", "bivariate", "bounds", "induction", "verify", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        # computed from array sizes, not measured: n * 2^n adds per cube.wht call
        self.butterfly_ops = [0]

    def wrap(self, fn, qualname: str, layer: str):
        nid = len(self.names)
        self.names.append(qualname)
        self.layers.append(layer)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter
        butterfly_ops = self.butterfly_ops if qualname == "cube.wht" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            if butterfly_ops is not None:
                butterfly_ops[0] += args[0].n << args[0].n
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer and rebind every
        krawbound module's reference to them."""
        modules = {layer: importlib.import_module(f"krawbound.{layer}") for layer in LAYERS}
        wrapped: dict = {}
        for layer, mod in modules.items():
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(val, types.FunctionType) and val.__module__ == mod.__name__:
                    wrapped[val] = self.wrap(val, f"{layer}.{attr}", layer)
                elif isinstance(val, type) and val.__module__ == mod.__name__:
                    self._wrap_methods(val, f"{layer}.{attr}", layer)
        cli = modules["cli"]
        for name, command in cli.main.commands.items():
            command.callback = self.wrap(command.callback, f"cli.{name}", "cli")
        for mod in [sys.modules["krawbound"], *modules.values()]:
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrapped:
                    setattr(mod, attr, wrapped[val])

    def _wrap_methods(self, cls, prefix: str, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(member, (staticmethod, classmethod)):
                traced = self.wrap(member.__func__, f"{prefix}.{attr}", layer)
                setattr(cls, attr, type(member)(traced))
            elif isinstance(member, types.FunctionType):
                setattr(cls, attr, self.wrap(member, f"{prefix}.{attr}", layer))

    def summary(self, upto: int | None = None) -> dict:
        """Per-function and per-layer calls, self time and inclusive time
        over the first `upto` spans."""
        import numpy as np

        count = len(self.start) if upto is None else upto
        start = np.frombuffer(self.start, dtype=np.float64, count=count)
        end = np.frombuffer(self.end, dtype=np.float64, count=count)
        nid = np.frombuffer(self.name_id, dtype=np.int32, count=count)
        par = np.frombuffer(self.parent, dtype=np.int32, count=count)
        dur = end - start
        nested = par >= 0
        covered = np.bincount(par[nested], weights=dur[nested], minlength=count)
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        self_s = np.bincount(nid, weights=self_time, minlength=k)
        incl_s = np.bincount(nid, weights=dur, minlength=k)
        functions = {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "incl_s": float(incl_s[i])}
            for i, name in enumerate(self.names)
            if calls[i]
        }
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for i, layer in enumerate(self.layers):
            layers[layer]["calls"] += int(calls[i])
            layers[layer]["self_s"] += float(self_s[i])
        search = self.names.index("verify.search_extremal_ratio")
        return {
            "spans": count,
            "functions": functions,
            "layers": layers,
            "search_cell_s": [float(d) for d in dur[nid == search]],
            "butterfly_ops": self.butterfly_ops[0],
        }

    def write(self, path, upto: int | None = None) -> None:
        """Spans as raw arrays (start, end: float64 seconds; name, parent:
        int32, parent -1 for a root) behind a one-line JSON header."""
        count = len(self.start) if upto is None else upto
        header = {
            "names": self.names,
            "layers": self.layers,
            "count": count,
            "arrays": ["start:f8", "end:f8", "name:i4", "parent:i4"],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.start, self.end, self.name_id, self.parent):
                arr[:count].tofile(fh)

"""Out-of-program tracing: wraps foldkit's public functions from outside.

Each traced layer function is replaced at every foldkit module that binds
its name (so foldkit.tasks.dihedral is wrapped as well as
foldkit.geometry.dihedral). Spanned functions record (name, start, end,
parent) in memory; tiny per-element functions are only counted. A
layer's self time is its spans' total duration less the part covered by
child spans, including the reference-kernel samples the sampler takes
inside them.
"""

from __future__ import annotations

import collections
import importlib
import os
import sys
import time

# layer name -> (module, function, "span" or "count")
LAYERS = {
    "cli": ("foldkit.cli", "main", "span"),
    "pdb.parse_pdb": ("foldkit.pdb", "parse_pdb", "span"),
    "pdb.write_pdb": ("foldkit.pdb", "write_pdb", "span"),
    "structure.select_granularity": ("foldkit.structure", "select_granularity", "span"),
    "geometry.backbone_dihedrals": ("foldkit.geometry", "backbone_dihedrals", "span"),
    "geometry.virtual_angles": ("foldkit.geometry", "virtual_angles", "span"),
    "geometry.sidechain_torsions": ("foldkit.geometry", "sidechain_torsions", "span"),
    "geometry.knn_graph": ("foldkit.geometry", "knn_graph", "span"),
    "geometry.kabsch": ("foldkit.geometry", "kabsch", "span"),
    "geometry.dihedral": ("foldkit.geometry", "dihedral", "count"),
    "geometry.bond_angle": ("foldkit.geometry", "bond_angle", "count"),
    "codec.to_internal": ("foldkit.codec", "to_internal", "span"),
    "codec.from_internal": ("foldkit.codec", "from_internal", "span"),
    "codec.encode": ("foldkit.codec", "encode", "span"),
    "codec.decode": ("foldkit.codec", "decode", "span"),
    "codec.nerf_place": ("foldkit.codec", "nerf_place", "count"),
    "featurise.scalar_features": ("foldkit.featurise", "scalar_features", "span"),
    "featurise.vector_features": ("foldkit.featurise", "vector_features", "span"),
    "featurise.build_graph": ("foldkit.featurise", "build_graph", "span"),
    "featurise.positional_encoding": ("foldkit.featurise", "positional_encoding", "count"),
    "tasks.corrupt_structure": ("foldkit.tasks", "corrupt_structure", "span"),
    "tasks.corrupt_torsions": ("foldkit.tasks", "corrupt_torsions", "span"),
    "tasks.interface_labels": ("foldkit.tasks", "interface_labels", "span"),
    "tasks.binding_site_labels": ("foldkit.tasks", "binding_site_labels", "span"),
    "tensorio.write_tensor": ("foldkit.tensorio", "write_tensor", "span"),
    "tensorio.read_tensor": ("foldkit.tensorio", "read_tensor", "span"),
    "gnn.schnet_layer": ("foldkit.gnn", "schnet_layer", "span"),
    "gnn.egnn_layer": ("foldkit.gnn", "egnn_layer", "span"),
    "gnn.gcp_layer": ("foldkit.gnn", "gcp_layer", "span"),
    "gnn.noise_predictor": ("foldkit.gnn", "noise_predictor", "span"),
}
SAMPLE = "bench.sample"


class Tracer:
    def __init__(self):
        self.spans: list = []   # [name, start, end, parent index]
        self.stack: list = []
        self.counts: collections.Counter = collections.Counter()
        self.bytes_written = 0
        self._patched: list = []

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                if name == "tensorio.write_tensor":
                    self.bytes_written += os.path.getsize(args[0])
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def on_sample(self, start: float, end: float) -> None:
        """Record a reference-kernel sample as a child of the open span."""
        self.spans.append([SAMPLE, start, end,
                           self.stack[-1] if self.stack else -1])

    def install(self) -> None:
        for name, (module, attr, kind) in LAYERS.items():
            original = getattr(importlib.import_module(module), attr)
            wrapper = (self._span if kind == "span" else self._count)(
                name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "foldkit" and not mod_name.startswith("foldkit."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def take(self) -> tuple[dict, dict]:
        """(self seconds, calls) per layer since the last take; calls
        also holds tensorio.bytes_written."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: collections.Counter = collections.Counter()
        calls: collections.Counter = collections.Counter(self.counts)
        for (name, start, end, _), child in zip(self.spans, covered):
            if name != SAMPLE:
                self_s[name] += end - start - child
                calls[name] += 1
        calls["tensorio.bytes_written"] = self.bytes_written
        self.spans.clear()
        self.counts.clear()
        self.bytes_written = 0
        return dict(self_s), dict(calls)

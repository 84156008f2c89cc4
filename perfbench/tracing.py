"""Span tracer that wraps the program's public functions from outside.

Nothing under ``src/`` changes: :meth:`Tracer.install` replaces functions and
methods by timing wrappers, in every module namespace that bound them (a
``from .forms import signature_of`` binds at import time, and ``cli`` keeps
builders in module-level dicts), and :meth:`Tracer.uninstall` puts the
originals back.

Spans are kept in memory as parallel arrays (layer id, parent span, start,
end).  A span's self time is its duration minus the durations of its direct
children; summing self times per layer name gives the per-layer breakdown.
Hot scalar-level calls (``QuadFieldElement`` arithmetic, ``is_squarefree``,
the shell enumerator) only bump counters, because a span per scalar would
cost more than the work it measures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from collections import Counter
from time import perf_counter

MODULES = ("exact", "forms", "isotropic", "chains", "serialize", "cli", "levels",
           "embeddings")

# Layer names for the functions the per-layer metrics single out; every other
# public function of a module is traced as "<module>.other".
LAYER_OF = {
    "exact.rref": "exact.rref",
    "exact.det": "exact.det",
    "exact.inverse": "exact.inverse",
    "exact.solve": "exact.solve",
    "exact.right_kernel": "exact.kernel",
    "exact.hnf": "exact.hnf",
    "exact.smith": "exact.smith",
    "forms.pair": "forms.pair",
    "forms.signature_of": "forms.signature",
    "forms.orthogonal_complement": "forms.complement",
    "forms.subquotient": "forms.subquotient",
    "forms.subspace_intersection": "forms.intersection",
    "forms.canonical_subspace": "forms.canonical_subspace",
    "isotropic.find_isotropic_vector": "isotropic.find",
    "isotropic.j0_construct": "isotropic.j0",
    "isotropic.split_off_kernels": "isotropic.split_off",
    "isotropic.third_isotropic_lines": "isotropic.third_lines",
    "chains.build_chain_orthogonal": "chains.build",
    "chains.build_chain_symplectic": "chains.build",
    "chains.build_chain_unitary": "chains.build",
    "chains.verify_certificate": "chains.verify",
    "levels.containment_level": "levels.containment",
    "embeddings.order_of_lattice": "embeddings.order",
}

# Per-scalar helpers: called once per matrix entry or search candidate.
NO_SPAN = {
    "exact.conjugate_scalar", "exact.as_fraction", "exact.vector_gcd",
    "exact.descending_range", "serialize.fraction_to_json", "serialize.scalar_to_json",
    "serialize.scalar_from_json",
}

# Methods traced as spans, besides module-level functions.
METHODS = {
    ("exact", "Matrix"): ("rref", "det", "inverse", "solve", "right_kernel"),
    ("forms", "FormSpace"): ("pair",),
}

QUAD_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__truediv__", "__rtruediv__", "__neg__", "conjugate", "norm")


def _layer(module: str, name: str) -> str:
    key = f"{module}.{name}"
    if key in LAYER_OF:
        return LAYER_OF[key]
    if module == "serialize":
        return "serialize.to_json" if "to_json" in name or name.startswith("dumps") \
            else "serialize.from_json"
    if module == "cli":
        return "cli.self"
    return f"{module}.other"


def _coeff_bits(x) -> int:
    if hasattr(x, "numerator"):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return max(_coeff_bits(x.a), _coeff_bits(x.b))


class Tracer:
    def __init__(self):
        self.mods = {m: importlib.import_module(f"cuspchain.{m}") for m in MODULES}
        self.layers: list[str] = []
        self.layer_ids: dict[str, int] = {}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts = Counter()
        self.max_coeff_bits = 0
        self.searches = 0
        self.search_height_sum = 0
        self._height = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _layer_id(self, name: str) -> int:
        if name not in self.layer_ids:
            self.layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self.layer_ids[name]

    def _span(self, fn, layer: str, post=None):
        lid = self._layer_id(layer)
        sl, sp, ss, se, stack = (self.span_layer, self.span_parent, self.span_start,
                                 self.span_end, self.stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(sl)
            sl.append(lid)
            sp.append(stack[-1])
            se.append(0.0)
            stack.append(idx)
            ss.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                se[idx] = perf_counter()
                stack.pop()
            if post is not None:
                post(out)
            return out

        return wrapper

    def _matmul(self, fn):
        """Matrix.__mul__: a span only for matrix-by-matrix products."""
        span = self._span(fn, "exact.matmul")
        matrix = self.mods["exact"].Matrix

        @functools.wraps(fn)
        def wrapper(self_, other):
            if isinstance(other, matrix):
                return span(self_, other)
            return fn(self_, other)

        return wrapper

    def _counted(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _shell_tuples(self, fn):
        counts, tracer = self.counts, self

        @functools.wraps(fn)
        def wrapper(width, h):
            counts["exact.shell_calls"] += 1
            counts["exact.shell_cube_visited"] += (2 * h + 1) ** width
            tracer._height = h
            for t in fn(width, h):
                counts["exact.shell_tuples_yielded"] += 1
                yield t

        return wrapper

    def _candidates(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for v in fn(*args, **kwargs):
                counts["isotropic.candidates"] += 1
                yield v

        return wrapper

    def _search(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._height = 0
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.searches += 1
                tracer.search_height_sum += tracer._height

        return wrapper

    def _note_rref(self, out):
        red = out[0]
        bits = max((_coeff_bits(x) for row in red.rows for x in row), default=0)
        if bits > self.max_coeff_bits:
            self.max_coeff_bits = bits

    # -- install / uninstall -------------------------------------------------

    def _set(self, owner, name, value):
        self._patches.append((owner, name, owner.__dict__[name]) if isinstance(owner, type)
                             else (owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        exact = self.mods["exact"]
        replace: dict[int, object] = {}
        for mname, mod in self.mods.items():
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                key = f"{mname}.{name}"
                if key == "exact.is_squarefree":
                    wrapped = self._counted(fn, "exact.squarefree_calls")
                elif key == "exact.shell_tuples":
                    wrapped = self._shell_tuples(fn)
                elif key in NO_SPAN:
                    continue
                else:
                    wrapped = self._span(fn, _layer(mname, name))
                replace[id(fn)] = wrapped
        iso = self.mods["isotropic"]
        replace[id(iso._candidate_vectors)] = self._candidates(iso._candidate_vectors)
        replace[id(iso._search_vector)] = self._search(iso._search_vector)
        # rebind in every namespace that imported the originals
        for mod in self.mods.values():
            for name, value in list(vars(mod).items()):
                if id(value) in replace and inspect.isfunction(value):
                    self._set(mod, name, replace[id(value)])
                elif isinstance(value, dict) and any(
                    inspect.isfunction(v) and id(v) in replace for v in value.values()
                ):
                    patched = {k: replace.get(id(v), v) if inspect.isfunction(v) else v
                               for k, v in value.items()}
                    self._set(mod, name, patched)
        for (mname, cname), methods in METHODS.items():
            cls = getattr(self.mods[mname], cname)
            for meth in methods:
                fn = cls.__dict__[meth]
                post = self._note_rref if (cname, meth) == ("Matrix", "rref") else None
                self._set(cls, meth, self._span(fn, _layer(mname, meth), post))
        self._set(exact.Matrix, "__mul__", self._matmul(exact.Matrix.__dict__["__mul__"]))
        quad = exact.QuadFieldElement
        for meth in QUAD_OPS:
            self._set(quad, meth, self._counted(quad.__dict__[meth], "exact.quad_ops"))
        self._set(quad, "__init__", self._counted(quad.__dict__["__init__"], "exact.quad_new"))

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer over every recorded span."""
        n = len(self.span_layer)
        child = [0.0] * n
        sp, ss, se = self.span_parent, self.span_start, self.span_end
        for i in range(n):
            p = sp[i]
            if p >= 0:
                child[p] += se[i] - ss[i]
        out = dict.fromkeys(self.layers, 0.0)
        layers, sl = self.layers, self.span_layer
        for i in range(n):
            out[layers[sl[i]]] += se[i] - ss[i] - child[i]
        return out

    def span_counts(self) -> Counter:
        out = Counter()
        for lid in self.span_layer:
            out[self.layers[lid]] += 1
        return out

    def write(self, path_prefix: str) -> None:
        """Write spans as raw arrays plus a JSON header naming the layers."""
        with open(path_prefix + ".bin", "wb") as fh:
            for arr in (self.span_layer, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        with open(path_prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump({"spans": len(self.span_layer), "layers": self.layers,
                       "arrays": ["layer:int32", "parent:int32", "start:float64",
                                  "end:float64"]}, fh)

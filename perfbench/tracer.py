"""Spans around the public functions of each ``tl2b`` module, from outside.

The package itself is not changed.  ``install`` replaces each public
function of a measured module, and a fixed list of methods, with a wrapper
that records a span, then rebinds every other reference to the original
function: names imported into other modules (``cli.exact_det``,
``wordrep.compose`` ...) and class attributes copied between classes
(``SpinRep.apply_r = ModuleRep.apply_r``).

A span is ``[name, start, end, cover_end, parent, counts, invocation]``.
``end`` closes the timed call; ``cover_end`` also covers the tracer's own
counting after it, so that counting is charged to no layer.  ``parent`` is
the index of the enclosing span, or -1.  Spans stay in memory and are
written out once, when the invocation ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

#: layer -> modules whose public functions form it; ``symbolic`` is not
#: measured (see README.md)
LAYERS: dict[str, tuple[str, ...]] = {
    "scalars": ("scalars", "_ratback"),
    "diagrams": ("diagrams",),
    "wordrep": ("wordrep",),
    "linalg": ("linalg",),
    "hecke": ("hecke",),
    "pathbasis": ("pathbasis",),
    "spinchain": ("spinchain",),
    "irreps": ("irreps",),
    "cli": ("cli",),
}

#: span names that differ from ``<layer>.<function>``
FUNCTION_NAMES = {("linalg", "exact_det"): "linalg.det"}

#: (module, class, attribute, span name) of the wrapped methods.  Methods
#: called once per vector entry (``ModuleRep.table``) or per exponent
#: (``HalfExponent``) are left out: their spans would cost more than them.
METHODS: tuple[tuple[str, str, str, str], ...] = (
    ("linalg", "Matrix", "__matmul__", "linalg.matmul"),
    ("linalg", "Matrix", "__add__", "linalg.Matrix.add"),
    ("linalg", "Matrix", "__sub__", "linalg.Matrix.sub"),
    ("linalg", "Matrix", "__neg__", "linalg.Matrix.neg"),
    ("linalg", "Matrix", "__eq__", "linalg.Matrix.eq"),
    ("linalg", "Matrix", "scale", "linalg.Matrix.scale"),
    ("linalg", "Matrix", "apply", "linalg.Matrix.apply"),
    ("linalg", "Matrix", "transpose", "linalg.Matrix.transpose"),
    ("linalg", "Matrix", "submatrix", "linalg.Matrix.submatrix"),
    ("linalg", "Matrix", "first_nonzero", "linalg.Matrix.first_nonzero"),
    ("linalg", "Matrix", "is_zero", "linalg.Matrix.is_zero"),
    ("linalg", "Matrix", "scalar_multiple_of_identity",
     "linalg.Matrix.scalar_multiple_of_identity"),
    ("linalg", "Matrix", "identity", "linalg.Matrix.identity"),
    ("linalg", "Matrix", "zeros", "linalg.Matrix.zeros"),
    ("linalg", "Matrix", "from_columns", "linalg.Matrix.from_columns"),
    ("scalars", "ParamPoint", "__post_init__", "scalars.point"),
    ("scalars", "ParamPoint", "q_power", "scalars.q_power"),
    ("scalars", "ParamPoint", "qnum", "scalars.q_power"),
    ("hecke", "HeckeGenSet", "word", "hecke.HeckeGenSet.word"),
    ("pathbasis", "ModuleRep", "apply_e", "pathbasis.apply_e"),
    ("pathbasis", "ModuleRep", "e_matrix", "pathbasis.ModuleRep.e_matrix"),
    ("pathbasis", "ModuleRep", "apply_r", "pathbasis.ModuleRep.apply_r"),
    ("pathbasis", "ModuleRep", "apply_k", "pathbasis.ModuleRep.apply_k"),
    ("pathbasis", "ModuleRep", "apply_g", "pathbasis.ModuleRep.apply_g"),
    ("pathbasis", "ModuleRep", "apply_murphy_b",
     "pathbasis.ModuleRep.apply_murphy_b"),
    ("pathbasis", "BasisB1", "inverse", "pathbasis.BasisB1.inverse"),
    ("pathbasis", "BasisB1", "in_coordinates", "pathbasis.in_coordinates"),
    ("pathbasis", "BasisB1", "generator_in_coordinates",
     "pathbasis.BasisB1.generator_in_coordinates"),
    ("spinchain", "SpinRep", "apply_e", "spinchain.apply_e"),
    ("spinchain", "SpinRep", "e_matrix", "spinchain.SpinRep.e_matrix"),
)


def entry_bits(x) -> int:
    """Numerator-plus-denominator bit length of an exact rational or int."""
    return abs(x.numerator).bit_length() + x.denominator.bit_length()


def matmul_counts(args, result) -> tuple[int, int, int]:
    """(visited, mults, max_bits) of the zero-skipping product A @ B.

    visited = sum over nonzero a_ik of ncols(B): inner-loop entries touched;
    mults = sum over nonzero a_ik of nnz(row k of B): nonzero products.
    """
    a, b = args
    ncols = b.ncols
    row_nnz = [sum(1 for x in row if x) for row in b.rows]
    visited = mults = 0
    for row in a.rows:
        for k, x in enumerate(row):
            if x:
                visited += ncols
                mults += row_nnz[k]
    bits = max((entry_bits(x) for row in result.rows for x in row if x),
               default=0)
    return visited, mults, bits


def det_counts(args, result) -> tuple[int, int, int]:
    """(rows, 1 if the determinant is zero else 0, bits of the result)."""
    if not result:
        return args[0].nrows, 1, 0
    return args[0].nrows, 0, entry_bits(result)


def argument_key(args, result) -> int:
    """Hash of the arguments, for calls per distinct argument."""
    return hash(args)


#: span name -> function of (args, result) giving the counts stored on a span
COUNTERS = {
    "linalg.matmul": matmul_counts,
    "linalg.det": det_counts,
    "wordrep.enumerate_basis": argument_key,
    "wordrep.action_table": argument_key,
    "irreps.traces_agree_all_words": lambda args, result: result[1],
}


class Tracer:
    """Span store for one invocation of one process."""

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans: list[list] = []
        self._stack = [-1]

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)
        invocation = self.invocation

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, 0.0, stack[-1], None, invocation]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = span[3] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, result)
                span[3] = clock()
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))


def summarize(spans: list[list]) -> dict[str, list]:
    """Per span name: [calls, self_s, total_s, [counts of each span]].

    self_s is a span's duration minus the time its child spans cover;
    total_s sums the inclusive duration of the outermost span of each name,
    so recursion under one name is not counted twice.
    """
    covered = [0.0] * len(spans)
    for _name, start, _end, cover_end, parent, *_ in spans:
        if parent >= 0:
            covered[parent] += cover_end - start
    stats: dict[str, list] = {}
    open_spans: list[int] = []
    active: dict[str, int] = {}
    for i, (name, start, end, _cover, parent, counts, _inv) in enumerate(spans):
        while open_spans and open_spans[-1] != parent:
            active[spans[open_spans.pop()][0]] -= 1
        entry = stats.setdefault(name, [0, 0.0, 0.0, []])
        entry[0] += 1
        entry[1] += (end - start) - covered[i]
        if not active.get(name):
            entry[2] += end - start
        if counts is not None:
            entry[3].append(counts)
        open_spans.append(i)
        active[name] = active.get(name, 0) + 1
    return stats


def _public_functions(module):
    """Public functions defined in the module itself (not imported)."""
    for attr, obj in vars(module).items():
        if attr.startswith("_") or isinstance(obj, type):
            continue
        if not (inspect.isfunction(obj)
                or isinstance(obj, functools._lru_cache_wrapper)):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield attr, obj


def install(tracer: Tracer) -> None:
    """Wrap every measured function and rebind every reference to it.

    A method listed in ``METHODS`` that no longer exists raises before
    anything is rebound, so a rename cannot silently drop a span.
    """
    importlib.import_module("tl2b.cli")
    modules = {name: sys.modules[f"tl2b.{name}"]
               for mods in LAYERS.values() for name in mods}
    # keyed by id: the originals stay alive (each wrapper holds its own)
    wrappers: dict[int, object] = {}
    for layer, mods in LAYERS.items():
        for modname in mods:
            for attr, fn in _public_functions(modules[modname]):
                name = FUNCTION_NAMES.get((layer, attr), f"{layer}.{attr}")
                wrappers[id(fn)] = tracer.wrap(name, fn)
    for modname, clsname, attr, name in METHODS:
        raw = vars(getattr(modules[modname], clsname))[attr]
        if isinstance(raw, staticmethod):
            wrappers[id(raw)] = staticmethod(tracer.wrap(name, raw.__func__))
        else:
            wrappers[id(raw)] = tracer.wrap(name, raw)
    for modname, module in list(sys.modules.items()):
        if not (modname == "tl2b" or modname.startswith("tl2b.")):
            continue
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                setattr(module, attr, wrappers[id(obj)])
            elif (isinstance(obj, type)
                  and obj.__module__.startswith("tl2b.")):
                for cattr, cobj in list(vars(obj).items()):
                    if id(cobj) in wrappers:
                        setattr(obj, cattr, wrappers[id(cobj)])

"""Per-layer tracing of the ladderie package, from outside the package.

A layer is one module of the package.  ``Tracer.install`` replaces every
function, method and property getter a layer module defines with a wrapper,
in every place that binds the original: the module's own globals, the
globals of every other package module that imported it by name (``cohomology``
binds ``rank``, ``kernel_rows`` and ``_rref``; ``ladder`` binds
``kernel_rows``), the package namespace, class dictionaries, and module-level
lists such as the suite's check registry.  ``Tracer.restore`` puts every
original object back, so late-bound seams such as ``ladder.generator_bracket``
are the original objects again after a traced run.

A call opens a span only when it enters a layer from another layer (or from
the benchmark); calls inside a layer run straight through the wrapper.  The
suite's checks always open a span, so each check gets its own wall time.
Spans record name, start, end, parent and run id in flat arrays kept in
memory; a layer's self time is the time of its spans minus the time of their
child spans.  Generator functions are left unwrapped: their bodies run while
the consumer iterates, inside the consumer's span.
"""

from __future__ import annotations

import fractions
import functools
import inspect
import json
import sys
import time
from array import array

LAYERS = ("linalg", "ladder", "glinf", "extension", "ladder_module", "words",
          "cohomology", "parsing", "cli", "suites")

# Work counters, each counted where the work enters its layer.
COUNTERS = ("linalg.rows_in", "linalg.cols_in", "linalg.nnz_in", "linalg.rank_out",
            "cohomology.ce_nnz", "words.term_pairs", "words.act_pairs",
            "ladder.term_pairs", "parsing.chars_in")

# Layer index of code outside the package: the benchmark itself.
_OUTSIDE = -1

# linalg entry points that take a matrix (or stacked rows); their shape is
# counted at the outermost entry into the layer.
_MATRIX_FUNCS = ("rank", "rank_rows", "kernel_rows", "kernel_basis",
                 "solve_or_refute", "_rref", "matmul")


def _row_shape(row_dicts):
    cols = set()
    nnz = 0
    for row in row_dicts:
        cols.update(row)
        nnz += len(row)
    return len(row_dicts), len(cols), nnz


def _matrix_shape(name, args):
    if name in ("rank", "kernel_basis", "solve_or_refute"):
        m = args[0]
        return m.rows, m.cols, len(m.entries)
    if name == "matmul":
        a, b = args[0], args[1]
        return a.rows, a.cols, len(a.entries) + len(b.entries)
    rows, cols, nnz = _row_shape(args[0])
    if name == "kernel_rows":
        cols = args[1]
    return rows, cols, nnz


class Tracer:
    """Wraps the layer modules of one imported ``ladderie`` package.

    Use as a context manager around the traced work; ``begin_run`` starts a
    new span id (one per workload pass, or per request of a request mix).
    """

    def __init__(self, package):
        self.package = package
        self.modules = [sys.modules["%s.%s" % (package.__name__, layer)]
                        for layer in LAYERS]
        self.span_names: list = []      # name id -> "module.qualname"
        self._name_layer: list = []     # name id -> layer index
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls = [0] * len(LAYERS)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.check_wall: dict = {}      # suite check name -> seconds
        self._state = [_OUTSIDE, -1, 0]  # current layer, current span, run id
        self._saved: list = []          # (kind, owner, key, original)
        self._outside_ids: dict = {}

    # -- spans ---------------------------------------------------------

    def _name_id(self, name: str, layer: int) -> int:
        self.span_names.append(name)
        self._name_layer.append(layer)
        return len(self.span_names) - 1

    def begin_run(self) -> None:
        self._state[2] += 1

    def span(self, name: str):
        """A span for benchmark code outside the package (a pass or a
        request), so spans of one run share a root."""
        if name not in self._outside_ids:
            self._outside_ids[name] = self._name_id(name, _OUTSIDE)
        return _OutsideSpan(self, self._outside_ids[name])

    def _open(self, name_id: int) -> int:
        st = self._state
        idx = len(self.end)
        self.name.append(name_id)
        self.parent.append(st[1])
        self.run.append(st[2])
        self.start.append(0.0)
        self.end.append(0.0)
        st[1] = idx
        return idx

    # -- wrapping ------------------------------------------------------

    def _hook(self, layer_name: str, qualname: str):
        """Counter update run after a call, or None.  ``outer`` is true when
        the call entered the layer from outside it."""
        c = self.counters
        fname = qualname if "." not in qualname else None
        if layer_name == "linalg" and fname in _MATRIX_FUNCS:
            def hook(outer, args, result, dur):
                if outer:
                    rows, cols, nnz = _matrix_shape(fname, args)
                    c["linalg.rows_in"] += rows
                    c["linalg.cols_in"] += cols
                    c["linalg.nnz_in"] += nnz
                if fname == "_rref":
                    c["linalg.rank_out"] += len(result[1])
            return hook
        if layer_name == "cohomology" and fname == "ce_differential":
            def hook(outer, args, result, dur):
                c["cohomology.ce_nnz"] += len(result.entries)
            return hook
        if layer_name == "words" and fname == "bracket_words":
            def hook(outer, args, result, dur):
                c["words.term_pairs"] += len(args[0].terms) * len(args[1].terms)
            return hook
        if layer_name == "words" and fname == "act_word":
            def hook(outer, args, result, dur):
                c["words.act_pairs"] += len(args[0].terms) * len(args[1].terms)
            return hook
        if layer_name == "ladder" and fname == "_bracket_z":
            def hook(outer, args, result, dur):
                c["ladder.term_pairs"] += len(args[0]) * len(args[1])
            return hook
        if layer_name == "parsing" and fname and fname.startswith("parse_"):
            def hook(outer, args, result, dur):
                if outer:
                    c["parsing.chars_in"] += len(args[0])
            return hook
        if layer_name == "suites" and fname and fname.startswith("check_"):
            walls = self.check_wall

            def hook(outer, args, result, dur):
                walls[result.name] = walls.get(result.name, 0.0) + dur
            return hook
        return None

    def _wrap(self, fn, layer: int):
        qualname = fn.__qualname__
        layer_name = LAYERS[layer]
        name_id = self._name_id("%s.%s" % (layer_name, qualname), layer)
        hook = self._hook(layer_name, qualname)
        always_span = layer_name == "suites" and qualname.startswith("check_")
        st = self._state
        calls = self.calls
        start, end = self.start, self.end
        open_span = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = st[0] != layer
            if not outer and not always_span:
                if hook is None:
                    return fn(*args, **kwargs)
                result = fn(*args, **kwargs)
                hook(False, args, result, None)
                return result
            prev_layer, prev_span = st[0], st[1]
            idx = open_span(name_id)
            st[0] = layer
            if outer:
                calls[layer] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                start[idx] = t0
                end[idx] = t1
                st[0], st[1] = prev_layer, prev_span
            if hook is not None:
                hook(outer, args, result, t1 - t0)
            return result

        return wrapper

    def _replacements(self):
        """(owner, key, original, wrapper) for every function, method and
        property getter the layer modules define."""
        out = []
        for layer, mod in enumerate(self.modules):
            for key, value in list(vars(mod).items()):
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    for ckey, cval in list(vars(value).items()):
                        new = self._wrap_class_attr(cval, layer, mod)
                        if new is not None:
                            out.append((value, ckey, cval, new))
                elif _own(value, mod):
                    out.append((mod, key, value, self._wrap(value, layer)))
        return out

    def _wrap_class_attr(self, cval, layer, mod):
        if isinstance(cval, (staticmethod, classmethod)):
            fn = cval.__func__
            return type(cval)(self._wrap(fn, layer)) if _own(fn, mod) else None
        if isinstance(cval, property):
            fn = cval.fget
            if not _own(fn, mod):
                return None
            return property(self._wrap(fn, layer), cval.fset, cval.fdel, cval.__doc__)
        return self._wrap(cval, layer) if _own(cval, mod) else None

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        functions = {}
        try:
            for owner, key, original, new in self._replacements():
                if isinstance(owner, type):
                    self._saved.append(("attr", owner, key, original))
                    setattr(owner, key, new)
                else:
                    functions[id(original)] = new
            # Every binding of a module-level function: its own module, the
            # modules that imported it by name, the package, and lists.
            for ns in [self.package] + self.modules:
                for key, value in list(vars(ns).items()):
                    if id(value) in functions:
                        self._saved.append(("attr", ns, key, value))
                        setattr(ns, key, functions[id(value)])
                    elif isinstance(value, list):
                        for i, item in enumerate(value):
                            if id(item) in functions:
                                self._saved.append(("item", value, i, item))
                                value[i] = functions[id(item)]
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        for kind, owner, key, original in reversed(self._saved):
            if kind == "attr":
                setattr(owner, key, original)
            else:
                owner[key] = original
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results -------------------------------------------------------

    def self_times(self) -> list:
        """Self seconds per layer: span time minus child span time."""
        n = len(self.end)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = [0.0] * len(LAYERS)
        layer_of = self._name_layer
        name = self.name
        for i in range(n):
            layer = layer_of[name[i]]
            if layer != _OUTSIDE:
                out[layer] += (end[i] - start[i]) - child[i]
        return out

    def write_spans(self, path) -> None:
        """One JSON header line (span names and array layout), then the raw
        span arrays in that order, in native byte order."""
        arrays = (("run", self.run), ("name", self.name), ("parent", self.parent),
                  ("start", self.start), ("end", self.end))
        header = {"names": self.span_names, "count": len(self.end),
                  "byteorder": sys.byteorder,
                  "arrays": [[key, arr.typecode] for key, arr in arrays]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for _, arr in arrays:
                arr.tofile(handle)


def _own(fn, mod) -> bool:
    """Whether ``fn`` is a plain function written in ``mod``'s source.
    Methods a dataclass generates are compiled from strings and are left
    alone, as are generator functions, whose bodies run while the consumer
    iterates."""
    return (inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn)
            and fn.__code__.co_filename == mod.__file__)


class _OutsideSpan:
    def __init__(self, tracer, name_id):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        st = self.tracer._state
        self.prev = (st[0], st[1])
        self.idx = self.tracer._open(self.name_id)
        st[0] = _OUTSIDE
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        self.tracer.start[self.idx] = self.t0
        self.tracer.end[self.idx] = t1
        st = self.tracer._state
        st[0], st[1] = self.prev
        return False


class FractionCounter:
    """Counts calls of ``Fraction.__new__`` with a ``sys.setprofile`` hook
    on this process, while active."""

    def __init__(self):
        self.new_calls = 0
        self._code = fractions.Fraction.__new__.__code__

    def _profile(self, frame, event, arg):
        if event == "call" and frame.f_code is self._code:
            self.new_calls += 1

    def __enter__(self):
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        return False

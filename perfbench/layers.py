"""Per-layer tracing of hlskit from outside the package.

``install()`` wraps every public function of the six hlskit modules, the
public methods of the classes they define and the arithmetic operators of
those classes.  The wrappers replace the original everywhere it is bound:
in the defining module, on the class, and under every name another hlskit
module bound with ``from .x import y``.  Private helpers (``_mono_mul``,
``_numerator_sum``, ...) stay unwrapped, so their time counts as self time
of the public function that called them, in that function's layer.

Each wrapper adds to per-function aggregates (calls, total time, self time)
instead of recording one span per call: the ``identities`` workload makes
over a million ``LaurentPoly.__add__`` calls.  A few functions also feed
work counters, read from their arguments or results.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import types
from time import perf_counter

LAYERS = ("cli", "series", "verify", "weight", "poset", "exactalg")

# Operators and comparisons are public API of LaurentPoly, though dunder-named.
_OPERATORS = frozenset(
    ["__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__pow__", "__eq__"]
)

# Work counters: name -> description.  Values are whole numbers per item run.
COUNTERS = {
    "series.calls": "calls into public series functions",
    "series.chains": "chain_count summed over series values returned",
    "series.terms": "numerator terms summed over series values returned",
    "verify.subsets": "subsets checked by verify_order_complex",
    "verify.matrix_entries": "entries of the matrices that verify functions return",
    "exactalg.add_calls": "LaurentPoly additions, including those behind subtraction",
    "exactalg.mul_calls": "LaurentPoly multiplications, including those behind powers",
    "exactalg.invert_calls": "LaurentPoly.invert_vars calls",
    "exactalg.y_binomial_calls": "y_binomial calls",
    "exactalg.y_binomial_distinct": "distinct (table, n, k, v) arguments of y_binomial",
    "weight.pair_weight_calls": "pair_weight calls",
    "weight.pair_weight_distinct": "distinct (a, b) arguments of pair_weight",
    "weight.chain_weight_calls": "chain_weight calls",
    "poset.elements": "elements listed by enumerate_elements / interval_elements for callers outside poset",
    "poset.chains_yielded": "chains and multichains yielded by poset generators to callers outside poset",
    "poset.covers": "cover pairs returned by cover_relations",
}


class Tracer:
    """Aggregates calls, total and self time per wrapped function."""

    def __init__(self):
        self.functions: dict[str, list] = {}  # qualname -> [layer, calls, total_s, self_s]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.y_binomial_args: set = set()
        self.pair_weight_args: set = set()
        # One frame per active wrapped call: [child time, layer].
        self._stack: list[list] = []
        self._wrapped: dict[int, object] = {}  # id of original -> wrapper

    # -- wrapping --------------------------------------------------------

    def _timed(self, fn, layer: str, qualname: str, hook):
        record = self.functions.setdefault(qualname, [layer, 0, 0.0, 0.0])
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = stack[-1][1] if stack else None
            frame = [0.0, layer]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                record[1] += 1
                record[2] += dt
                record[3] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if isinstance(result, types.GeneratorType):
                result = tracer._timed_generator(result, record, layer, caller)
            if hook is not None:
                hook(tracer, args, result, caller)
            return result

        return wrapper

    def _timed_generator(self, gen, record, layer, caller):
        # Time spent producing each item belongs to the generator's layer.
        stack = self._stack
        counts = self.counts
        count_yields = layer == "poset" and caller != "poset"
        while True:
            frame = [0.0, layer]
            stack.append(frame)
            t0 = perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                dt = perf_counter() - t0
                stack.pop()
                record[2] += dt
                record[3] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if count_yields:
                counts["poset.chains_yielded"] += 1
            yield item

    def _wrap(self, fn, layer: str):
        key = id(fn)
        if key not in self._wrapped:
            qualname = f"{layer}.{fn.__qualname__}"
            self._wrapped[key] = self._timed(fn, layer, qualname, _HOOKS.get(qualname))
        return self._wrapped[key]

    def install(self) -> None:
        """Wrap the public surface of every layer and rebind every import of it."""
        modules = {layer: importlib.import_module(f"hlskit.{layer}") for layer in LAYERS}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._wrap(obj, layer)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hlskit" or mod_name.startswith("hlskit.")):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in self._wrapped:
                    setattr(mod, name, self._wrapped[id(obj)])

    def _wrap_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in _OPERATORS:
                continue
            if inspect.isfunction(attr):
                setattr(cls, name, self._wrap(attr, layer))
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self._wrap(attr.__func__, layer)))

    # -- results ---------------------------------------------------------

    def report(self) -> dict:
        """Per-layer self time, render time and counters for this process."""
        self_s = dict.fromkeys(LAYERS, 0.0)
        for layer, _calls, _total, own in self.functions.values():
            self_s[layer] += own
        calls = {q: rec[1] for q, rec in self.functions.items()}
        counts = dict(self.counts)
        counts["series.calls"] = sum(c for q, c in calls.items() if q.startswith("series."))
        counts["exactalg.add_calls"] = calls.get("exactalg.LaurentPoly.__add__", 0)
        counts["exactalg.mul_calls"] = calls.get("exactalg.LaurentPoly.__mul__", 0)
        counts["exactalg.invert_calls"] = calls.get("exactalg.LaurentPoly.invert_vars", 0)
        counts["exactalg.y_binomial_calls"] = calls.get("exactalg.y_binomial", 0)
        counts["exactalg.y_binomial_distinct"] = len(self.y_binomial_args)
        counts["weight.pair_weight_calls"] = calls.get("weight.pair_weight", 0)
        counts["weight.pair_weight_distinct"] = len(self.pair_weight_args)
        counts["weight.chain_weight_calls"] = calls.get("weight.chain_weight", 0)
        render = self.functions.get("exactalg.LaurentPoly.text", [None, 0, 0.0, 0.0])[2]
        return {"self_s": self_s, "render_s": render, "counts": counts}


# -- counter hooks: (tracer, args, result, caller layer) -----------------------


def _series_value(tracer, args, result, caller):
    tracer.counts["series.chains"] += result.chain_count
    tracer.counts["series.terms"] += result.term_count


def _subsets(tracer, args, result, caller):
    tracer.counts["verify.subsets"] += result.subsets_checked


def _matrix(tracer, args, result, caller):
    tracer.counts["verify.matrix_entries"] += result.dim * result.dim


def _elements(tracer, args, result, caller):
    if caller != "poset":
        tracer.counts["poset.elements"] += len(result)


def _covers(tracer, args, result, caller):
    tracer.counts["poset.covers"] += len(result)


def _y_binomial(tracer, args, result, caller):
    tracer.y_binomial_args.add(tuple(args))


def _pair_weight(tracer, args, result, caller):
    tracer.pair_weight_args.add((args[0], args[1]))


_HOOKS = {
    **{
        f"series.{name}": _series_value
        for name in (
            "hls",
            "hls_modified",
            "classical_igusa",
            "generalized_igusa",
            "mv_hls",
            "weak_order_igusa",
        )
    },
    "verify.verify_order_complex": _subsets,
    **{f"verify.{name}": _matrix for name in ("zeta_matrix", "mobius_matrix", "matmul", "kron")},
    "poset.enumerate_elements": _elements,
    "poset.interval_elements": _elements,
    "poset.cover_relations": _covers,
    "exactalg.y_binomial": _y_binomial,
    "weight.pair_weight": _pair_weight,
}

"""Span tracing of eiscong's public layer functions, installed from outside.

`install()` replaces every binding of each traced function (module
attributes in every loaded `eiscong` module, and class attributes for
`QSeries`/`ResidueRing` methods) with a wrapper that records one span per
call. Spans stay in memory as flat arrays; `Recorder.summary()` reduces them
to per-layer call counts, self times and counters when the operation ends.

A layer's self time is the summed duration of its spans minus, for each
span, the part of its interval covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# (layer, module, attribute); "Class.method" attributes patch the class.
TARGETS = [
    ("exact.bernoulli", "eiscong.exact", "bernoulli"),
    ("exact.sigma_power_mod", "eiscong.exact", "sigma_power_mod"),
    ("exact.binomial", "eiscong.exact", "gen_binomial"),
    ("exact.binomial", "eiscong.exact", "h_coefficient"),
    ("residue.reduce_rational", "eiscong.residue", "ResidueRing.reduce_rational"),
    ("series.mul", "eiscong.series", "QSeries.__mul__"),
    ("series.pow", "eiscong.series", "QSeries.pow"),
    ("series.linear", "eiscong.series", "QSeries.__add__"),
    ("series.linear", "eiscong.series", "QSeries.__sub__"),
    ("series.linear", "eiscong.series", "QSeries.scale"),
    ("series.equal_mod", "eiscong.series", "series_equal_mod"),
    ("eisenstein.series", "eiscong.eisenstein", "g_series"),
    ("eisenstein.series", "eiscong.eisenstein", "e_series"),
    ("eisenstein.series", "eiscong.eisenstein", "delta_series"),
    ("eisenstein.monomial", "eiscong.eisenstein", "monomial_series"),
    ("filtration.bound", "eiscong.filtration", "factor_filtration_bound"),
    ("filtration.basis", "eiscong.filtration", "basis"),
    ("filtration.probe", "eiscong.filtration", "sharpness_probe"),
    ("filtration.solve", "eiscong.filtration", "solve_mod_pm"),
    ("congruences.identity", "eiscong.congruences", "combin_identity_sum"),
    ("congruences.identity", "eiscong.congruences", "check_telescoping"),
    ("congruences.identity", "eiscong.congruences", "check_sum_recurrence"),
    ("cache.load", "eiscong.cache", "load_bernoulli_cache"),
    ("cache.save", "eiscong.cache", "save_bernoulli_cache"),
    ("cli.main", "eiscong.cli", "main"),
]

# Every other check_*/scan_* function of eiscong.congruences is traced as
# congruences.check (see _congruence_checks).
CHECK_LAYER = "congruences.check"

LAYERS = sorted({layer for layer, _, _ in TARGETS} | {CHECK_LAYER})


def _congruence_checks(module) -> list[str]:
    identity = {attr for layer, _, attr in TARGETS if layer == "congruences.identity"}
    return sorted(
        name for name, value in vars(module).items()
        if name.startswith(("check_", "scan_")) and callable(value) and name not in identity
    )


def self_times(names, starts, ends, parents) -> dict:
    """Per-name [calls, self time] from a span table in start order.

    Span i runs from starts[i] to ends[i]; parents[i] is the index of the
    enclosing span or -1. The time a span's children cover is the union of
    their intervals clipped to the span, found in one sweep because children
    are visited in ascending start.
    """
    n = len(names)
    covered = [0] * n
    covered_until = list(starts)
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], covered_until[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            covered_until[p] = hi
    totals: dict = {}
    for i in range(n):
        entry = totals.setdefault(names[i], [0, 0])
        entry[0] += 1
        entry[1] += ends[i] - starts[i] - covered[i]
    return totals


class Recorder:
    """In-memory span table of one operation (one child process)."""

    def __init__(self, op_id: int, clock=time.perf_counter_ns):
        self.op_id = op_id
        self.clock = clock
        self.names = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self.stack = [-1]
        self.counters: dict[str, int] = {}
        self.lru_functions: dict[str, list] = {}

    def begin(self, name_id: int) -> int:
        index = len(self.names)
        self.names.append(name_id)
        self.parents.append(self.stack[-1])
        self.stack.append(index)
        self.ends.append(0)
        self.starts.append(self.clock())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = self.clock()
        self.stack.pop()

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key: str, value: int) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def summary(self) -> dict:
        """Per-layer metrics of this operation: calls, self_s and counters."""
        totals = self_times(self.names, self.starts, self.ends, self.parents)
        out = {}
        for name_id, layer in enumerate(LAYERS):
            calls, self_ns = totals.get(name_id, (0, 0))
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_ns / 1e9
        for layer, functions in self.lru_functions.items():
            out[f"{layer}.misses"] = sum(fn.cache_info().misses for fn in functions)
        out.update(self.counters)
        return out


def _wrap(fn, recorder: Recorder, name_id: int, pre=None, post=None):
    begin, end = recorder.begin, recorder.end

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if pre is not None:
            pre(args)
        index = begin(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            end(index)
        if post is not None:
            post(result)
        return result

    if hasattr(fn, "cache_info"):
        traced.cache_info = fn.cache_info
        traced.cache_clear = fn.cache_clear
    return traced


def _hooks(layer: str, recorder: Recorder):
    """Counters read from a call's arguments (pre) or result (post)."""
    if layer == "exact.bernoulli":
        from eiscong import exact

        def pre(args):
            k = args[0]
            recorder.peak("exact.bernoulli.max_index", k)
            if k % 2 == 0 and k not in exact.bernoulli_cached_indices():
                recorder.count("exact.bernoulli.misses")
        return pre, None
    if layer == "series.mul":
        def pre(args):
            prec = min(args[0].precision, args[1].precision)
            recorder.count("series.mul.coeff_products", (prec + 1) * (prec + 2) // 2)
            recorder.peak("series.mul.max_precision", prec)
        return pre, None
    if layer == "filtration.solve":
        return None, lambda result: recorder.count("filtration.solve.solved", int(bool(result)))
    if layer == "filtration.bound":
        return None, lambda result: recorder.count("filtration.bound.found")
    if layer == "cache.load":
        return None, lambda result: recorder.count("cache.load.entries", result)
    if layer == "cache.save":
        return None, lambda result: recorder.count("cache.save.appended", result)
    return None, None


def _rebind(original, replacement) -> None:
    """Point every eiscong module attribute bound to `original` at `replacement`."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "eiscong" or module_name.startswith("eiscong.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(recorder: Recorder) -> None:
    """Wrap every traced function, recording into `recorder`."""
    targets = list(TARGETS)
    congruences = importlib.import_module("eiscong.congruences")
    targets += [(CHECK_LAYER, "eiscong.congruences", name) for name in _congruence_checks(congruences)]
    for layer, module_name, attr in targets:
        module = importlib.import_module(module_name)
        name_id = LAYERS.index(layer)
        pre, post = _hooks(layer, recorder)
        if "." in attr:
            class_name, method = attr.split(".")
            cls = getattr(module, class_name)
            original = cls.__dict__[method]
            setattr(cls, method, _wrap(original, recorder, name_id, pre, post))
        else:
            original = getattr(module, attr)
            if hasattr(original, "cache_info"):
                recorder.lru_functions.setdefault(layer, []).append(original)
            _rebind(original, _wrap(original, recorder, name_id, pre, post))

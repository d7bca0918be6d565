"""Timing wrappers installed on confcohom from outside, for traced passes.

``install`` replaces every public function of the layer modules, in every
module namespace that binds it (``charseries.stable_partitions`` as well as
``combinat.stable_partitions``), and a few methods on the polynomial classes,
by a wrapper that records a span: (name, start, end, parent span, query id,
outer duration).  Spans stay in memory until the pass ends.  Work counts are
derived from the arguments and results of the wrapped calls and from
``lru_cache.cache_info()``, so they repeat exactly from run to run.

A span's self time is its duration minus the outer durations of its direct
children (the outer duration includes the wrapper's own bookkeeping, so that
tracing cost is not charged to the caller's layer).  ``summarize`` turns the
spans into the per-layer metrics listed in ``GROUPS`` and ``LAYERS``.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter

LAYERS = ("polyarith", "combinat", "confspace", "charseries", "repstab", "cli")

#: Functions that call themselves through their module global.  Their home
#: binding stays unwrapped, or every recursive step would become a span.
RECURSIVE = {"stirling_second", "stirling_first_signed", "symmetric_group_character"}

#: Busy-time metrics: total duration of the outermost spans with these names.
GROUPS = {
    "polyarith.mul_s": ("polyarith.LaurentPoly.__mul__", "polyarith.LaurentPoly.__rmul__"),
    "polyarith.falling_product_s": ("polyarith.falling_product",),
    "polyarith.bipoly_mul_s": ("polyarith.BiPoly.__mul__", "polyarith.BiPoly.__rmul__"),
    "combinat.set_partitions_s": ("combinat.set_partitions",),
    "combinat.stable_partitions_s": ("combinat.stable_partitions",),
    "combinat.group_closure_s": ("combinat.group_closure",),
    "charseries.config_trace_s": ("charseries.config_trace",),
    "charseries.induce_blocks_s": ("charseries.induce_blocks",),
    "charseries.induce_alternating_s": ("charseries.induce_alternating",),
    "charseries.average_s": tuple(
        "charseries." + f
        for f in (
            "quotient_poincare",
            "poincare_cyclic_config",
            "poincare_unordered_config",
            "poincare_symmetric_product",
            "poincare_cyclic_product",
        )
    ),
    "confspace.poincare_s": tuple(
        "confspace." + f
        for f in ("poincare_config", "poincare_exactly", "poincare_at_most", "poincare_config_ordinary")
    ),
    "confspace.universal_poly_s": ("confspace.universal_poly",),
    "repstab.decompose_series_s": ("repstab.decompose_series",),
    "repstab.stability_report_s": ("repstab.stability_report",),
    "cli.dispatch_s": tuple(
        "cli.cmd_" + c for c in ("poincare", "character", "universal", "quotient", "stability", "selftest")
    ),
    "cli.render_s": ("cli.render",),
}

COUNTS = (
    "polyarith.mul_calls",
    "polyarith.mul_term_pairs",
    "polyarith.falling_product_calls",
    "polyarith.bipoly_mul_calls",
    "polyarith.divexact_calls",
    "combinat.set_partitions_generated",
    "combinat.set_partitions_cache_hits",
    "combinat.stable_partitions_calls",
    "combinat.partitions_scanned",
    "combinat.stable_found",
    "combinat.group_closure_calls",
    "combinat.group_elements",
    "charseries.config_trace_calls",
    "charseries.induce_blocks_calls",
    "charseries.chains_walked",
    "confspace.poincare_calls",
    "repstab.decompose_series_calls",
    "repstab.character_evals",
    "repstab.character_cache_hits",
    "cli.invocations",
    "cli.nonzero_exits",
)


@functools.lru_cache(maxsize=None)
def _stirling2(m: int, l: int) -> int:
    row = [1]
    for n in range(1, m + 1):
        row = [0] + [row[k - 1] + k * (row[k] if k < n else 0) for k in range(1, n + 1)]
    return row[l] if 0 <= l <= m else 0


def _terms(x) -> int:
    return 1 if isinstance(x, int) else len(x.support())


def _count_mul(c, fn, args, result, _before):
    c["polyarith.mul_calls"] += 1
    c["polyarith.mul_term_pairs"] += _terms(args[0]) * _terms(args[1])


def _count_set_partitions(c, fn, args, result, misses_before):
    if _misses(fn) > misses_before:
        c["combinat.set_partitions_generated"] += len(result)
    else:
        c["combinat.set_partitions_cache_hits"] += 1


def _misses(fn) -> int:
    return fn.cache_info().misses


def _count_stable(c, fn, args, result, _before):
    alpha, blocks = args
    c["combinat.stable_partitions_calls"] += 1
    # The blocks == m shortcut examines its one candidate, S(m, m) = 1.
    c["combinat.partitions_scanned"] += _stirling2(alpha.m, blocks)
    c["combinat.stable_found"] += len(result)


def _count_closure(c, fn, args, result, _before):
    c["combinat.group_closure_calls"] += 1
    c["combinat.group_elements"] += result[0]


def _count_alternating(c, fn, args, result, _before):
    low, m = args[0].m, args[1]
    c["charseries.chains_walked"] += 1 << (m - low - 1) if m > low else 1


def _count_main(c, fn, args, result, _before):
    c["cli.invocations"] += 1
    c["cli.nonzero_exits"] += result != 0


def _calls(metric):
    def count(c, fn, args, result, _before):
        c[metric] += 1

    return count


HOOKS = {
    "polyarith.LaurentPoly.__mul__": _count_mul,
    "polyarith.LaurentPoly.__rmul__": _count_mul,
    "polyarith.falling_product": _calls("polyarith.falling_product_calls"),
    "polyarith.BiPoly.__mul__": _calls("polyarith.bipoly_mul_calls"),
    "polyarith.BiPoly.__rmul__": _calls("polyarith.bipoly_mul_calls"),
    "polyarith.LaurentPoly.divexact": _calls("polyarith.divexact_calls"),
    "combinat.set_partitions": _count_set_partitions,
    "combinat.stable_partitions": _count_stable,
    "combinat.group_closure": _count_closure,
    "charseries.config_trace": _calls("charseries.config_trace_calls"),
    "charseries.induce_blocks": _calls("charseries.induce_blocks_calls"),
    "charseries.induce_alternating": _count_alternating,
    "repstab.decompose_series": _calls("repstab.decompose_series_calls"),
    "cli.main": _count_main,
}
for _name in GROUPS["confspace.poincare_s"]:
    HOOKS[_name] = _calls("confspace.poincare_calls")

#: Hooks that need a reading taken before the call.
BEFORE = {"combinat.set_partitions": _misses}

#: Methods wrapped on the polynomial classes of polyarith.
METHODS = {"LaurentPoly": ("__mul__", "__rmul__", "divexact"), "BiPoly": ("__mul__", "__rmul__")}


class Tracer:
    """Span and counter store for one pass."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.query = -1
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        hook, before = HOOKS.get(name), BEFORE.get(name)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            entered = clock()
            reading = before(fn) if before else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.query, end - entered)
            if hook:
                hook(counts, fn, args, result, reading)
                spans[idx] = (name, start, end, parent, tracer.query, clock() - entered)
            return result

        return functools.update_wrapper(traced, fn)


def _is_function(obj) -> bool:
    return isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer wherever they are bound."""
    package = sys.modules["confcohom"]
    homes = {
        layer: sys.modules[f"confcohom.{layer}"]
        for layer in LAYERS
        if f"confcohom.{layer}" in sys.modules
    }
    wrappers: dict[int, tuple[str, object]] = {}
    for layer, module in homes.items():
        for name, obj in vars(module).items():
            if not name.startswith("_") and _is_function(obj) and obj.__module__ == module.__name__:
                wrappers[id(obj)] = (name, tracer.wrap(f"{layer}.{name}", obj))
    for module in (package, *homes.values()):
        for name, obj in list(vars(module).items()):
            found = wrappers.get(id(obj))
            if found is None:
                continue
            if found[0] in RECURSIVE and obj.__module__ == module.__name__:
                continue
            setattr(module, name, found[1])
    for cls_name, methods in METHODS.items():
        cls = getattr(homes["polyarith"], cls_name)
        for method in methods:
            original = cls.__dict__[method]
            setattr(cls, method, tracer.wrap(f"polyarith.{cls_name}.{method}", original))


def summarize(spans: list) -> dict[str, float]:
    """Per-layer self times and the busy times of ``GROUPS``."""
    group_of = {name: group for group, names in GROUPS.items() for name in names}
    child_outer = [0.0] * len(spans)
    for _name, _s, _e, parent, _q, outer in spans:
        if parent >= 0:
            child_outer[parent] += outer
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    out.update({group: 0.0 for group in GROUPS})
    for i, (name, start, end, parent, _q, _outer) in enumerate(spans):
        out[name.split(".", 1)[0] + ".self_s"] += (end - start) - child_outer[i]
        group = group_of.get(name)
        if group is None:
            continue
        while parent >= 0 and group_of.get(spans[parent][0]) != group:
            parent = spans[parent][3]
        if parent < 0:
            out[group] += end - start
    return out

"""Every comparison the CLI reports: an answer against an independent route.

A check returns ``(name, passed)`` pairs, and :func:`entries` turns pairs
into the ``{name, passed}`` entries of a result document, for the commands,
the stability verdicts and the selftest battery alike.  Layer functions are
called through their modules, and ``charseries`` and ``oracles`` are
imported only by the checks that run them, so the closed forms compile
neither.
"""

from __future__ import annotations

from math import factorial

from . import combinat, confspace
from .confspace import SpaceSpec
from .polyarith import BiPoly, LaurentPoly


def _trace_series():
    """The trace-series layer, which only the routes that average import."""
    from . import charseries

    return charseries


# poincare target -> route(space, m, l); only the strata read ``l``
ENGINES = {
    "fm": lambda space, m, l: confspace.poincare_config(space, m),
    "delta": lambda space, m, l: confspace.poincare_exactly(space, l, m),
    "delta_le": lambda space, m, l: confspace.poincare_at_most(space, l, m),
    "ordinary": lambda space, m, l: confspace.poincare_config_ordinary(space, m),
    "cf": lambda space, m, l: _trace_series().poincare_cyclic_config(space, m),
    "bf": lambda space, m, l: _trace_series().poincare_unordered_config(space, m),
    "sym": lambda space, m, l: _trace_series().poincare_symmetric_product(space, m),
    "cyc": lambda space, m, l: _trace_series().poincare_cyclic_product(space, m),
}


def entries(named) -> list[dict]:
    """The ``{name, passed}`` entries of ``(name, passed)`` pairs."""
    return [{"name": name, "passed": bool(passed)} for name, passed in named]


def poincare(
    space: SpaceSpec, target: str, m: int, l: int | None, poly: LaurentPoly
) -> list[tuple[str, bool]]:
    """Compare the ``poincare`` answer ``poly`` with an independent route."""
    if target in ("fm", "ordinary"):
        # the Euler characteristic is integer arithmetic, no polynomial
        # product; duality in dimension m*dim multiplies it by (-1)^(m*dim)
        sign = (-1) ** (m * space.dim) if target == "ordinary" else 1
        euler = confspace.euler_char_config(space, m)
        return [("euler-characteristic", poly.eval_at_int(-1) == sign * euler)]
    if target in ("delta", "delta_le"):
        q = confspace.universal_poly(l, m, target == "delta_le")
        return [("universal-polynomial-evaluation", q.eval_P(space.pc) == poly)]
    if target == "sym":
        from . import oracles

        oracle = oracles.symmetric_product_generating_function(space.pc, m)
        return [("generating-function", oracle == poly)]
    charseries = _trace_series()
    if target == "bf":
        # the route is Newton's recurrence; the class-size average of the
        # trace series is the independent road to the same polynomial
        series = charseries.config_series(space, m)
        oracle = charseries.quotient_poincare(series, combinat.symmetric_counts(m), factorial(m))
    else:
        # The cyclic quotients average traces over the rotation group, listed
        # element by element, independently of their divisor sums.
        rotation = [combinat.Permutation.from_cycles(m, [list(range(1, m + 1))], one_based=True)]
        trace = {"cf": charseries.config_trace, "cyc": charseries.power_trace}[target]
        order, counts = combinat.group_closure(rotation, m)
        oracle = charseries._average(lambda ctype: trace(space, ctype), counts, order)
    named = [("subgroup-averaging", oracle == poly)]
    if target != "cyc" and m <= 6:  # the window of oracle-triangle
        named.append(("power-trace-reconstruction", _rebuilt_quotient(space, target, m) == poly))
    return named


def _rebuilt_quotient(space: SpaceSpec, target: str, m: int) -> LaurentPoly:
    """The ``bf`` or ``cf`` quotient, averaged over the configuration character
    rebuilt from cartesian-power traces.  Unlike both routes and
    ``subgroup-averaging``, it reads no divisor kernel B_d.

    X^n is the union of the strata with n - a distinct values, and the one
    with a collisions enters with the shift T^a:

        power_series(n) = sum over a of T^a * induce_blocks(config_series(n - a), n),

    so each configuration character is the power series minus its shifted,
    induced predecessors.
    """
    charseries = _trace_series()
    rebuilt = []
    for n in range(1, m + 1):
        series = charseries.power_series(space, n)
        for a, lower in enumerate(reversed(rebuilt), start=1):
            series = series + charseries.induce_blocks(lower, n).scale(LaurentPoly.term(-1, a))
        rebuilt.append(series)
    if target == "bf":
        counts, order = combinat.symmetric_counts(m), factorial(m)
    else:
        counts, order = charseries.cyclic_counts(m), m
    return charseries.quotient_poincare(rebuilt[m - 1], counts, order)


def cases_pass(cases) -> bool:
    """Run the ``poincare`` checks over (space, target, m, l) cases; a case
    with no check fails."""
    for space, target, m, l in cases:
        named = poincare(space, target, m, l, ENGINES[target](space, m, l))
        if not named or not all(passed for _name, passed in named):
            return False
    return True


def oracle_triangle(space: SpaceSpec, m: int, series) -> bool:
    """Compare the counting routes at m points with the enumeration oracle.

    The chain reconstruction must rebuild ``series``, the configuration
    character; every stratum series below it, counted by grouping cycles,
    must equal the trace summed over the enumerated stable set partitions.
    """
    from . import oracles

    if oracles.reconstruct_config_series(space, m) != series:
        return False
    charseries = _trace_series()
    for distinct in range(1, m):
        counted = charseries.exactly_series(space, distinct, m)
        for ctype in combinat.all_cycle_types(m):
            alpha = combinat.representative(ctype)
            if oracles.exactly_trace(space, distinct, m, alpha) != counted[ctype]:
                return False
    return True


def character_series(space: SpaceSpec, m: int, series) -> list[tuple[str, bool]]:
    """The whole character, up to m = 6, against the enumeration oracle."""
    return [("oracle-triangle", oracle_triangle(space, m, series))] if m <= 6 else []


def character_trace(space: SpaceSpec, ctype, poly: LaurentPoly) -> list[tuple[str, bool]]:
    """The trace of the identity, read at -T, against the Poincaré polynomial."""
    if ctype != combinat.CycleType.identity(ctype.m):
        return []
    same = poly.negate_var() == confspace.poincare_config(space, ctype.m)
    return [("identity-entry-is-poincare", same)]


def universal(q: BiPoly, l: int, m: int, closed: bool) -> list[tuple[str, bool]]:
    """Q(P := pc, T) on the plane against its stratum polynomial computed directly."""
    reference = confspace.BUILTIN_SPACES["c"]
    direct = ENGINES["delta_le" if closed else "delta"](reference, m, l)
    return [("evaluates-on-reference-space", q.eval_P(reference.pc) == direct)]


def quotient(space: SpaceSpec, m: int, order: int, poly: LaurentPoly) -> list[tuple[str, bool]]:
    """The action on configurations is free, so the quotient's Euler
    characteristic is the configuration space's divided by the order."""
    euler = poly.eval_at_int(-1) * order == confspace.euler_char_config(space, m)
    return [("euler-characteristic-average", euler)]

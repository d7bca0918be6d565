"""Every comparison the CLI reports: an answer against an independent route.

A check returns ``(name, passed)`` pairs, and :func:`entries` turns pairs
into the ``{name, passed}`` entries of a result document, for the commands,
the stability verdicts and the selftest battery alike.  :data:`TARGETS`
holds all that the CLI knows of each ``poincare`` target.  Layer functions
are called through their modules, and every layer but ``confspace`` is
imported only by the routes and checks that run it (``strata`` through
:func:`_strata`), so ``fm`` and ``ordinary`` compile no combinatorics, the
strata no series.
"""

from __future__ import annotations

from functools import partial
from math import factorial

from . import confspace, limits
from .confspace import SpaceSpec
from .polyarith import BiPoly, LaurentPoly
from .record import FrozenRecord


#: Largest m at which a command rebuilds the configuration character from
#: power traces: ``power-trace-reconstruction`` on ``bf`` and ``cf``, and
#: ``oracle-triangle`` on ``character --all``, which also lists the stable
#: set partitions of every stratum.  The bound is cost, not validity, and
#: the cost that binds is that listing, which grows like p(m) * Bell(m):
#: 0.07 s at m = 6, 0.23 s at 7, 1.4 s at 8 on the plane.  The rebuild
#: alone costs less: with the bound at 12, a cold ``poincare --space cstar
#: --target bf --m 12`` takes 0.11 s, not 0.08 s, and ``cf`` the same
#: (medians of 15 processes, 2-CPU Xeon, Python 3.11).
RECONSTRUCTION_MAX_M = 6


def _trace_series():
    """The trace-series layer, which only the routes that average import."""
    from . import charseries

    return charseries


def _strata():
    """The strata layer, which only the stratum routes and their checks import."""
    from . import strata

    return strata


def entries(named) -> list[dict]:
    """The ``{name, passed}`` entries of ``(name, passed)`` pairs."""
    return [{"name": name, "passed": bool(passed)} for name, passed in named]


def _euler(space: SpaceSpec, m: int, l, poly: LaurentPoly, dual: bool = False):
    # the Euler characteristic is integer arithmetic, no polynomial product;
    # duality in dimension m*dim multiplies the ordinary one by (-1)^(m*dim)
    sign = (-1) ** (m * space.dim) if dual else 1
    euler = confspace.euler_char_config(space, m)
    return [("euler-characteristic", poly.eval_at_int(-1) == sign * euler)]


def _universal(space: SpaceSpec, m: int, l: int, poly: LaurentPoly, closed: bool = False):
    q = _strata().universal_poly(l, m, closed)
    return [("universal-polynomial-evaluation", q.eval_P(space.pc) == poly)]


def _generating_function(space: SpaceSpec, m: int, l, poly: LaurentPoly):
    from . import oracles

    oracle = oracles.symmetric_product_generating_function(space.pc, m)
    return [("generating-function", oracle == poly)]


def _averaging(space: SpaceSpec, m: int, l, poly: LaurentPoly, rotations=True, power=False):
    """Average configuration traces, or power traces when ``power``, over the
    rotation group, or S_m unless ``rotations``; rebuild the former from the latter."""
    charseries = _trace_series()
    if rotations:
        from . import groups

        # The cyclic quotients average traces over the rotation group, counted
        # by walking its Knuth table, independently of their divisor sums.
        rotation = [groups.Permutation.from_cycles(m, [list(range(1, m + 1))])]
        trace = charseries.power_trace if power else charseries.config_trace
        order, counts = groups.subgroup_class_counts(rotation, m)
        oracle = charseries._average(lambda ctype: trace(space, ctype), counts, order)
    else:
        from . import combinat

        # the route is Newton's recurrence; the class-size average of the
        # trace series is the independent road to the same polynomial
        counts, order = combinat.symmetric_counts(m), factorial(m)
        oracle = charseries.quotient_poincare(charseries.config_series(space, m), counts, order)
    named = [("subgroup-averaging", oracle == poly)]
    if not power and m <= RECONSTRUCTION_MAX_M:
        # both routes and subgroup-averaging read the divisor kernels B_d;
        # the character rebuilt from power traces reads none
        rebuilt = charseries.reconstruct_config_series(space, m)
        same = charseries.quotient_poincare(rebuilt, counts, order) == poly
        named.append(("power-trace-reconstruction", same))
    return named


def _closed_form(space: SpaceSpec, m: int, l: int | None, closed: bool = False) -> None:
    limits.check_closed_form(m, l, space.pc, closed)


def _series(space: SpaceSpec, m: int, l) -> None:
    # bf's check averages a series; sym's and cyc's powers of N(T) grow like one
    limits.check_series(m, space.pc)


class Target(FrozenRecord):
    """A ``poincare`` target: on a space with each flag it ``requires``,
    ``gate(space, m, l)`` refuses its cost, ``route(space, m, l)`` answers and
    ``check(space, m, l, poly)`` names the comparisons with the answer.  It
    needs 1 <= l <= m when it ``takes_l``, and else no l and m >= ``least_m``."""

    __slots__ = ("route", "check", "gate", "requires", "takes_l", "least_m")

    def __init__(self, route, check, gate, requires=("i_acyclic",), takes_l=False, least_m=1):
        self._init(route, check, gate, requires, takes_l, least_m)


#: Each ``poincare`` target, in the order the CLI offers them
TARGETS = {
    "fm": Target(lambda space, m, l: confspace.poincare_config(space, m),
                 _euler, _closed_form, least_m=0),
    "delta": Target(lambda space, m, l: _strata().poincare_exactly(space, l, m),
                    _universal, _closed_form, takes_l=True),
    "delta_le": Target(lambda space, m, l: _strata().poincare_at_most(space, l, m),
                       partial(_universal, closed=True), partial(_closed_form, closed=True),
                       takes_l=True),
    "ordinary": Target(lambda space, m, l: confspace.poincare_config_ordinary(space, m),
                       partial(_euler, dual=True), _closed_form, ("i_acyclic", "orientable")),
    "cf": Target(lambda space, m, l: _trace_series().poincare_cyclic_config(space, m),
                 _averaging, lambda space, m, l: limits.check_m(m, least=1)),
    "bf": Target(lambda space, m, l: _trace_series().poincare_unordered_config(space, m),
                 partial(_averaging, rotations=False), _series),
    "sym": Target(lambda space, m, l: _trace_series().poincare_symmetric_product(space, m),
                  _generating_function, _series, ()),
    "cyc": Target(lambda space, m, l: _trace_series().poincare_cyclic_product(space, m),
                  partial(_averaging, power=True), _series, ()),
}


def cases_pass(cases) -> bool:
    """Run the ``poincare`` checks over (space, target, m, l) cases; a case
    with no check fails."""
    for space, target, m, l in cases:
        row = TARGETS[target]
        named = row.check(space, m, l, row.route(space, m, l))
        if not named or not all(passed for _name, passed in named):
            return False
    return True


def oracle_triangle(space: SpaceSpec, m: int, series) -> bool:
    """Compare the counting routes at m points with the enumeration oracle.

    The power-trace reconstruction must rebuild ``series``, the
    configuration character; every stratum series below it, counted by
    the recurrence over the cycles, must equal the trace summed over the
    enumerated stable set partitions.
    """
    from . import combinat, groups, oracles

    charseries = _trace_series()
    if charseries.reconstruct_config_series(space, m) != series:
        return False
    for distinct in range(1, m):
        counted = charseries.exactly_series(space, distinct, m)
        for ctype in combinat.all_cycle_types(m):
            alpha = groups.representative(ctype)
            if oracles.exactly_trace(space, distinct, m, alpha) != counted[ctype]:
                return False
    return True


def character_series(space: SpaceSpec, m: int, series) -> list[tuple[str, bool]]:
    """The whole character against the power-trace reconstruction and the
    enumeration oracle, up to ``RECONSTRUCTION_MAX_M``."""
    if m > RECONSTRUCTION_MAX_M:
        return []
    return [("oracle-triangle", oracle_triangle(space, m, series))]


def character_trace(space: SpaceSpec, ctype, poly: LaurentPoly) -> list[tuple[str, bool]]:
    """The trace of the identity, read at -T, against the Poincaré polynomial."""
    from . import combinat

    if ctype != combinat.CycleType.identity(ctype.m):
        return []
    same = poly.negate_var() == confspace.poincare_config(space, ctype.m)
    return [("identity-entry-is-poincare", same)]


def universal(q: BiPoly, l: int, m: int, closed: bool) -> list[tuple[str, bool]]:
    """Q(P := pc, T) on the plane against its stratum polynomial computed directly."""
    reference = confspace.BUILTIN_SPACES["c"]
    direct = TARGETS["delta_le" if closed else "delta"].route(reference, m, l)
    return [("evaluates-on-reference-space", q.eval_P(reference.pc) == direct)]


def stability(space: SpaceSpec, report) -> list[tuple[str, bool]]:
    """Each Betti number of a stability table against the stratum's
    Poincaré polynomial, which reads no trace series: the stratum of
    l = m - defect distinct values is an orientable manifold of dimension
    l * dim, so its Borel-Moore Betti number in degree i is the coefficient
    of T^(l * dim - i) in ``poincare_exactly(space, l, m)``."""
    same = all(
        betti == _strata().poincare_exactly(space, m - report.defect, m).coeff(
            (m - report.defect) * space.dim - report.degree
        )
        for m, betti in report.betti.items()
    )
    return [("betti-against-stratum-polynomial", same)]


def quotient(space: SpaceSpec, m: int, order: int, poly: LaurentPoly) -> list[tuple[str, bool]]:
    """The action on configurations is free, so the quotient's Euler
    characteristic is the configuration space's divided by the order."""
    euler = poly.eval_at_int(-1) * order == confspace.euler_char_config(space, m)
    return [("euler-characteristic-average", euler)]

"""Graded trace series of symmetric-group actions on configuration spaces.

A :class:`TraceSeries` assigns to every cycle type of the symmetric group
on m letters the alternating-sign graded trace

    sum_i (-1)^i tr(alpha : H_c^i) T^i

of a permutation alpha of that type.  Under this convention the entry at
the identity is the compact-support Poincaré polynomial evaluated at -T.

Denominator clearing
--------------------
The closed trace formula for configuration spaces is a product over cycle
lengths d of falling factorials of divisor sums that individually carry
1/(d T^d) factors.  Multiplying each falling factorial through by d^x T^(dx)
turns it into  prod_{i<x} (B_d - i*d*T^d)  with

    B_d(T) = sum_{e | d} mu(d/e) * T^(d-e) * N(T^e),      N(T) = pc(-T),

which lives entirely in Z[T]: the two forms are equal because
c^x * (A)(A-1)...(A-x+1) = (cA)(cA-c)...(cA-(x-1)c).  All arithmetic here
stays in the cleared form; rational numbers never appear.

Every route here counts stable set partitions by splitting cycles among
orbit lengths (``combinat.stable_block_counts``), never lists them.  The one
inverse of the stratification of X^m, :func:`reconstruct_config_series`,
also lives here, because the ``bf`` and ``cf`` checks run it and they load
no oracle; the cross-checks that list partitions, or take other independent
roads to the same numbers, are in :mod:`confcohom.oracles`.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from functools import lru_cache

from . import limits
from .combinat import (
    CycleType,
    all_cycle_types,
    divisors,
    euler_phi,
    mobius,
    stable_block_counts,
)
from .confspace import SpaceSpec, require
from .errors import ConsistencyError
from .polyarith import LaurentPoly, _linear_combination, falling_product
from .record import FrozenRecord


class TraceSeries(FrozenRecord):
    """A graded character presented as one Laurent polynomial per cycle type."""

    __slots__ = ("m", "values")

    def __init__(self, m: int, values: Mapping[CycleType, LaurentPoly]):
        if set(values) != set(all_cycle_types(m)):
            raise ValueError("series must be defined on every cycle type")
        self._init(m, values)

    def __getitem__(self, ctype: CycleType) -> LaurentPoly:
        return self.values[ctype]

    def identity_entry(self) -> LaurentPoly:
        return self.values[CycleType.identity(self.m)]

    def map_values(self, fn) -> "TraceSeries":
        return TraceSeries(self.m, {ct: fn(ct, v) for ct, v in self.values.items()})

    def scale(self, factor: LaurentPoly | int) -> "TraceSeries":
        return self.map_values(lambda _ct, v: v * factor)

    def __add__(self, other: "TraceSeries") -> "TraceSeries":
        if self.m != other.m:
            raise ValueError("cannot add series over different symmetric groups")
        return TraceSeries(
            self.m, {ct: v + other.values[ct] for ct, v in self.values.items()}
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceSeries):
            return NotImplemented
        return self.m == other.m and dict(self.values) == dict(other.values)


# ---------------------------------------------------------------------------
# cartesian powers
# ---------------------------------------------------------------------------


def _cleared_product(ctype: CycleType, factor: Callable[[int, int], LaurentPoly]) -> LaurentPoly:
    """prod over the cycle lengths d of ``ctype`` of factor(d, x_d), skipping
    x_d = 0: the one trace product.  The cartesian power takes
    factor(d, x) = N(T^d)^x; the configuration traces take the cleared
    factor(d, x) = prod_{i < x} (B_d - i * d * T^d)."""
    result = LaurentPoly.one()
    for d, x in enumerate(ctype.mult, start=1):
        if x:
            result = result * factor(d, x)
    return result


def power_trace(space: SpaceSpec, ctype: CycleType) -> LaurentPoly:
    """Graded trace of a type-``ctype`` permutation on H_c of the cartesian power.

    The trace of a single d-cycle is N(T^d) with N(T) = pc(-T); disjoint
    cycles multiply.  Valid for any finite-type space, no acyclicity
    needed.  The independent check is ``oracles.tensor_trace_oracle``.
    """
    limits.check_m(ctype.m)
    n = space.pc.negate_var()
    return _cleared_product(ctype, lambda d, x: n.substitute(d) ** x)


def power_series(space: SpaceSpec, m: int) -> TraceSeries:
    limits.check_m(m)  # before listing the cycle types, which grow like p(m)
    return TraceSeries(m, {ct: power_trace(space, ct) for ct in all_cycle_types(m)})


# ---------------------------------------------------------------------------
# ordered configuration spaces
# ---------------------------------------------------------------------------


def _divisor_kernel(space: SpaceSpec, d: int) -> LaurentPoly:
    """B_d(T) = sum over e | d of mu(d/e) T^(d-e) N(T^e), the cleared d-cycle trace."""
    n = space.pc.negate_var()
    total = LaurentPoly.zero()
    for e in divisors(d):
        mu = mobius(d // e)
        if mu:
            total = total + mu * n.substitute(e) * LaurentPoly.term(1, d - e)
    return total


def config_trace(space: SpaceSpec, ctype: CycleType) -> LaurentPoly:
    """Graded trace of a type-``ctype`` permutation on H_c of the configuration space.

    Denominator-cleared closed formula:

        prod_d prod_{i < x_d} ( B_d(T) - i * d * T^d ).
    """
    require(space, "i_acyclic")
    limits.check_m(ctype.m)
    return _cleared_product(
        ctype, lambda d, x: falling_product(_divisor_kernel(space, d), LaurentPoly.term(d, d), x)
    )


def config_series(space: SpaceSpec, m: int) -> TraceSeries:
    """:func:`config_trace` on every cycle type, from one factor table.

    The table, local to the call, builds each kernel B_d once and each
    falling factor prod_{i < x} (B_d - i * d * T^d) once per pair (d, x)
    with d * x <= m: sum_d floor(m/d) falling products for p(m) entries.
    """
    require(space, "i_acyclic")
    limits.check_m(m)  # before listing the cycle types, which grow like p(m)
    factors = {}
    for d in range(1, m + 1):
        kernel = _divisor_kernel(space, d)
        for x in range(1, m // d + 1):
            factors[d, x] = falling_product(kernel, LaurentPoly.term(d, d), x)
    return TraceSeries(
        m, {ct: _cleared_product(ct, lambda d, x: factors[d, x]) for ct in all_cycle_types(m)}
    )


# ---------------------------------------------------------------------------
# multiplicity strata and induction operators on class functions
# ---------------------------------------------------------------------------


def exactly_series(space: SpaceSpec, distinct: int, m: int) -> TraceSeries:
    """The full character series of the exact stratum, one entry per cycle type."""
    require(space, "i_acyclic")
    limits.check_count(distinct, "distinct", 1)
    return induce_blocks(config_series(space, distinct), m)


def induce_blocks(series: TraceSeries, m: int) -> TraceSeries:
    """Induce a class function from ``series.m`` block labels up to m letters.

    The value at a permutation alpha of type ct sums the series over the
    block permutations that alpha induces on its stable set partitions
    into l = ``series.m`` blocks.  Those partitions are counted, not
    listed:

        Ind(series)[ct] = sum over beta of N(ct, beta) * series[beta],

    where N(ct, beta) = ``stable_block_counts(ct, l)[beta]`` is read in
    closed form from the split of alpha's cycles among the orbit lengths
    of beta (the cycle index of the species composition F o E_+,
    Bergeron-Labelle-Leroux 1998).  This geometric form of induction is
    equivalent to the group-theoretic induced-character formula for the
    block stabilizers, and much cheaper.  Each count table is built once
    per process.  Acting with ``series.m == m`` is the identity.
    """
    blocks = series.m
    limits.check_count(blocks, "series.m", 1)
    limits.check_m(m, least=blocks)  # induction never goes downward
    if blocks == m:
        return series
    values = series.values
    induced = {
        ct: _linear_combination(
            (count, values[beta]) for beta, count in _block_counts(ct, blocks)
        )
        for ct in all_cycle_types(m)
    }
    return TraceSeries(m, induced)


@lru_cache(maxsize=None)
def _block_counts(ctype: CycleType, blocks: int) -> tuple[tuple[CycleType, int], ...]:
    """The pairs of :func:`stable_block_counts`, built once per process."""
    return tuple(stable_block_counts(ctype, blocks).items())


def reconstruct_config_series(space: SpaceSpec, m: int) -> TraceSeries:
    """The configuration character rebuilt from cartesian-power traces alone.

    X^n is the union of the strata with n - a distinct values, and the one
    with a collisions enters with the shift T^a:

        power_series(n) = sum over a < n of T^a * induce_blocks(config_series(n - a), n),

    a triangle with config_series(n) on its diagonal.  Solved row by row,
    each configuration character is the power series minus its shifted,
    induced predecessors.  No divisor kernel B_d is read, so agreement with
    :func:`config_series` is a kernel-free check of the trace formula.
    """
    require(space, "i_acyclic")
    limits.check_m(m)  # before listing the cycle types, which grow like p(m)
    if m == 0:
        # the empty configuration space is a point
        return TraceSeries(0, {CycleType.identity(0): LaurentPoly.one()})
    rebuilt: list[TraceSeries] = []
    for n in range(1, m + 1):
        series = power_series(space, n)
        for a, lower in enumerate(reversed(rebuilt), start=1):
            series = series + induce_blocks(lower, n).scale(LaurentPoly.term(-1, a))
        rebuilt.append(series)
    return rebuilt[-1]


# ---------------------------------------------------------------------------
# quotient Poincaré polynomials
# ---------------------------------------------------------------------------


def cyclic_counts(m: int) -> dict[CycleType, int]:
    """Class counts of the rotation group of order m: phi(d) elements of type d^(m/d)."""
    return {CycleType.from_parts([d] * (m // d), m): euler_phi(d) for d in divisors(m)}


def _average(
    trace: Callable[[CycleType], LaurentPoly], counts: Mapping[CycleType, int], order: int
) -> LaurentPoly:
    """Average ``trace`` over a group with the given class counts, read at -T.

    Sums count * trace(ctype), divides exactly by the order and undoes the
    -T convention.  An inexact division or a negative output coefficient
    raises ConsistencyError: the traces and the group did not pair up.
    """
    total = _linear_combination((count, trace(ctype)) for ctype, count in counts.items())
    return _read_at_minus_t(total.divexact(order))


def _read_at_minus_t(average: LaurentPoly) -> LaurentPoly:
    """Undo the -T convention of a group average; Betti numbers are nonnegative."""
    result = average.negate_var()
    if not result.has_nonnegative_coeffs():
        raise ConsistencyError("group average produced negative Betti numbers")
    return result


def quotient_poincare(
    series: TraceSeries, counts: Mapping[CycleType, int], order: int
) -> LaurentPoly:
    """Poincaré polynomial of the quotient by a subgroup with given class counts.

    Averages the trace series over the subgroup (grouped by cycle type),
    divides exactly by the order, and undoes the -T convention; an inexact
    division or a negative Betti number means the series/subgroup pairing
    was invalid and raises ConsistencyError.
    """
    limits.check_count(order, "order", 1)
    if sum(counts.values()) != order:
        raise ValueError("class counts must sum to the group order")
    for ctype in counts:
        if ctype not in series.values:
            raise ValueError(f"class {ctype} does not act on {series.m} letters")
    return _average(series.__getitem__, counts, order)


def poincare_cyclic_config(space: SpaceSpec, m: int) -> LaurentPoly:
    """Poincaré polynomial of the quotient of the configuration space by the
    cyclic rotation group of order m.

    Closed divisor-sum form, computed in the cleared integer arithmetic:
    (1/m) sum over d | m of phi(d) times the configuration trace of a
    permutation with m/d cycles of length d.
    """
    require(space, "i_acyclic")
    limits.check_m(m, least=1)
    return _average(lambda ct: config_trace(space, ct), cyclic_counts(m), m)


def _newton(power_sums: list[LaurentPoly]) -> list[LaurentPoly]:
    """The S_n averages g_0..g_m of a class function whose generating function
    is exp(sum_j c_j u^j / j), from its power sums c_1..c_m: the exponential
    formula as Newton's recurrence (Macdonald, *Symmetric Functions*, I.2),
    g_0 = 1 and n * g_n = sum_{j<=n} c_j * g_(n-j).  No cycle type is
    visited, and each division by n is exact and checked."""
    g = [LaurentPoly.one()]
    for n in range(1, len(power_sums) + 1):
        total = _linear_combination((1, power_sums[j - 1] * g[n - j]) for j in range(1, n + 1))
        g.append(total.divexact(n))
    return g


def _config_power_sums(space: SpaceSpec, m: int, twisted: bool = False) -> list[LaurentPoly]:
    """c_j = sum over d | j of (-1)^(j/d + 1) * B_d * T^(j - d) for j <= m, the power
    sums of Getzler's product.  ``twisted`` weights each permutation by its sign,
    as S_m acts on the orientation of X^m in odd dim: each sign becomes (-1)^(j + 1)."""
    kernels = [_divisor_kernel(space, d) for d in range(1, m + 1)]
    return [
        _linear_combination(
            ((-1) ** ((j if twisted else j // d) + 1), kernels[d - 1] * LaurentPoly.term(1, j - d))
            for d in divisors(j)
        )
        for j in range(1, m + 1)
    ]


def poincare_unordered_config(space: SpaceSpec, m: int) -> LaurentPoly:
    """Poincaré polynomial of the unordered configuration space: g_m of
    :func:`_newton` on :func:`_config_power_sums`, read at -T.  By the
    exponential formula this is Getzler's product
    prod_d (1 + (Tu)^d)^(B_d / (d T^d)) at u^m (Getzler, "Resolving mixed
    Hodge modules on configuration spaces", Duke 1999), the class-size
    average of :func:`config_trace`, which is the independent route.
    """
    require(space, "i_acyclic")
    limits.check_m(m, least=1)
    return _read_at_minus_t(_newton(_config_power_sums(space, m))[m])


# ---------------------------------------------------------------------------
# symmetric and cyclic products
# ---------------------------------------------------------------------------


def poincare_symmetric_product(space: SpaceSpec, m: int) -> LaurentPoly:
    """Poincaré polynomial of the m-th symmetric product of X.

    The cartesian-power analogue of the unordered quotient: :func:`_newton`
    on c_j = N(T^j), the trace of a j-cycle, so no acyclicity is needed.
    The classical generating function is the independent route to the same
    polynomial; the CLI's ``generating-function`` check compares the two.
    """
    limits.check_m(m, least=1)
    n = space.pc.negate_var()
    return _read_at_minus_t(_newton([n.substitute(j) for j in range(1, m + 1)])[m])


def poincare_cyclic_product(space: SpaceSpec, m: int) -> LaurentPoly:
    """Poincaré polynomial of the m-th cyclic product of X.

    Divisor average of cartesian-power traces over the rotation group's
    class counts.  Averaging over the group's listed elements is the
    independent route; the CLI's ``subgroup-averaging`` check compares the two.
    """
    limits.check_m(m, least=1)
    return _average(lambda ct: power_trace(space, ct), cyclic_counts(m), m)

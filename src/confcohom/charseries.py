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

Every route here counts stable set partitions, one cycle at a time, by
the orbit of blocks each cycle opens or joins
(``combinat.stable_block_counts``), and never lists them.  The one
inverse of the stratification of X^m, :func:`reconstruct_config_series`,
also lives here, because the ``bf`` and ``cf`` checks run it and they load
no oracle; the cross-checks that list partitions, or take other independent
roads to the same numbers, are in :mod:`confcohom.oracles`.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from functools import lru_cache
from itertools import chain, repeat

from . import limits
from .combinat import (
    CycleType,
    _all_cycle_types,
    _stable_block_counts,
    all_cycle_types,
    divisors,
    euler_phi,
    mobius,
)
from .confspace import SpaceSpec, require
from .errors import ConsistencyError
from .polyarith import LaurentPoly, _linear_combination, falling_prefixes, falling_product
from .record import FrozenRecord


class TraceSeries(FrozenRecord):
    """A graded character presented as one Laurent polynomial per cycle type."""

    __slots__ = ("m", "values")

    def __init__(self, m: int, values: Mapping[CycleType, LaurentPoly]):
        if values.keys() != _cycle_type_set(m):
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


@lru_cache(maxsize=None, typed=True)
def _cycle_type_set(m: int) -> frozenset[CycleType]:
    """The cycle types of m letters as a set, after one cap check per m:
    every series on m letters compares its keys against it."""
    return frozenset(all_cycle_types(m))


# ---------------------------------------------------------------------------
# cartesian powers
# ---------------------------------------------------------------------------


def _cleared_product(ctype: CycleType, factor: Callable[[int, int], LaurentPoly]) -> LaurentPoly:
    """prod over the cycle lengths d of ``ctype`` of factor(d, x_d), skipping
    x_d = 0: the one trace product.  The cartesian power takes
    factor(d, x) = N(T^d)^x; the configuration traces take the cleared
    factor(d, x) = prod_{i < x} (B_d - i * d * T^d)."""
    result = None
    for d, x in enumerate(ctype.mult, start=1):
        if x:
            result = factor(d, x) if result is None else result * factor(d, x)
    return LaurentPoly.one() if result is None else result


def _table_series(m: int, table: Mapping[tuple[int, int], LaurentPoly]) -> TraceSeries:
    """The series on m letters whose entry at each cycle type is the
    :func:`_cleared_product` of ``table``'s entries (d, x), for an m the
    caller checked."""
    return TraceSeries(
        m, {ct: _cleared_product(ct, lambda d, x: table[d, x]) for ct in _all_cycle_types(m)}
    )


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
    """:func:`power_trace` on every cycle type, from one :func:`_power_table`."""
    limits.check_m(m)  # before listing the cycle types, which grow like p(m)
    return _table_series(m, _power_table(space, m))


def _power_table(space: SpaceSpec, m: int) -> dict[tuple[int, int], LaurentPoly]:
    """The powers N(T^d)^x for d * x <= m, keyed by (d, x), each one sparse
    product from the last: every cartesian-power trace on at most m letters
    is a product of its entries.  It reads neither a divisor kernel nor the
    falling-product kernel, so the reconstruction that reads it shares no
    product with :func:`config_series`."""
    n = space.pc.negate_var()
    powers = {}
    for d in range(1, m + 1):
        base = power = n.substitute(d)
        for x in range(1, m // d + 1):
            powers[d, x] = power
            power = power * base
    return powers


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


def _factor_table(space: SpaceSpec, m: int) -> dict[tuple[int, int], LaurentPoly]:
    """The cleared falling factors prod_{i < x} (B_d - i * d * T^d) for
    d * x <= m, keyed by (d, x).  Each kernel B_d is built once, and all x
    of it come from one :func:`falling_prefixes` pass of floor(m/d) kernel
    steps: sum_d floor(m/d) steps in all, where a product per (d, x) would
    take sum_d sum_x x.  A pass that stops at a zero factor leaves the
    longer products 0.  Every configuration trace on at most m letters is a
    product of its entries."""
    factors = {}
    for d in range(1, m + 1):
        count = m // d
        prefixes = falling_prefixes(_divisor_kernel(space, d), LaurentPoly.term(d, d), count)
        for x, product in zip(range(1, count + 1), chain(prefixes, repeat(LaurentPoly.zero()))):
            factors[d, x] = product
    return factors


def config_series(space: SpaceSpec, m: int) -> TraceSeries:
    """:func:`config_trace` on every cycle type, from one
    :func:`_factor_table`, local to the call: p(m) entries from
    sum_d floor(m/d) falling products."""
    require(space, "i_acyclic")
    limits.check_m(m)  # before listing the cycle types, which grow like p(m)
    return _table_series(m, _factor_table(space, m))


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

    where N(ct, beta) = ``stable_block_counts(ct, l)[beta]`` is counted by
    a recurrence over alpha's cycles, each of which opens an orbit of
    blocks or joins one (the cycle index of the species composition
    F o E_+, Bergeron-Labelle-Leroux 1998).  This geometric form of
    induction is equivalent to the group-theoretic induced-character
    formula for the block stabilizers, and much cheaper.  Each count table is built once
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
            (count, values[beta]) for beta, count in _stable_block_counts(ct, blocks)
        )
        for ct in _all_cycle_types(m)
    }
    return TraceSeries(m, induced)


def _exactly_coefficients(
    factors: Mapping[tuple[int, int], LaurentPoly], distinct: int, m: int, exp: int
) -> dict[CycleType, int]:
    """The coefficient of T^exp in ``exactly_series(space, distinct, m)`` on
    every cycle type of m, in :func:`all_cycle_types` order, from the
    :func:`_factor_table` of the space for ``distinct`` letters or more.

    Each configuration trace of ``distinct`` letters, a product of table
    entries, gives its one coefficient at T^exp, and the block counts of
    :func:`induce_blocks` induce those integers up to m: no series, and no
    linear combination of polynomials, is built.  The caller checked m.
    """
    at = {
        beta: _cleared_product(beta, lambda d, x: factors[d, x]).coeff(exp)
        for beta in _all_cycle_types(distinct)
    }
    if distinct == m:
        return at
    return {
        ct: sum(count * at[beta] for beta, count in _stable_block_counts(ct, distinct))
        for ct in _all_cycle_types(m)
    }


def reconstruct_config_series(space: SpaceSpec, m: int) -> TraceSeries:
    """The configuration character rebuilt from cartesian-power traces alone.

    X^n is the union of the strata with n - a distinct values, and the one
    with a collisions enters with the shift T^a:

        power_series(n) = sum over a < n of T^a * induce_blocks(config_series(n - a), n),

    a triangle with config_series(n) on its diagonal.  Solved row by row,
    each configuration character is the power series minus its shifted,
    induced predecessors.  Every power trace of every row is read from one
    :func:`_power_table` for m, as :func:`config_series` reads
    :func:`_factor_table`.  No divisor kernel B_d and no falling product is
    read, so agreement with :func:`config_series` is a kernel-free check of
    the trace formula.
    """
    require(space, "i_acyclic")
    limits.check_m(m)  # before listing the cycle types, which grow like p(m)
    if m == 0:
        # the empty configuration space is a point
        return TraceSeries(0, {CycleType.identity(0): LaurentPoly.one()})
    powers = _power_table(space, m)
    rebuilt: list[TraceSeries] = []
    for n in range(1, m + 1):
        series = _table_series(n, powers)
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

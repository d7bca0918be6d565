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
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from functools import lru_cache
from itertools import product as iter_product
from math import factorial

from . import limits
from .combinat import (
    CycleType,
    Permutation,
    all_cycle_types,
    divisors,
    euler_phi,
    mobius,
    representative,
    stable_block_counts,
    stable_partitions,
    symmetric_counts,
)
from .confspace import SpaceSpec, require
from .errors import ConsistencyError, CostCapExceeded
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


def _check_cycle_cap(m: int) -> None:
    cap = limits.cycle_type_max_m()
    if m > cap:
        raise CostCapExceeded(f"cycle-type computations are capped at m = {cap}")


def _check_enumeration_cap(m: int, blocks: int) -> None:
    # The enumeration oracles grow like Bell numbers; the blocks == m case
    # needs no enumeration and is allowed up to the cycle-type cap.
    if blocks == m:
        _check_cycle_cap(m)
        return
    cap = limits.set_partition_max_m()
    if m > cap:
        raise CostCapExceeded(f"set-partition trace sums are capped at m = {cap}")


# ---------------------------------------------------------------------------
# cartesian powers
# ---------------------------------------------------------------------------


def power_trace(space: SpaceSpec, ctype: CycleType) -> LaurentPoly:
    """Graded trace of a type-``ctype`` permutation on H_c of the cartesian power.

    The trace of a single d-cycle is N(T^d) with N(T) = pc(-T); disjoint
    cycles multiply.  Valid for any finite-type space, no acyclicity
    needed.  The independent check is :func:`tensor_trace_oracle`.
    """
    _check_cycle_cap(ctype.m)
    n = space.pc.negate_var()
    result = LaurentPoly.one()
    for d in range(1, ctype.m + 1):
        x = ctype.x(d)
        if x:
            result = result * n.substitute(d) ** x
    return result


def power_series(space: SpaceSpec, m: int) -> TraceSeries:
    _check_cycle_cap(m)  # before listing the cycle types, which grow like p(m)
    return TraceSeries(m, {ct: power_trace(space, ct) for ct in all_cycle_types(m)})


def tensor_trace_oracle(dims: tuple[int, ...], ctype: CycleType) -> LaurentPoly:
    """Brute-force graded trace on the m-fold tensor power.

    ``dims[k]`` is the dimension in degree k.  A permutation acts on basis
    tensors by permuting factors with the Koszul sign; only tensors
    constant on cycles contribute to the trace.  Cost guard: total
    dimension <= 4 and m <= 6.
    """
    if sum(dims) > 4 or ctype.m > 6:
        raise CostCapExceeded("tensor trace oracle is limited to dim <= 4, m <= 6")
    degrees = [k for k, n in enumerate(dims) for _ in range(n)]
    alpha = representative(ctype)
    cycles = alpha.cycles()
    m = ctype.m
    total = LaurentPoly.zero()
    for assignment in iter_product(range(len(degrees)), repeat=len(cycles)):
        tup = [0] * m
        for cyc, basis_idx in zip(cycles, assignment):
            for pos in cyc:
                tup[pos] = basis_idx
        degs = [degrees[b] for b in tup]
        sign = 1
        for i in range(m):
            for j in range(i + 1, m):
                if alpha(i) > alpha(j) and degs[i] % 2 and degs[j] % 2:
                    sign = -sign
        d_total = sum(degs)
        coeff = sign if d_total % 2 == 0 else -sign
        total = total + LaurentPoly.term(coeff, d_total)
    return total


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
    _check_cycle_cap(ctype.m)
    result = LaurentPoly.one()
    for d in range(1, ctype.m + 1):
        x = ctype.x(d)
        if x:
            result = result * falling_product(
                _divisor_kernel(space, d), LaurentPoly.term(d, d), x
            )
    return result


def config_series(space: SpaceSpec, m: int) -> TraceSeries:
    require(space, "i_acyclic")
    _check_cycle_cap(m)  # before listing the cycle types, which grow like p(m)
    return TraceSeries(m, {ct: config_trace(space, ct) for ct in all_cycle_types(m)})


# ---------------------------------------------------------------------------
# multiplicity strata, by direct trace concentration
# ---------------------------------------------------------------------------


def exactly_trace(
    space: SpaceSpec, distinct: int, m: int, alpha: Permutation
) -> LaurentPoly:
    """Trace of ``alpha`` on the stratum of tuples with exactly ``distinct`` values.

    The stratum splits into configuration-space copies indexed by set
    partitions; the trace concentrates on the alpha-stable ones, each
    contributing the configuration trace of the induced block permutation.
    The stable partitions are enumerated one by one, so this is the
    point-level oracle for :func:`exactly_series`, which counts them.
    """
    require(space, "i_acyclic")
    if alpha.m != m:
        raise ValueError("permutation size must match m")
    if distinct < 1 or distinct > m:
        raise ValueError("need 1 <= distinct <= m")
    _check_enumeration_cap(m, distinct)
    total = LaurentPoly.zero()
    for _p, beta in stable_partitions(alpha, distinct):
        total = total + config_trace(space, beta.cycle_type())
    return total


def at_most_trace(
    space: SpaceSpec, distinct: int, m: int, alpha: Permutation
) -> LaurentPoly:
    """Trace of ``alpha`` on tuples with at most ``distinct`` values.

    Telescopes over the exact strata with one degree shift per step:
    sum_a T^a * exactly_trace(distinct - a).  The step-a stratum enters
    through an a-fold shifted exact sequence, which in the alternating
    trace convention contributes a plain T^a factor.
    """
    require(space, "i_acyclic")
    if distinct < 1 or distinct > m:
        raise ValueError("need 1 <= distinct <= m")
    total = LaurentPoly.zero()
    for a in range(distinct):
        total = total + LaurentPoly.term(1, a) * exactly_trace(
            space, distinct - a, m, alpha
        )
    return total


def exactly_series(space: SpaceSpec, distinct: int, m: int) -> TraceSeries:
    """The full character series of the exact stratum, one entry per cycle type."""
    return induce_blocks(config_series(space, distinct), m)


# ---------------------------------------------------------------------------
# induction operators on class functions
# ---------------------------------------------------------------------------


def induce_blocks(series: TraceSeries, m: int) -> TraceSeries:
    """Induce a class function from ``series.m`` block labels up to m letters.

    The value at a permutation alpha of type ct sums the series over the
    block permutations that alpha induces on its stable set partitions
    into l = ``series.m`` blocks.  Those partitions are counted, not
    listed:

        Ind(series)[ct] = sum over beta of N(ct, beta) * series[beta],

    where N(ct, beta) = ``stable_block_counts(ct, l)[beta]`` groups alpha's
    cycles into orbits of blocks (the cycle index of the species
    composition F o E_+, Bergeron-Labelle-Leroux 1998).  This geometric
    form of induction is equivalent to the group-theoretic
    induced-character formula for the block stabilizers, and much cheaper.
    Each count table is built once per process.  Acting with
    ``series.m == m`` is the identity.
    """
    blocks = series.m
    if blocks > m:
        raise ValueError("cannot induce downward")
    if blocks < 1:
        raise ValueError("induction needs at least one block")
    _check_cycle_cap(m)
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


def induce_alternating(series: TraceSeries, m: int) -> TraceSeries:
    """Signed sum of iterated inductions over all descending chains to m.

    A chain m = c_0 > c_1 > ... > c_t = l = ``series.m`` carries the sign
    (-1)^(m - l) * (-1)^t, so the operator is the identity when l == m and
    inverts :func:`induce_blocks` inside alternating-sum identities.  The
    result is a virtual character: integer combinations, possibly negative.

    The 2^(m-l-1) chains are not walked one by one.  Grouping them by
    their last step gives the recurrence

        G(l) = series,   G(k) = sum over l <= j < k of (-1)^(k-j+1) Ind_k G(j),

    with G(m) the result: O((m - l)^2) inductions in place of 2^(m-l).
    """
    low = series.m
    if low > m:
        raise ValueError("cannot induce downward")
    _check_cycle_cap(m)
    levels = [series]
    for k in range(low + 1, m + 1):
        total = TraceSeries(k, {ct: LaurentPoly.zero() for ct in all_cycle_types(k)})
        for j, lower in enumerate(levels, start=low):
            sign = 1 if (k - j) % 2 else -1
            total = total + induce_blocks(lower, k).scale(sign)
        levels.append(total)
    return levels[-1]


def reconstruct_config_series(space: SpaceSpec, m: int) -> TraceSeries:
    """Rebuild the configuration-space character from cartesian-power data.

    sum over a < m of (-T)^a applied to the alternating induction of the
    power series on m-a letters; the (-T)^a factor transcribes the a-step
    degree shift into the alternating trace convention.  Must agree with
    :func:`config_series` on every cycle type; that equality is the
    central cross-validation of the whole induction machinery.
    """
    require(space, "i_acyclic")
    _check_cycle_cap(m)
    if m == 0:
        # the empty configuration space is a point; the telescoped sum
        # below starts at m = 1
        return TraceSeries(0, {CycleType.identity(0): LaurentPoly.one()})
    zero = {ct: LaurentPoly.zero() for ct in all_cycle_types(m)}
    total = TraceSeries(m, zero)
    for a in range(m):
        shifted = induce_alternating(power_series(space, m - a), m)
        factor = LaurentPoly.term((-1) ** a, a)
        total = total + shifted.scale(factor)
    return total


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
    result = total.divexact(order).negate_var()
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
    if order < 1:
        raise ValueError("group order must be positive")
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
    if m < 1:
        raise ValueError("m must be positive")
    _check_cycle_cap(m)
    return _average(lambda ct: config_trace(space, ct), cyclic_counts(m), m)


def poincare_unordered_config(space: SpaceSpec, m: int) -> LaurentPoly:
    """Poincaré polynomial of the unordered configuration space.

    Full symmetric-group average: (1/m!) sum over cycle types of
    class_size * configuration trace, divisibility-checked and negated.
    """
    require(space, "i_acyclic")
    if m < 1:
        raise ValueError("m must be positive")
    _check_cycle_cap(m)
    return _average(lambda ct: config_trace(space, ct), symmetric_counts(m), factorial(m))


# ---------------------------------------------------------------------------
# symmetric and cyclic products
# ---------------------------------------------------------------------------


def poincare_symmetric_product(space: SpaceSpec, m: int) -> LaurentPoly:
    """Poincaré polynomial of the m-th symmetric product of X.

    The cartesian-power analogue of the unordered quotient: falling
    factorials become plain powers, so no acyclicity is needed.  The
    classical generating function is the independent route to the same
    polynomial; the CLI's ``generating-function`` check compares the two.
    """
    if m < 1:
        raise ValueError("m must be positive")
    _check_cycle_cap(m)
    return _average(lambda ct: power_trace(space, ct), symmetric_counts(m), factorial(m))


def poincare_cyclic_product(space: SpaceSpec, m: int) -> LaurentPoly:
    """Poincaré polynomial of the m-th cyclic product of X.

    Divisor average of cartesian-power traces over the rotation group's
    class counts.  Averaging over the group's listed elements is the
    independent route; the CLI's ``subgroup-averaging`` check compares the two.
    """
    if m < 1:
        raise ValueError("m must be positive")
    _check_cycle_cap(m)
    return _average(lambda ct: power_trace(space, ct), cyclic_counts(m), m)


def _symmetric_product_generating_function(pc: LaurentPoly, m: int) -> LaurentPoly:
    """Coefficient of t^m in prod over degrees k of
    (1 + x^k t)^(b_k)   [k odd]   and   (1 - x^k t)^(-b_k)   [k even],

    where b_k are the coefficients of ``pc``; the result is a polynomial
    in x graded like the Poincaré polynomial of the symmetric product.
    """
    from math import comb

    series: list[LaurentPoly] = [LaurentPoly.one()] + [
        LaurentPoly.zero() for _ in range(m)
    ]
    for k, b in pc.items():
        if b == 0:
            continue
        if k < 0:
            raise ValueError("generating function needs nonnegative exponents")
        factor = []
        for j in range(m + 1):
            if k % 2 == 1:
                if j > b:
                    break
                factor.append(LaurentPoly.term(comb(b, j), k * j))
            else:
                factor.append(LaurentPoly.term(comb(b + j - 1, j), k * j))
        new = [LaurentPoly.zero() for _ in range(m + 1)]
        for i in range(m + 1):
            if series[i].is_zero():
                continue
            for j, f in enumerate(factor):
                if i + j > m:
                    break
                new[i + j] = new[i + j] + series[i] * f
        series = new
    return series[m]

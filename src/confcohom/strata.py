"""The strata of X^m by the number of distinct entries, and their Stirling numbers.

``poincare_exactly`` is the stratum of exactly l values, S(m, l) copies of
F(X, l); ``poincare_at_most`` its closure, the alternating sum below it;
``universal_poly`` both at once, in P := pc and T.  Stirling numbers of the
second kind have two roads that share no code: the additive recurrence of
:func:`stirling_second` and :func:`stirling_row`, read by the two routes,
and the forward differences of k^m, ``_stirling_differences``, read by
their check :func:`universal_poly`.
"""

from __future__ import annotations

from functools import lru_cache

from . import confspace, limits
from .confspace import SpaceSpec
from .errors import ConsistencyError
from .polyarith import ONE, P_VAR, T_VAR, BiPoly, LaurentPoly, T, falling_product


@lru_cache(maxsize=None, typed=True)
def stirling_second(i: int, j: int) -> int:
    """Number of partitions of an i-set into j nonempty blocks.

    S(i, 0), S(i, 1) and S(i, i) are read at once; any other entry is the
    last of :func:`_stirling_sweep` from j to j, (j - 1)(i - j) additions
    whatever was asked before.
    """
    limits.check_count(i, "i")
    limits.check_count(j, "j")
    if j > i or (j == 0 and i > 0):
        return 0
    if j == 1 or j == i:
        return 1
    return _stirling_sweep(i, j, j)[-1]


def stirling_row(i: int, j: int) -> tuple[int, ...]:
    """S(i, 1), ..., S(i, j) for 1 <= j <= i, from one sweep of about i * j
    additions: the row the strata sums read."""
    limits.check_count(j, "j", 1)
    limits.check_count(i, "i", j)
    return _stirling_sweep(i, j, 1)


def _stirling_sweep(i: int, j: int, lowest: int) -> tuple[int, ...]:
    """S(i, lowest), ..., S(i, j) for 1 <= lowest <= j <= i.

    One column, filled in place by the additive recurrence read as
    S(c + t, c) = S(c - 1 + t, c - 1) + c S(c + t - 1, c) for c = 2..j, up
    to t = i - max(c, lowest): an entry S(i, c) with c >= lowest sits at
    t = i - c.  No column is allocated when j = 1.
    """
    if j == 1:
        return (1,)
    column = [1] * (i - lowest + 1)  # S(c + t, c) for t = 0..i-lowest, from c = 1
    row = [1] if lowest == 1 else []
    for c in range(2, j + 1):
        for t in range(1, i - max(c, lowest) + 1):
            column[t] += c * column[t - 1]
        if c >= lowest:
            row.append(column[i - c])
    return tuple(row)


def _stirling_differences(i: int, j: int) -> tuple[int, ...]:
    """S(i, 0), ..., S(i, j) from the forward differences of k^i at 0:
    t! S(i, t) = Delta^t[k^i](0), with 0^0 = 1.  One row of j + 1 powers,
    differenced in place j times; each division by t! is exact and checked."""
    row = [k**i for k in range(j + 1)]
    numbers, factorial = [], 1
    for t in range(j + 1):
        factorial *= t or 1
        q, r = divmod(row[0], factorial)
        if r:
            raise ConsistencyError(f"surjection count at ({i},{t}) is not divisible by {t}!")
        numbers.append(q)
        for k in range(j - t):
            row[k] = row[k + 1] - row[k]
    return tuple(numbers)


def stirling_first_signed(i: int, j: int) -> int:
    """Coefficients of the falling factorial: X(X-1)..(X-i+1) = sum s(i,j) X^j."""
    limits.check_count(i, "i")
    limits.check_count(j, "j")
    return _falling_factorial(i).coeff(j)


@lru_cache(maxsize=None)
def _falling_factorial(i: int):
    """X(X-1)..(X-i+1), built once per i and read by every j of its row."""
    return falling_product(T, ONE, i)


def poincare_exactly(space: SpaceSpec, distinct: int, m: int) -> LaurentPoly:
    """Tuples in X^m taking exactly ``distinct`` values.

    The space splits into one configuration-space copy per set partition,
    so this is a Stirling multiple of ``poincare_config``.
    """
    confspace.require(space, "i_acyclic")
    _check_strata(distinct, m)
    if distinct == 0:
        return LaurentPoly.one() if m == 0 else LaurentPoly.zero()
    if space.pc.is_zero():  # an empty space: every stratum is empty, read before S(m, l)
        return LaurentPoly.zero()
    return stirling_second(m, distinct) * confspace.poincare_config(space, distinct)


def poincare_at_most(space: SpaceSpec, distinct: int, m: int) -> LaurentPoly:
    """Tuples in X^m taking at most ``distinct`` values.

    Alternating sum over the exact strata, sum over a < l of
    (-T)^a S(m, l - a) prod_(i<l-a) (pc + iT) with l = ``distinct``, from
    one Stirling row and l products, by Horner over the factors pc + kT.
    The result must have nonnegative coefficients (they are Betti
    numbers), which is asserted before returning.
    """
    confspace.require(space, "i_acyclic")
    _check_strata(distinct, m)
    if distinct == 0:
        return LaurentPoly.one() if m == 0 else LaurentPoly.zero()
    if space.pc.is_zero():  # an empty space: every stratum is empty, read before S(m, l)
        return LaurentPoly.zero()
    stirling = stirling_row(m, distinct)
    total = LaurentPoly.term(stirling[-1], 0)
    for k in range(distinct - 1, 0, -1):
        a = distinct - k
        total = total * (space.pc + LaurentPoly.term(k, 1)) + LaurentPoly.term(
            (-1) ** a * stirling[k - 1], a
        )
    total = total * space.pc
    if not total.has_nonnegative_coeffs():
        raise ConsistencyError(
            f"alternating stratum sum for {space.name!r} produced negative "
            "coefficients; the input polynomial cannot come from an "
            "interior-acyclic space"
        )
    return total


def _check_strata(distinct: int, m: int, least: int = 0) -> None:
    """Gate ``distinct`` from ``least`` up and m from ``distinct`` up."""
    limits.check_count(distinct, "distinct", least)
    limits.check_count(m, "m", distinct)  # no more distinct values than entries


def universal_poly(distinct: int, m: int, closed: bool) -> BiPoly:
    """Universal two-variable polynomial for the multiplicity strata.

    Substituting P := pc recovers ``poincare_exactly`` (open case) or
    ``poincare_at_most`` (closed case) for every space at once.  The
    result is homogeneous of total degree ``distinct``.  It is summed by
    Horner over the factors P + kT, as ``poincare_at_most`` sums over
    pc + kT, but in its own ring and from its own Stirling numbers: one row
    of forward differences of k^m, not the recurrence that route reads.
    """
    _check_strata(distinct, m, least=1)
    stirling = _stirling_differences(m, distinct)
    # the open sum is one stratum, S(m, l) times its product, so S(m, l) is
    # multiplied in once at the end rather than carried through l products
    result = BiPoly.term(stirling[distinct] if closed else 1, 0, 0)
    for k in range(distinct - 1, 0, -1):
        result = result * (P_VAR + k * T_VAR)
        if closed:  # the stratum of k values, a = distinct - k steps down
            a = distinct - k
            result = result + BiPoly.term((-1) ** a * stirling[k], 0, a)
    result = result * (P_VAR if closed else stirling[distinct] * P_VAR)
    if not result.is_homogeneous(distinct):
        raise ConsistencyError(f"universal polynomial is not homogeneous of degree {distinct}")
    return result

"""The argument gate and the cost caps, each checked in one place.

Every count a public route takes (m, ``distinct``, a degree, a defect, a
block count, a group order, a Stirling index, an end of an m range) passes
:func:`check_count`: a value that is not an int, or is a bool, raises
TypeError, and one below its least value raises ValueError; both messages
name the argument.  The cached routes run it inside a ``typed`` cache, so
``f(5.0)`` is never served from the entry of ``f(5)``.  The entries of a
tuple argument pass :func:`check_entries` (``CycleType`` inlines its test
in the pass that sums them), each message naming the entry ``name[i]``.

Cycle-type routes scale with the number of partitions of m, and
:func:`check_m` refuses an m past the one cap, :func:`max_m`, with
CostCapExceeded.  CONFCOHOM_MAX_M sets it, up or down, but never above
ABSOLUTE_MAX_M; an empty value counts as unset, and any other value that is
not a nonnegative integer raises InputParseError.  :func:`check_group_order`
refuses a group past DEFAULT_CLOSURE_CAP, read at call time.
:func:`check_closed_form` sizes a closed-form answer before any product,
from m, l and pc: it refuses one too long for the int-to-str limit, or one
whose work, :func:`closed_form_work`, passes STRATA_WORK_BUDGET, so that no
closed form runs unbounded.  :func:`check_series` does the same for a
command that builds trace series on m letters, against SERIES_WORK_BUDGET,
so that no cycle-type command runs unbounded in the size or the number of
the Betti numbers either.  Both weigh pc by :func:`pc_weight`, 1 on every
built-in space.
"""

import math
import os
import sys

from .errors import CostCapExceeded, InputParseError

ABSOLUTE_MAX_M = 14

DEFAULT_CYCLE_TYPE_MAX_M = 12

DEFAULT_CLOSURE_CAP = 3_628_800  # 10!

#: The most big-integer steps a closed form may take (see
#: :func:`check_closed_form`).  At l = m = 1000, the most it admits, a
#: closed ``universal`` call took 1.6 s and 17 MB as one CLI process; at
#: l = m = 1400, which it refuses, the polynomial alone took 2.1 s and 18 MB
#: in process.  ``fm`` at m = 2000, the most it admits, took 2.0 s with no
#: int-to-str limit (2-CPU Xeon, Python 3.11).
STRATA_WORK_BUDGET = 2_000_000

#: The most word products the trace series of one command may take (see
#: :func:`check_series`).  With no int-to-str limit, ``character --all`` took
#: 0.6 s at m = 12 on Betti numbers of 10^1000 (3.0e7 word products) and
#: 1.2 s at m = 6 on 10^4000 (1.7e7), and 7.7 s at m = 12 on 10^4000 (4.8e8),
#: which is refused (2-CPU Xeon, Python 3.11).
SERIES_WORK_BUDGET = 40_000_000

_ENV_VAR = "CONFCOHOM_MAX_M"


def check_count(value, name: str, least: int | None = 0) -> None:
    """Refuse a non-int or bool ``value`` with TypeError, and one below
    ``least`` with ValueError, naming the argument; None admits every int."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def check_entries(values, name: str, least: int | None = 0) -> None:
    """:func:`check_count` on each entry of ``values``, in one pass."""
    for i, value in enumerate(values):
        if type(value) is not int or least is not None and value < least:
            check_count(value, f"{name}[{i}]", least)


def max_m() -> int:
    """The cap on m: CONFCOHOM_MAX_M when set, else DEFAULT_CYCLE_TYPE_MAX_M."""
    raw = os.environ.get(_ENV_VAR)
    if not raw:
        return DEFAULT_CYCLE_TYPE_MAX_M
    try:
        value = int(raw)
    except ValueError:
        raise InputParseError(f"{_ENV_VAR}={raw!r} is not an integer") from None
    if value < 0:
        raise InputParseError(f"{_ENV_VAR}={raw!r} is negative")
    return min(value, ABSOLUTE_MAX_M)


def check_m(m, name: str = "m", least: int = 0) -> None:
    """Gate ``m`` with :func:`check_count`, then refuse it past :func:`max_m`
    with CostCapExceeded."""
    check_count(m, name, least)
    cap = max_m()
    if m > cap:
        raise CostCapExceeded(f"cycle-type computations are capped at m = {cap}")


def check_group_order(order: int) -> None:
    """Refuse a group of more than DEFAULT_CLOSURE_CAP elements with CostCapExceeded."""
    cap = DEFAULT_CLOSURE_CAP
    if order > cap:
        raise CostCapExceeded(f"subgroup closure exceeded the cap of {cap} elements")


def coefficient_words(pc) -> int:
    """The 64-bit words of pc's largest coefficient, and 1 for a smaller one
    or for pc = 0."""
    largest = max((value for _exp, value in pc.items()), default=0)
    return max(1, (largest.bit_length() + 63) // 64)


def pc_weight(pc) -> int:
    """The weight of one step of a route on pc: :func:`coefficient_words`
    times the shape of the dense kernel's row pc + kT, its nonzero terms t
    times its exponent span s, less 6, and at least 1.  Rows with t*s <= 6
    weigh 1: every built-in space (kT + T^4 the widest) and the planes
    aT + T^2, on which the budgets were fit.  Past that a step costs about
    t*s small products: ``character --all`` and ``bf`` took 17-32 ns per unit
    of p(m)*m^2*t*s on rows of 25 to 200 ones, and ``fm`` 50-190 ns per unit
    of m^2/2*t*s on rows of 5 to 200 ones or T + T^d, d <= 200 (no int-to-str
    limit, 2-CPU Xeon, Python 3.11)."""
    exps = {1, *pc.support()}
    return coefficient_words(pc) * max(1, len(exps) * (max(exps) - min(exps)) - 6)


def check_series(m: int, pc) -> None:
    """Refuse a command that builds trace series on up to m letters, before
    any series, with CostCapExceeded: first an m past the cycle-type cap
    (:func:`check_m`), then work past SERIES_WORK_BUDGET.

    Such a series has p(m) traces, and each takes about m^2 products of two
    coefficients, which grow with pc's: with w = :func:`coefficient_words`,
    a product, or the printing of its result, costs about w^2 word
    products, and pc's shape multiplies their number.  So the work is
    p(m) * m^2 * w * :func:`pc_weight`.  ``character --all``, the costliest
    command that builds a series, took 16-21 ns per unit of it at
    8 <= m <= 12 and w from 52 to 208 with no int-to-str limit; ``stability``,
    ``quotient`` and ``poincare --target bf`` took less.  At weight 1 the
    work is at most p(14) * 14^2 = 26,460.
    """
    check_m(m)
    from .combinat import partitions  # combinat imports limits; a refusal above compiles none

    work = len(partitions(m)) * m * m * coefficient_words(pc) * pc_weight(pc)
    if work > SERIES_WORK_BUDGET:
        raise CostCapExceeded(
            f"trace-series work is capped at {SERIES_WORK_BUDGET} word products; "
            f"m = {m} on Betti numbers of {coefficient_words(pc)} words, pc weight "
            f"{pc_weight(pc)}, needs about {work}"
        )


def _factorial_bits(n: int, exact: bool = False) -> int:
    """A lower bound on log2 n! for n >= -1: n!.bit_length() - 1 when
    ``exact``, else sum_{k<=n} floor(log2 k) = (n + 1) t - 2^(t+1) + 2 with
    t = floor(log2 n), which loses under one bit per factor (0 up to n = 1)."""
    if exact:
        return math.factorial(max(n, 0)).bit_length() - 1
    t = n.bit_length() - 1
    return (n + 1) * t - 2 ** (t + 1) + 2


def answer_digits(m: int, l: int, closed: bool = False, pc=None, exact: bool = False) -> int:
    """A lower bound on the decimal digits of the longest coefficient of the
    stratum of l distinct values, S(m, l) * prod_{i<l} (pc + i*T) (F(X, m)
    at l = m), of the closed stratum when ``closed``, or, with pc None, of
    the universal polynomials, which carry S(m, l) * (l - 1)! at
    P T^(l-1) and S(m, l) at P^l.  ``exact`` counts (l - 1)! exactly.

    pc's coefficients are nonnegative and its lowest exponent e is at least
    1, so no contribution to a coefficient of the product is negative.  pc's
    lowest term from the factor i = 0 and i*T from every other factor give
    a coefficient of at least (l - 1)!; the top coefficient is at least
    lc(pc)^l; and when e = 1, with coefficient b, the lowest is
    prod_{i<l} (b + i) >= b^l.  The closed sum can cancel: its top
    coefficient is S(m, l) * lc(pc)^l when deg pc >= 2, and deg pc = 1 is
    tested for m <= 40 with S(m, l) alone.  S(m, l) >= l^(m - l),
    log2 x >= x.bit_length() - 1, and log10 2 >= 0.301.
    """
    bits = 0 if closed else _factorial_bits(l - 1, exact)
    if pc is not None and not pc.is_zero():
        if not closed or pc.max_exp >= 2:
            bits = max(bits, l * (pc.coeff(pc.max_exp).bit_length() - 1))
        if not closed and pc.min_exp == 1:
            bits = max(bits, l * (pc.coeff(1).bit_length() - 1))
    bits += (m - l) * (l.bit_length() - 1)
    return bits * 301 // 1000 + 1


def closed_form_work(m: int, l: int | None, pc=None) -> int:
    """The big-integer steps of a closed form at m points, each weighed by
    :func:`pc_weight` (pc None: the ``universal`` polynomial).  At l None the
    falling product of F(X, m) takes m(m - 1)/2 steps, none when pc = 0.  A
    stratum builds the universal polynomial, l^2 BiPoly terms as answer or
    check, and for l > 1 S(m, l), about l * m steps; when pc = 0 its answer is
    0, but its check still reads S(m, l)."""
    if l is None:
        work = 0 if pc is not None and pc.is_zero() else m * (m - 1) // 2
    else:
        work = l * l + (l * m if l > 1 else 0)
    return work if pc is None else work * pc_weight(pc)


def check_closed_form(m: int, l: int | None, pc=None, closed: bool = False) -> None:
    """Refuse a closed form at m points, before any product, with
    CostCapExceeded: the stratum of l distinct values, closed when ``closed``,
    or at l None the falling product of F(X, m).  It refuses an answer of
    :func:`answer_digits` past the int-to-str limit, or
    :func:`closed_form_work` past STRATA_WORK_BUDGET.  ``pc`` is the space's
    compact-support Poincaré polynomial; None sizes the ``universal``
    polynomial.  The digits are bounded first with (l - 1)! from below; once
    the work is admitted, l <= 2000, and (l - 1)! is counted exactly.
    """
    work = closed_form_work(m, l, pc)
    l = m if l is None else l
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # none before 3.10.7
    sized = limit and not (pc is not None and pc.is_zero())
    if sized and answer_digits(m, l, closed, pc) > limit:
        raise int_str_refusal()
    if work > STRATA_WORK_BUDGET:
        raise CostCapExceeded(
            f"strata work is capped at {STRATA_WORK_BUDGET} big-integer steps; "
            f"l = {l}, m = {m} needs about {work}"
        )
    if sized and answer_digits(m, l, closed, pc, True) > limit:
        raise int_str_refusal()


def int_str_refusal() -> CostCapExceeded:
    """The refusal of a result whose integers are past the int-to-str limit."""
    limit = sys.get_int_max_str_digits()
    return CostCapExceeded(f"the result has integers past the int-to-str limit of {limit} digits")

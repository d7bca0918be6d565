"""The argument gate and the cost caps, each checked in one place.

Every count a public route takes (m, ``distinct``, a degree, a defect, a
block count, a group order, a Stirling index, an end of an m range) passes
:func:`check_count`: a value that is not an int, or is a bool, raises
TypeError, and one below its least value raises ValueError; both messages
name the argument.  The cached routes run it inside a ``typed`` cache, so
``f(5.0)`` is never served from the entry of ``f(5)``.  The entries of a
tuple argument pass :func:`check_entries` (``CycleType`` inlines its test
in the pass that sums them), each message naming the entry ``name[i]``.

Cycle-type routes, block induction included, scale with the number of
partitions of m; the set-partition enumeration in :mod:`confcohom.oracles`
grows like the Bell numbers.  :func:`check_m` gates an m and then refuses
it past the cap of its cost, CYCLE_TYPES or SET_PARTITIONS, with
CostCapExceeded.  CONFCOHOM_MAX_M sets both caps to its value, up or down,
but never above ABSOLUTE_MAX_M; an empty value counts as unset, and any
other value that is not a nonnegative integer raises InputParseError.
DEFAULT_CLOSURE_CAP, read at call time, bounds the order of a subgroup
that ``subgroup_class_counts`` would list element by element.
:func:`check_result_digits` refuses, before any work, a result too long
for the int-to-str limit, and :func:`check_strata_work` a stratum whose
Stirling sweep and universal polynomial pass STRATA_WORK_BUDGET.
"""

import os
import sys

from .errors import CostCapExceeded, InputParseError

ABSOLUTE_MAX_M = 14

DEFAULT_CYCLE_TYPE_MAX_M = 12
DEFAULT_SET_PARTITION_MAX_M = 10

DEFAULT_CLOSURE_CAP = 3_628_800  # 10!

#: The most big-integer steps a strata command may take (see
#: :func:`check_strata_work`).  At l = m = 1000, the most it admits, a
#: closed ``universal`` call took 32 s and 309 MB; at l = m = 1400 it took
#: 93 s and 787 MB (2-CPU Xeon, Python 3.11).
STRATA_WORK_BUDGET = 2_000_000

#: The costs capped in m: (default cap, what a refusal says is capped).
CYCLE_TYPES = (DEFAULT_CYCLE_TYPE_MAX_M, "cycle-type computations are")
SET_PARTITIONS = (DEFAULT_SET_PARTITION_MAX_M, "set-partition enumeration is")

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


def max_m(cost: tuple[int, str] = CYCLE_TYPES) -> int:
    """The cap on m for ``cost``: CONFCOHOM_MAX_M when set, else its default."""
    raw = os.environ.get(_ENV_VAR)
    if not raw:
        return cost[0]
    try:
        value = int(raw)
    except ValueError:
        raise InputParseError(f"{_ENV_VAR}={raw!r} is not an integer") from None
    if value < 0:
        raise InputParseError(f"{_ENV_VAR}={raw!r} is negative")
    return min(value, ABSOLUTE_MAX_M)


def check_m(m, name: str = "m", least: int = 0, cost: tuple[int, str] = CYCLE_TYPES) -> None:
    """Gate ``m`` with :func:`check_count`, then refuse it past the cap of
    ``cost`` with CostCapExceeded."""
    check_count(m, name, least)
    cap = max_m(cost)
    if m > cap:
        raise CostCapExceeded(f"{cost[1]} capped at m = {cap}")


def check_strata_work(l: int, m: int, sweep: bool = True) -> None:
    """Refuse, before any allocation, a stratum of m entries with l distinct
    values whose work passes STRATA_WORK_BUDGET, with CostCapExceeded.

    The universal polynomial keeps about l^2/2 BiPoly terms in its rising
    products and as many in its closed sum: l^2 in all.  When ``sweep``,
    the Stirling sweep of S(m, 1..l) adds a column of m entries and fewer
    than (l - 1) * m additions; at l = 1 it fills no column.
    """
    work = l * l + (l * m if sweep and l > 1 else 0)
    if work > STRATA_WORK_BUDGET:
        raise CostCapExceeded(
            f"strata work is capped at {STRATA_WORK_BUDGET} big-integer steps; "
            f"l = {l}, m = {m} needs about {work}"
        )


def int_str_refusal() -> CostCapExceeded:
    """The refusal of a result whose integers are past the int-to-str limit."""
    limit = sys.get_int_max_str_digits()
    return CostCapExceeded(f"the result has integers past the int-to-str limit of {limit} digits")


def check_result_digits(digits: int) -> None:
    """Refuse a result with an integer of ``digits`` or more decimal digits
    past the int-to-str limit; 0, or no limit (before 3.10.7), refuses none."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and digits > limit:
        raise int_str_refusal()

"""Cost caps, and the one place each is checked.

Cycle-type routes, block induction included, scale with the number of
partitions of m; the set-partition enumeration in :mod:`confcohom.oracles`
grows like the Bell numbers.  :func:`check_cycle_type_m` and
:func:`check_set_partition_m` refuse an m past either cap with
CostCapExceeded.  CONFCOHOM_MAX_M sets both caps to its value, up or down,
but never above ABSOLUTE_MAX_M; an empty value counts as unset, and any
other value that is not a nonnegative integer raises InputParseError.
DEFAULT_CLOSURE_CAP, read at call time, bounds the order of a subgroup
given by generators; ``subgroup_class_counts`` checks it against a
stabilizer chain before any element is listed.  :func:`check_result_digits`
refuses, before any work, a result too long for the int-to-str limit.
"""

import os
import sys

from .errors import CostCapExceeded, InputParseError

ABSOLUTE_MAX_M = 14

DEFAULT_CYCLE_TYPE_MAX_M = 12
DEFAULT_SET_PARTITION_MAX_M = 10

DEFAULT_CLOSURE_CAP = 3_628_800  # 10!

_ENV_VAR = "CONFCOHOM_MAX_M"


def _cap(default: int) -> int:
    raw = os.environ.get(_ENV_VAR)
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise InputParseError(f"{_ENV_VAR}={raw!r} is not an integer") from None
    if value < 0:
        raise InputParseError(f"{_ENV_VAR}={raw!r} is negative")
    return min(value, ABSOLUTE_MAX_M)


def cycle_type_max_m() -> int:
    return _cap(DEFAULT_CYCLE_TYPE_MAX_M)


def set_partition_max_m() -> int:
    return _cap(DEFAULT_SET_PARTITION_MAX_M)


def check_cycle_type_m(m: int) -> None:
    """Refuse m past the cycle-type cap with CostCapExceeded."""
    cap = cycle_type_max_m()
    if m > cap:
        raise CostCapExceeded(f"cycle-type computations are capped at m = {cap}")


def check_set_partition_m(m: int) -> None:
    """Refuse m past the set-partition cap with CostCapExceeded."""
    cap = set_partition_max_m()
    if m > cap:
        raise CostCapExceeded(f"set-partition enumeration is capped at m = {cap}")


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

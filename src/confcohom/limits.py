"""Enumeration caps.

Cycle-type-indexed computations scale with the number of partitions of m;
this includes block induction and its signed iterates, which count stable
set partitions by grouping cycles.  Only the enumeration oracles
(``set_partitions``, ``stable_partitions`` and the ``exactly_trace`` /
``at_most_trace`` traces built on them) list set partitions, which grow
like the Bell numbers; the set-partition caps guard those alone.  The caps
keep all engines inside an interactive budget.  CONFCOHOM_MAX_M sets the
cycle-type and set-partition caps to its value, up or down, but never above
ABSOLUTE_MAX_M; the set-partition hard cap only moves up.  An empty value
counts as unset; any other value that is not a nonnegative integer raises
InputParseError.  DEFAULT_CLOSURE_CAP bounds the order of a subgroup given
by generators; ``subgroup_class_counts`` checks it against the order of a
stabilizer chain before any element is listed, and never lists the
symmetric group at all.
"""

import os

from .errors import InputParseError

ABSOLUTE_MAX_M = 14

DEFAULT_CYCLE_TYPE_MAX_M = 12
DEFAULT_SET_PARTITION_MAX_M = 10

DEFAULT_CLOSURE_CAP = 3_628_800  # 10!

_ENV_VAR = "CONFCOHOM_MAX_M"


def _env_override() -> int | None:
    raw = os.environ.get(_ENV_VAR)
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise InputParseError(f"{_ENV_VAR}={raw!r} is not an integer") from None
    if value < 0:
        raise InputParseError(f"{_ENV_VAR}={raw!r} is negative")
    return min(value, ABSOLUTE_MAX_M)


def _cap(default: int) -> int:
    override = _env_override()
    return default if override is None else override


def cycle_type_max_m() -> int:
    return _cap(DEFAULT_CYCLE_TYPE_MAX_M)


def set_partition_max_m() -> int:
    return _cap(DEFAULT_SET_PARTITION_MAX_M)


def set_partition_hard_cap() -> int:
    """Absolute bound on full set-partition enumeration (Bell growth)."""
    return max(12, _cap(12))

"""Exception hierarchy shared by all engines.

Each class names its failure ``category`` and the ``exit_code`` that the
command-line front end reads from it; library callers can catch them
separately.
"""


class ConfcohomError(Exception):
    """Base class for all errors raised by this package."""


class HypothesisViolation(ConfcohomError):
    """A theorem-gated operation was called on a space missing a required flag.

    The message names the violated flag (e.g. ``i_acyclic``), so callers can
    report exactly which hypothesis failed.
    """
    category = "hypothesis-violation"
    exit_code = 2

    def __init__(self, flag: str, detail: str = ""):
        self.flag = flag
        message = f"hypothesis violation: requires {flag}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


class InputParseError(ConfcohomError):
    """Malformed user input: space file, cycle type, range, generators."""
    category = "input-parse-error"
    exit_code = 3


class ConsistencyError(ConfcohomError):
    """An internal cross-check failed.

    Raised when an exact divisibility fails, an alternating sum produces a
    negative Betti number, or two independent computation routes disagree.
    Always signals invalid input data or a genuine bug, never a rounding
    issue: all arithmetic is exact.
    """
    category = "consistency-error"
    exit_code = 4


class CostCapExceeded(ConfcohomError):
    """An enumeration exceeded its configured size cap."""
    category = "cost-cap-exceeded"
    exit_code = 5

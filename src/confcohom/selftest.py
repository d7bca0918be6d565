"""The ``selftest`` battery: every route against an independent one, on
small cases.  Only the CLI's ``selftest`` command imports this module."""

from __future__ import annotations

from math import comb

from . import charseries, checks, confspace, oracles, repstab
from .combinat import all_cycle_types
from .groups import representative
from .strata import stirling_first_signed, stirling_second
from .confspace import BUILTIN_SPACES
from .errors import ConfcohomError, HypothesisViolation


def run_checks() -> list[tuple[str, bool]]:
    """Run the battery; a check that raises a library error fails.

    The battery runs the commands' own checks from ``confcohom.checks``, so
    it checks the routes the commands run, the way the commands check them.
    """
    c = BUILTIN_SPACES["c"]
    cstar = BUILTIN_SPACES["cstar"]
    c1 = BUILTIN_SPACES["c_minus_1"]
    out: list[tuple[str, bool]] = []

    def run(name, fn):
        try:
            out.append((name, bool(fn())))
        except ConfcohomError:
            out.append((name, False))

    def stirling_inverse() -> bool:
        n = 8
        for i in range(n + 1):
            for j in range(n + 1):
                total = sum(
                    stirling_first_signed(i, k) * stirling_second(k, j)
                    for k in range(n + 1)
                )
                if total != (1 if i == j else 0):
                    return False
        return True

    run("stirling-matrices-inverse", stirling_inverse)

    strata = (
        (space, target, m, l)
        for space in (c, cstar, c1)
        for m in range(1, 6)
        for l in range(1, m + 1)
        for target in ("delta", "delta_le")
    )
    run("universal-polynomial-evaluation", lambda: checks.cases_pass(strata))

    def triangles() -> bool:
        return all(
            checks.oracle_triangle(space, m, charseries.config_series(space, m))
            for space in (c, cstar)
            for m in range(1, 5)
        )

    run("oracle-triangle", triangles)

    def assembly() -> bool:
        for space in (c, c1):
            for m in range(1, 5):
                for ctype in all_cycle_types(m):
                    alpha = representative(ctype)
                    if oracles.at_most_trace(space, m, m, alpha) != charseries.power_trace(
                        space, ctype
                    ):
                        return False
        return True

    run("assembly-identity", assembly)

    quotients = [(c, "cf", m, None) for m in range(1, 6)]
    quotients += [(c, "bf", m, None) for m in range(1, 5)]
    run("quotient-averaging", lambda: checks.cases_pass(quotients))
    products = (
        (space, target, m, None)
        for space in (c, cstar, c1)
        for m in range(1, 6)
        for target in ("sym", "cyc")
    )
    run("symmetric-product-generating-function", lambda: checks.cases_pass(products))
    primes = ((space, "cf", p, None) for p in (2, 3, 5) for space in (c, cstar, c1))
    run("prime-order-divisibility", lambda: checks.cases_pass(primes))

    def braid_betti() -> bool:
        return all(
            confspace.poincare_config_ordinary(c, m).coeff(1) == comb(m, 2)
            for m in range(1, 7)
        )

    run("ordinary-first-betti-reference", braid_betti)

    def refusal() -> bool:
        try:
            confspace.poincare_config(BUILTIN_SPACES["klein_pointed"], 2)
        except HypothesisViolation:
            return True
        return False

    run("refuses-non-interior-acyclic", refusal)

    def unordered_plateau() -> bool:
        report = repstab.unordered_betti_constancy(c, 1, (1, 6))
        return report.constant_ok and report.constant_value == 1

    run("unordered-betti-plateau", unordered_plateau)

    return out

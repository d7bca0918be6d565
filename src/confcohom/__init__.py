"""Exact invariants of generalized configuration spaces.

Given the compactly-supported Betti numbers of a suitable space X, this
package computes -- in exact integer arithmetic throughout -- Poincaré
polynomials of spaces of m-tuples with constrained numbers of distinct
entries, graded symmetric-group trace series on their cohomology, Poincaré
polynomials of quotients by permutation subgroups, irreducible
decompositions, and empirical representation-stability diagnostics.

Every closed formula is paired with an independent brute-force or
series-expansion oracle in :mod:`confcohom.oracles`, run by
:mod:`confcohom.checks` or the test suite, never inside the route; the library
checks its own invariants (exact divisibility, nonnegative Betti output)
and raises rather than returning data it cannot certify.

``__all__`` names the routes and oracles, the types they take or return,
and the error classes.  Number-theoretic and representation helpers
(``divisors``, ``pad_core``, ``subgroup_class_counts``, ...) stay in their
modules.
"""

import importlib

#: The modules whose names make up ``__all__``.  Each imports only from the
#: ones before it, so the first of them that binds a name is its home.
_PUBLIC_MODULES = (
    "errors", "polyarith", "combinat", "groups", "confspace", "strata", "charseries",
    "oracles", "repstab",
)
_SUBMODULES = frozenset(_PUBLIC_MODULES) | {"limits", "record"}

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_SPACES",
    "BiPoly",
    "ConfcohomError",
    "ConsistencyError",
    "ConstancyReport",
    "CostCapExceeded",
    "CycleType",
    "HypothesisViolation",
    "InputParseError",
    "LaurentPoly",
    "MultiplicityTable",
    "Permutation",
    "SetPartition",
    "SpaceSpec",
    "StabilityReport",
    "TraceSeries",
    "all_cycle_types",
    "at_most_trace",
    "config_series",
    "config_trace",
    "decompose_series",
    "euler_char_config",
    "exactly_series",
    "exactly_trace",
    "falling_product",
    "group_closure",
    "induce_blocks",
    "poincare_at_most",
    "poincare_config",
    "poincare_config_ordinary",
    "poincare_cyclic_config",
    "poincare_cyclic_product",
    "poincare_exactly",
    "poincare_symmetric_product",
    "poincare_unordered_config",
    "power_trace",
    "quotient_poincare",
    "reconstruct_config_series",
    "set_partitions",
    "stability_report",
    "stable_partitions",
    "stirling_first_signed",
    "stirling_second",
    "symmetric_group_character",
    "tensor_trace_oracle",
    "universal_poly",
    "unordered_betti_constancy",
]


def __getattr__(name: str):
    """Import the public namespace on first use (PEP 562).

    ``import confcohom`` compiles nothing, so a CLI call compiles only the
    modules its command runs.  The first ``__all__`` name asked for binds
    them all, which a library session pays once, before its first call.  A
    submodule name imports that submodule alone: the import system asks for
    ``confcohom.confspace`` while running ``from . import confspace``.
    """
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    modules = [importlib.import_module(f"{__name__}.{m}") for m in _PUBLIC_MODULES]
    namespace = globals()
    for public in __all__:
        namespace[public] = next(getattr(m, public) for m in modules if hasattr(m, public))
    return namespace[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)

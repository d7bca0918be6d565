"""Exact invariants of generalized configuration spaces.

Given the compactly-supported Betti numbers of a suitable space X, this
package computes -- in exact integer arithmetic throughout -- Poincaré
polynomials of spaces of m-tuples with constrained numbers of distinct
entries, graded symmetric-group trace series on their cohomology, Poincaré
polynomials of quotients by permutation subgroups, irreducible
decompositions, and empirical representation-stability diagnostics.

Every closed formula is paired with an independent brute-force or
series-expansion oracle in :mod:`confcohom.oracles`, run by the CLI's
checks or the test suite and never inside the route itself; the library
checks its own invariants (exact divisibility, nonnegative Betti output)
and raises rather than returning data it cannot certify.
"""

from .errors import (
    ConfcohomError,
    ConsistencyError,
    CostCapExceeded,
    HypothesisViolation,
    InputParseError,
)
from .polyarith import BiPoly, LaurentPoly, falling_product
from .combinat import (
    CycleType,
    Permutation,
    all_cycle_types,
    divisors,
    euler_phi,
    group_closure,
    mobius,
    partitions,
    representative,
    stable_block_counts,
    stirling_first_signed,
    stirling_first_unsigned,
    stirling_second,
    subgroup_class_counts,
)
from .confspace import (
    BUILTIN_SPACES,
    SpaceSpec,
    borel_moore_betti_config,
    euler_char_config,
    poincare_at_most,
    poincare_config,
    poincare_config_ordinary,
    poincare_exactly,
    universal_poly,
)
from .charseries import (
    TraceSeries,
    config_series,
    config_trace,
    exactly_series,
    induce_blocks,
    poincare_cyclic_config,
    poincare_cyclic_product,
    poincare_symmetric_product,
    poincare_unordered_config,
    power_series,
    power_trace,
    quotient_poincare,
)
from .oracles import (
    SetPartition,
    at_most_trace,
    exactly_trace,
    induce_alternating,
    reconstruct_config_series,
    set_partitions,
    stable_partitions,
    tensor_trace_oracle,
)
from .repstab import (
    ConstancyReport,
    MultiplicityTable,
    StabilityReport,
    borel_moore_series,
    decompose_series,
    irrep_dimension,
    pad_core,
    stability_report,
    symmetric_group_character,
    unordered_betti_constancy,
    unpad_shape,
)

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
    "borel_moore_betti_config",
    "borel_moore_series",
    "config_series",
    "config_trace",
    "decompose_series",
    "divisors",
    "euler_char_config",
    "euler_phi",
    "exactly_series",
    "exactly_trace",
    "falling_product",
    "group_closure",
    "induce_alternating",
    "induce_blocks",
    "irrep_dimension",
    "mobius",
    "pad_core",
    "partitions",
    "poincare_at_most",
    "poincare_config",
    "poincare_config_ordinary",
    "poincare_cyclic_config",
    "poincare_cyclic_product",
    "poincare_exactly",
    "poincare_symmetric_product",
    "poincare_unordered_config",
    "power_series",
    "power_trace",
    "quotient_poincare",
    "reconstruct_config_series",
    "representative",
    "set_partitions",
    "stability_report",
    "stable_block_counts",
    "stable_partitions",
    "stirling_first_signed",
    "stirling_first_unsigned",
    "stirling_second",
    "subgroup_class_counts",
    "symmetric_group_character",
    "tensor_trace_oracle",
    "universal_poly",
    "unordered_betti_constancy",
    "unpad_shape",
]

"""Every closed formula in the library has an independent witness.

This script runs the three heaviest cross-validations in one place:

1. the trace formula for cartesian powers against a brute-force signed
   trace on graded tensor powers,
2. the configuration-space trace series against its reconstruction from
   cartesian-power traces, solved stratum by stratum with block induction,
3. the symmetric-product formula against its classical generating function.

All comparisons are exact polynomial equalities; nothing is approximate.
"""

import itertools

from confcohom import (
    LaurentPoly,
    SpaceSpec,
    all_cycle_types,
    config_series,
    poincare_symmetric_product,
    power_trace,
    reconstruct_config_series,
)
from confcohom.oracles import symmetric_product_generating_function, tensor_trace_oracle

# --- 1: tensor-power traces --------------------------------------------------
checked = 0
for dims in itertools.product(range(3), repeat=3):
    if not 1 <= sum(dims) <= 3:
        continue
    pc = LaurentPoly.from_coeffs(dims)
    space = SpaceSpec("probe", pc, 2, i_acyclic=False)
    for m in range(1, 5):
        for ctype in all_cycle_types(m):
            assert power_trace(space, ctype) == tensor_trace_oracle(dims, ctype)
            checked += 1
print(f"cartesian-power traces match the brute-force oracle ({checked} cases)")

# --- 2: reconstruction of configuration traces -------------------------------
for coeffs in [(0, 0, 1), (0, 1, 1), (0, 2, 1)]:
    pc = LaurentPoly.from_coeffs(coeffs)
    space = SpaceSpec("probe", pc, 2, i_acyclic=True)
    for m in range(1, 6):
        assert reconstruct_config_series(space, m) == config_series(space, m)
print("configuration traces match their power-trace reconstruction")

# --- 3: symmetric products ----------------------------------------------------
for coeffs in itertools.product(range(2), repeat=4):
    pc = LaurentPoly({e + 1: c for e, c in enumerate(coeffs)})
    space = SpaceSpec("probe", pc, 4, i_acyclic=False, orientable=False)
    for m in range(1, 7):
        direct = poincare_symmetric_product(space, m)
        assert direct == symmetric_product_generating_function(pc, m)
print("symmetric products match the generating-function expansion")

"""Symmetric-group trace series and quotient Poincaré polynomials.

The permutation action on a configuration space induces a graded action on
its cohomology.  The library presents the character as a trace series: one
polynomial per cycle type, with the sign convention that the entry at the
identity is the Poincaré polynomial evaluated at -T.  Averaging the series
over a subgroup yields the Poincaré polynomial of the quotient space.
"""

from confcohom import (
    BUILTIN_SPACES,
    Permutation,
    config_series,
    group_closure,
    poincare_cyclic_config,
    poincare_unordered_config,
    quotient_poincare,
)

plane = BUILTIN_SPACES["c"]

# --- the full series for four points in the plane --------------------------
series = config_series(plane, 4)
print("Trace series for 4 points in the plane:")
for ctype in sorted(series.values, key=lambda c: c.parts, reverse=True):
    print(f"  type {str(ctype):10s} -> {series[ctype]}")

# --- quotients ---------------------------------------------------------------
# Unordered configurations: divide by everything.  Cyclic configurations:
# divide by the rotation subgroup only.  Both have dedicated closed forms;
# here we also average explicitly over a subgroup to cross-check, listed
# element by element by the oracle group_closure (the quotient command walks
# the group's Knuth table instead).

print("\nUnordered and cyclic configuration spaces of the plane:")
for m in range(2, 7):
    print(
        f"  m={m}: unordered {poincare_unordered_config(plane, m)},"
        f"  cyclic {poincare_cyclic_config(plane, m)}"
    )

# The unordered Betti numbers of the plane stabilize instantly: one class
# in degree 0 and one in degree 1 (read through duality), nothing else --
# the classical plateau for the braid groups.

# Any subgroup works, e.g. the Klein four-group inside the symmetric group
# on 4 letters:
gens = [
    Permutation.from_cycles(4, [[1, 2], [3, 4]]),
    Permutation.from_cycles(4, [[1, 3], [2, 4]]),
]
order, counts = group_closure(gens, 4)
print(f"\nKlein four-group quotient of 4 points (order {order}):")
print(f"  {quotient_poincare(config_series(plane, 4), counts, order)}")

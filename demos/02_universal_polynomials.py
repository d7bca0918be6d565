"""Universal two-variable polynomials for the multiplicity strata.

The Poincaré polynomial of the stratum of m-tuples with at most l distinct
values is obtained by substituting pc into a single bivariate polynomial
Q(P, T) that depends only on (l, m).  This script prints the full table for
m = 6 and verifies the substitution property on two spaces.
"""

from confcohom import BUILTIN_SPACES, poincare_at_most, universal_poly


print("Universal polynomials for 6-tuples, closed strata:")
for distinct in range(1, 7):
    q = universal_poly(distinct, 6, closed=True)
    print(f"  at most {distinct} distinct: {q}")

# The rows are homogeneous of total degree l, the top row collapses to P^6
# (at most six distinct values among six entries is no constraint at all),
# and substituting any space's polynomial recovers the direct computation:

for name in ("c", "cstar"):
    space = BUILTIN_SPACES[name]
    for distinct in (2, 4, 6):
        q = universal_poly(distinct, 6, closed=True)
        assert q.eval_P(space.pc) == poincare_at_most(space, distinct, 6)
print("\nSubstitution property checked on the plane and the punctured plane.")

"""Partitions, cycle types, Stirling numbers, permutations and subgroups.

Stable set partitions are counted here, never listed (see :mod:`.oracles`).
Stirling numbers of the second kind have two roads that share no code: the
additive recurrence :func:`stirling_second`, read by the strata routes, and
the inclusion-exclusion count ``_stirling_second_explicit``, read by their check
:func:`confcohom.confspace.universal_poly`.

Conventions
-----------
* Integer partitions are decreasing tuples of positive parts.
* A :class:`CycleType` stores the multiplicity vector (x_1, ..., x_m) where
  x_d counts cycles of length d; it doubles as a conjugacy-class label of
  the symmetric group on m letters and as a Young diagram.
* Permutations act on {0, ..., m-1}.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement

from .errors import ConsistencyError, CostCapExceeded
from . import limits
from .polyarith import ONE, T, falling_product
from .record import FrozenRecord


# ---------------------------------------------------------------------------
# integer partitions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None, typed=True)
def partitions(m: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of m as decreasing tuples, in descending lex order.

    partitions(0) yields the single empty partition.
    """
    limits.check_count(m, "m")
    result = []

    def extend(remaining: int, max_part: int, prefix: tuple[int, ...]):
        if remaining == 0:
            result.append(prefix)
            return
        for part in range(min(remaining, max_part), 0, -1):
            extend(remaining - part, part, prefix + (part,))

    extend(m, m if m else 1, ())
    return tuple(result)


# ---------------------------------------------------------------------------
# cycle types
# ---------------------------------------------------------------------------


class CycleType(FrozenRecord):
    """Cycle type of a permutation of m letters, as multiplicities.

    ``mult[d-1]`` is the number of cycles of length d; the weighted sum
    over d of d * mult[d-1] equals m.
    """

    __slots__ = ("m", "mult")

    def __init__(self, m: int, mult: tuple[int, ...]):
        limits.check_count(m, "m")
        if len(mult) != m:
            raise ValueError("multiplicity vector must have length m")
        total = 0  # limits.check_entries's test, in the sum's pass: strata build many
        for d, x in enumerate(mult, start=1):
            if type(x) is not int or x < 0:
                limits.check_count(x, f"mult[{d - 1}]")
            total += d * x
        if total != m:
            raise ValueError(f"multiplicities {mult} do not sum to {m}")
        self._init(m, mult)

    # Cycle types key every trace series and count table, so equality and
    # hash are spelled out: the generic record versions are 1.5-2x slower.
    def __eq__(self, other):
        if other.__class__ is not CycleType:
            return NotImplemented
        return self.m == other.m and self.mult == other.mult

    def __hash__(self) -> int:
        return hash((self.m, self.mult))

    @staticmethod
    def from_parts(parts: tuple[int, ...] | list[int], m: int | None = None) -> "CycleType":
        total = sum(parts)
        if m is None:
            m = total
        elif m != total:
            raise ValueError(f"parts sum to {total}, expected {m}")
        mult = [0] * m
        for p in parts:
            if p < 1:
                raise ValueError("parts must be positive")
            mult[p - 1] += 1
        return CycleType(m, tuple(mult))

    @staticmethod
    def identity(m: int) -> "CycleType":
        return CycleType(m, (m,) + (0,) * (m - 1)) if m else CycleType(m, ())

    @property
    def parts(self) -> tuple[int, ...]:
        out = []
        for d in range(self.m, 0, -1):
            out.extend([d] * self.mult[d - 1])
        return tuple(out)

    @property
    def num_cycles(self) -> int:
        return sum(self.mult)

    def class_size(self) -> int:
        """Number of permutations with this cycle type: m!/prod(x_d! d^x_d)."""
        denom = 1
        for d in range(1, self.m + 1):
            x = self.mult[d - 1]
            denom *= math.factorial(x) * d**x
        return math.factorial(self.m) // denom

    def sign(self) -> int:
        """Signature: (-1)^(m - number of cycles)."""
        return -1 if (self.m - self.num_cycles) % 2 else 1

    def __str__(self) -> str:
        if self.m == 0:
            return "()"
        terms = [f"{d}^{x}" for d, x in enumerate(self.mult, start=1) if x]
        return ",".join(terms)


def all_cycle_types(m: int) -> tuple[CycleType, ...]:
    """Cycle types of the symmetric group on m letters, canonical order;
    the cap is checked on every call, so no cached tuple is served past it."""
    limits.check_m(m)
    return _all_cycle_types(m)


@lru_cache(maxsize=None)
def _all_cycle_types(m: int) -> tuple[CycleType, ...]:
    return tuple(CycleType.from_parts(p, m) for p in partitions(m))


# ---------------------------------------------------------------------------
# Stirling numbers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None, typed=True)
def stirling_second(i: int, j: int) -> int:
    """Number of partitions of an i-set into j nonempty blocks.

    S(i, 0), S(i, 1) and S(i, i) are read at once.  Any other entry fills
    one column in place by the additive recurrence, read as
    S(c + t, c) = S(c - 1 + t, c - 1) + c S(c + t - 1, c) for c = 2..j:
    (j - 1)(i - j) additions, whatever was asked before.
    """
    limits.check_count(i, "i")
    limits.check_count(j, "j")
    if j > i or (j == 0 and i > 0):
        return 0
    if j == 1 or j == i:
        return 1
    column = [1] * (i - j + 1)  # S(c + t, c) for t = 0..i-j, from c = 1
    for c in range(2, j + 1):
        for t in range(1, i - j + 1):
            column[t] += c * column[t - 1]
    return column[-1]


def _stirling_second_explicit(i: int, j: int) -> int:
    # (1/j!) sum_k (-1)^(j-k) C(j,k) k^i, with 0^0 = 1.
    total = sum((-1) ** (j - k) * math.comb(j, k) * k**i for k in range(j + 1))
    q, r = divmod(total, math.factorial(j))
    if r:
        raise ConsistencyError(f"surjection count at ({i},{j}) is not divisible by {j}!")
    return q


def stirling_first_signed(i: int, j: int) -> int:
    """Coefficients of the falling factorial: X(X-1)..(X-i+1) = sum s(i,j) X^j."""
    limits.check_count(i, "i")
    limits.check_count(j, "j")
    return _falling_factorial(i).coeff(j)


@lru_cache(maxsize=None)
def _falling_factorial(i: int):
    """X(X-1)..(X-i+1), built once per i and read by every j of its row."""
    return falling_product(T, ONE, i)


# ---------------------------------------------------------------------------
# elementary number theory
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    if n < 1:
        raise ValueError("factorization requires n >= 1")
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            factors.append((d, k))
        d += 1
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


def mobius(n: int) -> int:
    """Möbius function: 0 on non-squarefree n, else (-1)^(number of primes)."""
    factors = _factorize(n)
    if any(k > 1 for _, k in factors):
        return 0
    return -1 if len(factors) % 2 else 1


def euler_phi(n: int) -> int:
    """Euler totient."""
    value = n
    for p, _ in _factorize(n):
        value = value // p * (p - 1)
    return value


def divisors(n: int) -> tuple[int, ...]:
    """Sorted positive divisors of n."""
    divs = [1]
    for p, k in _factorize(n):
        divs = [d * p**e for d in divs for e in range(k + 1)]
    return tuple(sorted(divs))


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


class Permutation(FrozenRecord):
    """Permutation of {0, ..., m-1} stored by its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        limits.check_entries(images, "images")
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection: {images}")
        self._init(images)

    @property
    def m(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(m: int) -> "Permutation":
        limits.check_count(m, "m")
        return Permutation(tuple(range(m)))

    @staticmethod
    def from_cycles(m: int, cycles: list[list[int]]) -> "Permutation":
        """Build from disjoint cycles on the labels 1..m, as cycle notation
        writes them: label c is the point c - 1."""
        limits.check_count(m, "m")
        images = list(range(m))
        seen: set[int] = set()
        for cycle in cycles:
            pts = [c - 1 for c in cycle]
            for label, p in zip(cycle, pts):  # messages name the caller's label
                if not 0 <= p < m:
                    raise ValueError(f"cycle entry {label} out of range for m={m}")
                if p in seen:
                    raise ValueError(f"cycles are not disjoint at {label}")
                seen.add(p)
            for a, b in zip(pts, pts[1:] + pts[:1]):
                images[a] = b
        return Permutation(tuple(images))

    def __call__(self, i: int) -> int:
        return self.images[i]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self * other)(i) = self(other(i))."""
        if self.m != other.m:
            raise ValueError("size mismatch")
        return Permutation(_compose(self.images, other.images))

    __mul__ = compose

    def inverse(self) -> "Permutation":
        return Permutation(_inverse(self.images))

    def cycles(self) -> list[list[int]]:
        seen = [False] * self.m
        out = []
        for start in range(self.m):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cycle.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(cycle)
        return out

    def cycle_type(self) -> CycleType:
        return CycleType(self.m, _cycle_mult(self.images))


def _cycle_mult(images: tuple[int, ...]) -> tuple[int, ...]:
    """The cycle-type multiplicities (x_1, ..., x_m) of an image tuple."""
    mult = [0] * len(images)
    unseen = [True] * len(images)
    for start in range(len(images)):
        if unseen[start]:
            length = 0
            j = start
            while unseen[j]:
                unseen[j] = False
                j = images[j]
                length += 1
            mult[length - 1] += 1
    return tuple(mult)


def representative(ctype: CycleType) -> Permutation:
    """Canonical permutation of the given type: cycles laid out consecutively."""
    images = list(range(ctype.m))
    pos = 0
    for part in ctype.parts:
        block = list(range(pos, pos + part))
        for a, b in zip(block, block[1:] + block[:1]):
            images[a] = b
        pos += part
    return Permutation(tuple(images))


# ---------------------------------------------------------------------------
# stable set partitions, counted by the divisor split
# ---------------------------------------------------------------------------


def stable_block_counts(ctype: CycleType, blocks: int) -> dict[CycleType, int]:
    """Count the alpha-stable set partitions by the type of the block action.

    For a permutation alpha of type ``ctype``, maps each cycle type beta on
    ``blocks`` letters to the number of alpha-stable partitions of the m
    points into ``blocks`` blocks on which alpha permutes the blocks with
    type beta.  Types that do not occur are left out.

    Each cycle of alpha, of length e, lies in one orbit of blocks, whose
    length d divides e.  Split alpha's cycles by that length: j_(e,d) of
    the x_e cycles of length e go to d, so k_d = sum_e j_(e,d) cycles feed
    the d-orbits.  They fall into z_d orbits in S(k_d, z_d) ways, and the k
    cycles of one d-orbit combine in d^(k-1) ways: the first cycle fixes
    the block labels, each further cycle enters at one of d rotations.  For
    beta with z_d cycles of length d,

        N(ctype, beta) = sum over j of prod_e x_e! / prod_(d|e) j_(e,d)!
                             * prod_d S(k_d, z_d) * d^(k_d - z_d),

    the coefficient extraction of the cycle index of the species
    composition F o E_+ (Bergeron-Labelle-Leroux, *Combinatorial Species
    and Tree-like Structures*, 1998).  ``oracles.stable_partitions``
    enumerates the same partitions point by point and serves as the oracle.
    """
    limits.check_count(blocks, "blocks")
    counts: dict[tuple[int, ...], int] = {}
    for weight, low, high, orbits in _divisor_splits(ctype.mult):
        if not low <= blocks <= high:
            continue
        # (block type so far, blocks left, count), one orbit length at a
        # time: 1 <= z_d <= k_d, and the longer lengths cover what is left
        stage = [((0,) * blocks, blocks, weight)]
        for d, k, low, high in orbits:
            stage = [
                (
                    mult[: d - 1] + (z,) + mult[d:],
                    left - d * z,
                    count * stirling_second(k, z) * d ** (k - z),
                )
                for mult, left, count in stage
                for z in range(max(1, -((high - left) // d)), min(k, (left - low) // d) + 1)
            ]
        for mult, _left, count in stage:
            counts[mult] = counts.get(mult, 0) + count
    return {CycleType(blocks, mult): count for mult, count in counts.items()}


@lru_cache(maxsize=None)
def _divisor_splits(mult: tuple[int, ...]) -> tuple:
    """The splits of a cycle type's cycles among orbit lengths.

    One entry (weight, low, high, orbits) per vector (k_d): ``weight`` is
    the number of ways to send the cycles, the sum over j of
    prod_e x_e! / prod_(d|e) j_(e,d)!, and low..high the block counts the
    split can cover.  ``orbits`` lists the tuples (d, k_d, low_d, high_d)
    over the k_d > 0, ascending in d; low_d..high_d are the block counts
    that the longer orbit lengths can cover.
    """
    present = [(x, divisors(e)) for e, x in enumerate(mult, start=1) if x]
    lengths = sorted({d for _x, divs in present for d in divs})
    # k packed into one integer, a field of ``width`` bits per orbit length
    width = len(mult).bit_length()
    shift = {d: width * i for i, d in enumerate(lengths)}
    splits = {0: 1}
    for x, divs in present:
        # each of the x cycles picks its orbit length, in x! / prod j_d! ways
        shares = [
            (
                sum(1 << shift[d] for d in pick),
                math.factorial(x) // math.prod(math.factorial(pick.count(d)) for d in divs),
            )
            for pick in combinations_with_replacement(divs, x)
        ]
        grown: dict[int, int] = {}
        for k, weight in splits.items():
            for offset, ways in shares:
                grown[k + offset] = grown.get(k + offset, 0) + weight * ways
        splits = grown
    mask = (1 << width) - 1
    table = []
    for fed, weight in splits.items():
        orbits: list = []
        low = high = 0
        for d in reversed(lengths):
            k = fed >> shift[d] & mask
            if k:
                orbits.insert(0, (d, k, low, high))
                low, high = low + d, high + d * k
        table.append((weight, low, high, tuple(orbits)))
    return tuple(table)


# ---------------------------------------------------------------------------
# subgroups: element-by-element closure and stabilizer chains
# ---------------------------------------------------------------------------


def _checked_generators(generators, m: int) -> tuple[tuple[int, ...], ...]:
    """Image tuples of the generators, each a permutation of m letters."""
    gens = tuple(g if isinstance(g, Permutation) else Permutation(tuple(g)) for g in generators)
    for g in gens:
        if g.m != m:
            raise ValueError(f"generator acts on {g.m} letters, expected {m}")
    return tuple(g.images for g in gens)


def _over_cap(cap: int) -> CostCapExceeded:
    return CostCapExceeded(f"subgroup closure exceeded the cap of {cap} elements")


def group_closure(
    generators: list[Permutation] | tuple[Permutation, ...], m: int
) -> tuple[int, dict[CycleType, int]]:
    """Close a generator set under composition; count elements per cycle type.

    Returns (order, counts).  The empty generator set yields the trivial
    group.  Breadth-first multiplication; aborts past the closure cap in
    :mod:`.limits`.  The element-by-element oracle for :func:`subgroup_class_counts`.
    """
    limits.check_m(m)  # the counts are keyed by cycle types
    gens = _checked_generators(generators, m)
    cap = limits.DEFAULT_CLOSURE_CAP
    identity = tuple(range(m))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                prod = _compose(g, h)
                if prod not in seen:
                    if len(seen) >= cap:
                        raise _over_cap(cap)
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    counts: dict[tuple[int, ...], int] = {}
    for images in seen:
        mult = _cycle_mult(images)
        counts[mult] = counts.get(mult, 0) + 1
    return len(seen), {CycleType(m, mult): n for mult, n in counts.items()}


def symmetric_counts(m: int) -> dict[CycleType, int]:
    """Class counts of the full symmetric group on m letters: the class sizes."""
    return {ct: ct.class_size() for ct in all_cycle_types(m)}


def subgroup_class_counts(
    generators: list[Permutation] | tuple[Permutation, ...], m: int
) -> tuple[int, dict[CycleType, int]]:
    """Order and cycle-type counts of the group the generators generate.

    Returns (order, counts) like :func:`group_closure`, but from a
    stabilizer chain built by deterministic Schreier-Sims (Sims 1970;
    Seress, *Permutation Group Algorithms*, 2003).  The cycle-type cap is
    checked on entry: the answer is keyed by cycle types, and the cost of
    the chain grows with m.  The order is the product of the chain's orbit
    lengths.  A group of order m! is the
    symmetric group, whose counts are the class sizes, and is never
    listed; any other group is listed by :func:`group_closure`, and is
    refused from its order, before any element is listed, when that order
    is past the closure cap.
    """
    limits.check_m(m)
    gens = _checked_generators(generators, m)
    order = math.prod(len(t) for t in _stabilizer_chain(gens, m))
    if order == math.factorial(m):
        return order, symmetric_counts(m)
    if order > limits.DEFAULT_CLOSURE_CAP:
        raise _over_cap(limits.DEFAULT_CLOSURE_CAP)
    return group_closure(gens, m)


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """p after q, on image tuples."""
    return tuple(map(p.__getitem__, q))


def _inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _stabilizer_chain(
    gens: tuple[tuple[int, ...], ...], m: int
) -> list[dict[int, tuple[int, ...]]]:
    """Transversals of a stabilizer chain of the group generated by ``gens``.

    Level l holds, for each point p in the orbit of base point b_l under
    the stabilizer of b_0..b_(l-1), an element mapping b_l to p.  Schreier
    generators are sifted from the top level down; one that does not sift
    to the identity becomes a strong generator of the levels it passed and
    checking resumes there (the SCHREIERSIMS procedure of Holt, Eick and
    O'Brien, *Handbook of Computational Group Theory*, 2005).  Nothing here
    is capped: the transversals hold at most m(m + 1)/2 elements, whatever
    the order, and the caller bounds m.
    """
    identity = tuple(range(m))
    base: list[int] = []
    strong: list[list[tuple[int, ...]]] = []
    transversals: list[dict[int, tuple[int, ...]]] = []
    inverses: list[dict[int, tuple[int, ...]]] = []

    def sift(g, level):
        for l in range(level, len(base)):
            u_inv = inverses[l].get(g[base[l]])
            if u_inv is None:
                return g, l
            g = _compose(u_inv, g)
        return g, len(base)

    def rebuild(l):
        orbit = {base[l]: identity}
        queue = [base[l]]
        for p in queue:
            u = orbit[p]
            for s in strong[l]:
                q = s[p]
                if q not in orbit:
                    orbit[q] = _compose(s, u)
                    queue.append(q)
        transversals[l] = orbit
        inverses[l] = {p: _inverse(u) for p, u in orbit.items()}

    def add(h, low, high):
        """Make h a strong generator of levels low..high."""
        if high == len(base):
            base.append(next(x for x in range(m) if h[x] != x))
            strong.append([])
            transversals.append({})
            inverses.append({})
        for l in range(low, high + 1):
            strong[l].append(h)
            rebuild(l)

    def add_unsifted_schreier_generator(i):
        """Add the first Schreier generator of level i that does not sift to
        the identity; return the last level it joined, or None."""
        for u in transversals[i].values():
            for s in strong[i]:
                su = _compose(s, u)
                q = su[base[i]]
                if su == transversals[i][q]:
                    continue
                h, j = sift(_compose(inverses[i][q], su), i + 1)
                if h != identity:
                    add(h, i + 1, j)
                    return j
        return None

    for g in gens:
        h, j = sift(g, 0)
        if h != identity:
            add(h, 0, j)
    i = len(base) - 1
    while i >= 0:
        j = add_unsifted_schreier_generator(i)
        i = i - 1 if j is None else j
    return transversals

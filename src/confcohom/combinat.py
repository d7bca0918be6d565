"""Partitions, cycle types, Stirling numbers, permutations and subgroups.

Stable set partitions are counted here, never listed (see :mod:`.oracles`).

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
from itertools import product

from .errors import ConsistencyError, CostCapExceeded
from . import limits
from .polyarith import ONE, T, falling_product
from .record import FrozenRecord


# ---------------------------------------------------------------------------
# integer partitions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def partitions(m: int, length: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of m as decreasing tuples, in descending lex order.

    With ``length`` given, only partitions with exactly that many parts are
    returned.  partitions(0) yields the single empty partition.
    """
    if m < 0:
        raise ValueError("partitions of a negative integer")
    result = []

    def extend(remaining: int, max_part: int, prefix: tuple[int, ...]):
        if remaining == 0:
            result.append(prefix)
            return
        for part in range(min(remaining, max_part), 0, -1):
            extend(remaining - part, part, prefix + (part,))

    extend(m, m if m else 1, ())
    if length is not None:
        result = [p for p in result if len(p) == length]
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
        if len(mult) != m:
            raise ValueError("multiplicity vector must have length m")
        if sum(d * x for d, x in enumerate(mult, start=1)) != m:
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
        return CycleType(m, (m,) + (0,) * (m - 1)) if m else CycleType(0, ())

    @property
    def parts(self) -> tuple[int, ...]:
        out = []
        for d in range(self.m, 0, -1):
            out.extend([d] * self.mult[d - 1])
        return tuple(out)

    @property
    def num_cycles(self) -> int:
        return sum(self.mult)

    @property
    def fixed_points(self) -> int:
        return self.mult[0] if self.m else 0

    def x(self, d: int) -> int:
        """Number of cycles of length d (zero outside 1..m)."""
        if 1 <= d <= self.m:
            return self.mult[d - 1]
        return 0

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


@lru_cache(maxsize=None)
def all_cycle_types(m: int) -> tuple[CycleType, ...]:
    """Cycle types of the symmetric group on m letters, canonical order."""
    return tuple(CycleType.from_parts(p, m) for p in partitions(m))


# ---------------------------------------------------------------------------
# Stirling numbers
# ---------------------------------------------------------------------------


# Column j holds S(j + t, j) for t = 0, 1, ...; entries above the diagonal
# are zero and never stored.  Filled by stirling_second on demand.
_STIRLING2_COLUMNS: list[list[int]] = []


def stirling_second(i: int, j: int) -> int:
    """Number of partitions of an i-set into j nonempty blocks.

    Read from a cached table that is filled iteratively by the additive
    recurrence S(i, j) = S(i-1, j-1) + j S(i-1, j); every entry is
    cross-checked against the inclusion-exclusion surjection count when it
    is filled, and both routes must agree exactly.  Answering (i, j) fills
    the (j+1) x (i-j+1) rectangle of entries it depends on.
    """
    if i < 0 or j < 0:
        raise ValueError("Stirling indices must be nonnegative")
    if j > i:
        return 0
    depth = i - j + 1
    columns = _STIRLING2_COLUMNS
    for c in range(j + 1):
        if c == len(columns):
            columns.append([])
        column = columns[c]
        for t in range(len(column), depth):
            if c == 0:
                value = 1 if t == 0 else 0
            else:
                value = columns[c - 1][t] + (c * column[t - 1] if t else 0)
            explicit = _stirling_second_explicit(c + t, c)
            if value != explicit:
                raise ConsistencyError(
                    f"Stirling recurrence {value} != explicit formula {explicit} "
                    f"at ({c + t},{c})"
                )
            column.append(value)
    return columns[j][i - j]


def _stirling_second_explicit(i: int, j: int) -> int:
    # (1/j!) sum_k (-1)^(j-k) C(j,k) k^i, with 0^0 = 1.
    total = sum((-1) ** (j - k) * math.comb(j, k) * k**i for k in range(j + 1))
    q, r = divmod(total, math.factorial(j))
    if r:
        raise ConsistencyError(f"surjection count at ({i},{j}) is not divisible by {j}!")
    return q


def stirling_first_signed(i: int, j: int) -> int:
    """Coefficients of the falling factorial: X(X-1)..(X-i+1) = sum s(i,j) X^j."""
    if i < 0 or j < 0:
        raise ValueError("Stirling indices must be nonnegative")
    return _falling_factorial(i).coeff(j)


@lru_cache(maxsize=None)
def _falling_factorial(i: int):
    """X(X-1)..(X-i+1), built once per i and read by every j of its row."""
    return falling_product(T, ONE, i)


def stirling_first_unsigned(i: int, j: int) -> int:
    """Number of permutations of an i-set that are products of j cycles."""
    value = stirling_first_signed(i, j)
    return -value if (i - j) % 2 else value


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
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection: {images}")
        self._init(images)

    @property
    def m(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(m: int) -> "Permutation":
        return Permutation(tuple(range(m)))

    @staticmethod
    def from_cycles(m: int, cycles: list[list[int]], one_based: bool = False) -> "Permutation":
        """Build from disjoint cycles; ``one_based`` shifts labels down by 1."""
        images = list(range(m))
        seen: set[int] = set()
        for cycle in cycles:
            pts = [c - 1 for c in cycle] if one_based else list(cycle)
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

    def sign(self) -> int:
        return self.cycle_type().sign()


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
# stable set partitions, counted by grouping cycles
# ---------------------------------------------------------------------------


def stable_block_counts(ctype: CycleType, blocks: int) -> dict[CycleType, int]:
    """Count the alpha-stable set partitions by the type of the block action.

    For a permutation alpha of type ``ctype``, maps each cycle type beta on
    ``blocks`` letters to the number of alpha-stable partitions of the m
    points into ``blocks`` blocks on which alpha permutes the blocks with
    type beta.  Types that do not occur are left out.

    The blocks of one beta-cycle of length d cover a set of alpha-cycles
    whose lengths are all multiples of d, and k such cycles form one d-orbit
    of blocks in d^(k-1) ways: the first cycle fixes the block labels, each
    further cycle enters at one of d rotations.  Grouping alpha's cycles,
    not its points, is the cycle-index count of the species composition
    F o E_+ (Bergeron-Labelle-Leroux, *Combinatorial Species and Tree-like
    Structures*, 1998).  ``oracles.stable_partitions`` enumerates the same
    partitions point by point and serves as the oracle.
    """
    if blocks < 0:
        raise ValueError("block count must be nonnegative")
    return {
        CycleType.from_parts(parts, blocks): count
        for parts, count in _orbit_groupings(_trim(ctype.mult), blocks)
    }


def _trim(mult) -> tuple[int, ...]:
    """Drop trailing zeros, so the last entry is the longest cycle length."""
    end = len(mult)
    while end and not mult[end - 1]:
        end -= 1
    return tuple(mult[:end])


@lru_cache(maxsize=None)
def _orbit_groupings(
    mult: tuple[int, ...], blocks: int
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(block orbit lengths, count) pairs for the cycles left in ``mult``.

    One cycle of the longest length c opens an orbit of d | c blocks; it
    takes j_e further cycles of each length e divisible by d, in
    C(x_c - 1, j_c) prod_{e != c} C(x_e, j_e) d^(sum j) ways, and the rest
    is grouped recursively into the remaining blocks.
    """
    points = sum(e * x for e, x in enumerate(mult, start=1))
    if blocks > points:
        return ()
    if not mult:
        return (((), 1),)
    c = len(mult)
    counts: dict[tuple[int, ...], int] = {}
    for d in divisors(c):
        if d > blocks:
            break
        lengths = range(d, c + 1, d)
        available = [mult[e - 1] - (e == c) for e in lengths]
        for picks in product(*(range(a + 1) for a in available)):
            weight = d ** sum(picks)
            rest = list(mult)
            rest[c - 1] -= 1
            for e, a, j in zip(lengths, available, picks):
                weight *= math.comb(a, j)
                rest[e - 1] -= j
            for parts, count in _orbit_groupings(_trim(rest), blocks - d):
                key = tuple(sorted(parts + (d,), reverse=True))
                counts[key] = counts.get(key, 0) + weight * count
    return tuple(counts.items())


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
    Seress, *Permutation Group Algorithms*, 2003).  The order is the
    product of the chain's orbit lengths, and a group past the closure cap
    is refused from it before any element is listed.  A group of
    order m! is the symmetric group, whose counts are the class sizes; any
    other group is listed by :func:`group_closure`.
    """
    gens = _checked_generators(generators, m)
    transversals = _stabilizer_chain(gens, m, limits.DEFAULT_CLOSURE_CAP)
    order = math.prod(len(t) for t in transversals)
    if order == math.factorial(m):
        return order, symmetric_counts(m)
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
    gens: tuple[tuple[int, ...], ...], m: int, cap: int
) -> list[dict[int, tuple[int, ...]]]:
    """Transversals of a stabilizer chain of the group generated by ``gens``.

    Level l holds, for each point p in the orbit of base point b_l under
    the stabilizer of b_0..b_(l-1), an element mapping b_l to p.  Schreier
    generators are sifted from the top level down; one that does not sift
    to the identity becomes a strong generator of the levels it passed and
    checking resumes there (the SCHREIERSIMS procedure of Holt, Eick and
    O'Brien, *Handbook of Computational Group Theory*, 2005).  Orbits only
    grow, so the product of their lengths is checked against ``cap`` after
    every change.
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
        if math.prod(len(t) for t in transversals) > cap:
            raise _over_cap(cap)

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

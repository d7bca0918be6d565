"""Partitions, cycle types, Stirling numbers, permutations and subgroups.

Stable set partitions are counted here, never listed (see :mod:`.oracles`).
Stirling numbers of the second kind have two roads that share no code: the
additive recurrence of :func:`stirling_second` and :func:`stirling_row`,
read by the strata routes, and the forward differences of k^m,
``_stirling_differences``, read by their check
:func:`confcohom.confspace.universal_poly`.  A subgroup's order and class
counts come from Knuth's table (``_group_table``), walked, never listed.

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
from collections import Counter
from functools import lru_cache

from .errors import ConsistencyError
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
    over d of d * mult[d-1] equals m.  Cycle types key every trace series
    and count table, so what the routes read of one is computed once per
    object: the parts and the hash of (m, mult) when it is built, the
    class size when first asked.  They sit in private slots, so the fields,
    equality, repr and pickle are those of (m, mult) alone.
    """

    __slots__ = ("m", "mult", "_parts", "_hash", "_size")

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
        parts = tuple(d for d in range(m, 0, -1) for _ in range(mult[d - 1]))
        object.__setattr__(self, "_parts", parts)
        object.__setattr__(self, "_hash", hash((m, mult)))

    # The generic record equality is 1.5-2x slower.
    def __eq__(self, other):
        if other.__class__ is not CycleType:
            return NotImplemented
        return self.m == other.m and self.mult == other.mult

    def __hash__(self) -> int:
        return self._hash

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
        """The cycle lengths in decreasing order."""
        return self._parts

    @property
    def num_cycles(self) -> int:
        return sum(self.mult)

    def class_size(self) -> int:
        """Number of permutations with this cycle type: m!/prod(x_d! d^x_d)."""
        try:
            return self._size
        except AttributeError:
            pass
        denom = 1
        for d, x in enumerate(self.mult, start=1):
            denom *= math.factorial(x) * d**x
        size = math.factorial(self.m) // denom
        object.__setattr__(self, "_size", size)
        return size

    def sign(self) -> int:
        """Signature: (-1)^(m - number of cycles)."""
        return -1 if (self.m - self.num_cycles) % 2 else 1

    def __str__(self) -> str:
        if self.m == 0:
            return "()"
        terms = [f"{d}^{x}" for d, x in enumerate(self.mult, start=1) if x]
        return ",".join(terms)


def all_cycle_types(m: int) -> tuple[CycleType, ...]:
    """Cycle types of the symmetric group on m letters, canonical order.

    The tuple is built once per m (``_all_cycle_types``), but the cap is
    checked on every call, so no cached tuple is served past a cap lowered
    since.  A route that checked its m on entry reads ``_all_cycle_types``
    in its loops.
    """
    limits.check_m(m)
    return _all_cycle_types(m)


@lru_cache(maxsize=None)
def _all_cycle_types(m: int) -> tuple[CycleType, ...]:
    return tuple(CycleType.from_parts(p, m) for p in partitions(m))


@lru_cache(maxsize=None)
def _cycle_type_index(m: int) -> dict[tuple[int, ...], CycleType]:
    """The cycle types of :func:`_all_cycle_types` keyed by multiplicity
    vector, built once per m."""
    return {ct.mult: ct for ct in _all_cycle_types(m)}


# ---------------------------------------------------------------------------
# Stirling numbers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None, typed=True)
def stirling_second(i: int, j: int) -> int:
    """Number of partitions of an i-set into j nonempty blocks.

    S(i, 0), S(i, 1) and S(i, i) are read at once; any other entry is the
    last of :func:`_stirling_sweep` from j to j, (j - 1)(i - j) additions
    whatever was asked before.
    """
    limits.check_count(i, "i")
    limits.check_count(j, "j")
    if j > i or (j == 0 and i > 0):
        return 0
    if j == 1 or j == i:
        return 1
    return _stirling_sweep(i, j, j)[-1]


def stirling_row(i: int, j: int) -> tuple[int, ...]:
    """S(i, 1), ..., S(i, j) for 1 <= j <= i, from one sweep of about i * j
    additions: the row the strata sums read."""
    limits.check_count(j, "j", 1)
    limits.check_count(i, "i", j)
    return _stirling_sweep(i, j, 1)


def _stirling_sweep(i: int, j: int, lowest: int) -> tuple[int, ...]:
    """S(i, lowest), ..., S(i, j) for 1 <= lowest <= j <= i.

    One column, filled in place by the additive recurrence read as
    S(c + t, c) = S(c - 1 + t, c - 1) + c S(c + t - 1, c) for c = 2..j, up
    to t = i - max(c, lowest): an entry S(i, c) with c >= lowest sits at
    t = i - c.  No column is allocated when j = 1.
    """
    if j == 1:
        return (1,)
    column = [1] * (i - lowest + 1)  # S(c + t, c) for t = 0..i-lowest, from c = 1
    row = [1] if lowest == 1 else []
    for c in range(2, j + 1):
        for t in range(1, i - max(c, lowest) + 1):
            column[t] += c * column[t - 1]
        if c >= lowest:
            row.append(column[i - c])
    return tuple(row)


def _stirling_differences(i: int, j: int) -> tuple[int, ...]:
    """S(i, 0), ..., S(i, j) from the forward differences of k^i at 0:
    t! S(i, t) = Delta^t[k^i](0), with 0^0 = 1.  One row of j + 1 powers,
    differenced in place j times; each division by t! is exact and checked."""
    row = [k**i for k in range(j + 1)]
    numbers, factorial = [], 1
    for t in range(j + 1):
        factorial *= t or 1
        q, r = divmod(row[0], factorial)
        if r:
            raise ConsistencyError(f"surjection count at ({i},{t}) is not divisible by {t}!")
        numbers.append(q)
        for k in range(j - t):
            row[k] = row[k + 1] - row[k]
    return tuple(numbers)


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
# stable set partitions, counted by a recurrence over the cycles
# ---------------------------------------------------------------------------


def stable_block_counts(ctype: CycleType, blocks: int) -> dict[CycleType, int]:
    """Count the alpha-stable set partitions by the type of the block action.

    For a permutation alpha of type ``ctype``, maps each cycle type beta on
    ``blocks`` letters to the number of alpha-stable partitions of the m
    points into ``blocks`` blocks on which alpha permutes the blocks with
    type beta.  Types that do not occur are left out, and each beta is the
    very object of ``all_cycle_types(blocks)``, looked up by its
    multiplicities.  The counts are read from :func:`_block_table` of
    alpha's cycle lengths, whose recursion depth the cap on m bounds.
    ``oracles.stable_partitions`` enumerates the same partitions point by
    point and serves as the oracle.

    The cap and the block count are checked on every call; the routes that
    checked their own m on entry read the unchecked core
    ``_stable_block_counts``, which builds the pairs once per process.
    """
    limits.check_m(ctype.m)
    limits.check_count(blocks, "blocks")
    return dict(_stable_block_counts(ctype, blocks))


@lru_cache(maxsize=None)
def _stable_block_counts(ctype: CycleType, blocks: int) -> tuple[tuple[CycleType, int], ...]:
    """The (beta, count) pairs of :func:`stable_block_counts`, unchecked."""
    if blocks > ctype.m:  # no partition has more blocks than points
        return ()
    index = _cycle_type_index(blocks)
    return tuple(
        (index[mult[:blocks] + (0,) * (blocks - len(mult))], count)
        for (mult, used), count in _block_table(ctype.parts)
        if used == blocks
    )


@lru_cache(maxsize=None)
def _block_table(parts: tuple[int, ...]) -> tuple:
    """The pairs ((block type, blocks used), count) over the stable set
    partitions of a permutation with the cycle lengths ``parts``.

    The block type is a multiplicity vector (z_1, z_2, ...) of orbit
    lengths, padded to the longest cycle.  Each cycle of alpha, of length
    e, lies in one orbit of blocks, whose length d divides e.  The last
    cycle either opens a new d-orbit, in one way, or joins one of the z_d
    open d-orbits at one of d rotations, in d * z_d ways: the Stirling
    recurrence S(k, z) = S(k - 1, z - 1) + z S(k - 1, z), weighted by d.
    Summed over the cycles, this is the coefficient extraction of the cycle
    index of the species composition F o E_+ (Bergeron-Labelle-Leroux,
    *Combinatorial Species and Tree-like Structures*, 1998).  The table of
    ``parts`` is one step from that of ``parts[:-1]``, itself a partition,
    so each table is built once per process.
    """
    if not parts:
        return ((((), 0), 1),)
    e = parts[-1]
    lengths = divisors(e)
    table: dict[tuple[tuple[int, ...], int], int] = {}
    for (mult, used), count in _block_table(parts[:-1]):
        mult += (0,) * (e - len(mult))  # only the first, longest cycle pads
        for d in lengths:
            z = mult[d - 1]
            opened = (mult[: d - 1] + (z + 1,) + mult[d:], used + d)
            table[opened] = table.get(opened, 0) + count
            if z:
                table[mult, used] = table.get((mult, used), 0) + count * d * z
    return tuple(table.items())


# ---------------------------------------------------------------------------
# subgroups: Knuth's table and the walk of its products
# ---------------------------------------------------------------------------


def _checked_generators(generators, m: int) -> tuple[tuple[int, ...], ...]:
    """Image tuples of the generators, each a permutation of m letters."""
    gens = tuple(g if isinstance(g, Permutation) else Permutation(tuple(g)) for g in generators)
    for g in gens:
        if g.m != m:
            raise ValueError(f"generator acts on {g.m} letters, expected {m}")
    return tuple(g.images for g in gens)


def symmetric_counts(m: int) -> dict[CycleType, int]:
    """Class counts of the full symmetric group on m letters: the class sizes."""
    return {ct: ct.class_size() for ct in all_cycle_types(m)}


def subgroup_class_counts(
    generators: list[Permutation] | tuple[Permutation, ...], m: int
) -> tuple[int, dict[CycleType, int]]:
    """Order and cycle-type counts of the group the generators generate.

    Returns (order, counts), both from Knuth's table (``_group_table``).
    The cycle-type cap is checked on entry: the answer is keyed by cycle
    types, and the cost of the table grows with m.  A group of order m! is
    the symmetric group, whose counts are the class sizes; any other group
    is walked by ``_table_products``, and is refused from its order, before
    any product is formed, when that order is past the closure cap.
    """
    limits.check_m(m)
    table = _group_table(_checked_generators(generators, m), m)
    order = math.prod(map(len, table))
    if order == math.factorial(m):
        return order, symmetric_counts(m)
    limits.check_group_order(order)
    levels = [[t for t, _ in level.values()] for level in table if len(level) > 1]
    counts = Counter(map(_cycle_mult, _table_products(levels, tuple(range(m)))))
    return order, {CycleType(m, mult): n for mult, n in counts.items()}


def _table_products(levels: list[list], prefix: tuple[int, ...], k: int = 0):
    """``prefix`` times each product t_k t_(k+1) ... of one entry per level
    from k on: each element of the group once, as ``member`` sifts it,
    walked depth first with one prefix product held per level."""
    if k == len(levels):
        yield prefix
    else:
        for t in levels[k]:
            yield from _table_products(levels, _compose(prefix, t), k + 1)


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """p after q, on image tuples."""
    return tuple(map(p.__getitem__, q))


def _inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _group_table(gens: tuple[tuple[int, ...], ...], m: int) -> list[dict]:
    """Knuth's table of the group generated by ``gens``.

    Level k files, under each j, an element that fixes 0..k-1 and sends k to
    j; ``strong[k]`` lists the level's generators.  A product of one entry
    per level from k on is an element of level k's group, and ``member``
    sifts through the tables to find one.  Every strong generator of a
    level times every entry of its table is closed there: filed if new,
    else its residue joins the next level unless it is a member (D. E.
    Knuth, "Efficient representation of perm groups", *Combinatorica* 11,
    1991; Sims 1970).  A "not a member" answer during the build only adds a
    redundant generator, so the table is exact: the order is the product of
    its level sizes.  Nothing here is capped: the tables hold at most
    m(m + 1)/2 elements, the recursion is about m^2/2 frames deep, and the
    caller bounds m.
    """
    identity = tuple(range(m))
    table = [{k: (identity, identity)} for k in range(m)]  # j -> (element, inverse)
    strong: list[list[tuple[int, ...]]] = [[] for _ in range(m)]

    def member(p, k):
        for i in range(k, m):
            entry = table[i].get(p[i])
            if entry is None:
                return False
            p = _compose(entry[1], p)
        return True

    def add(k, p):
        strong[k].append(p)
        for t, _ in list(table[k].values()):
            close(k, _compose(p, t))

    def close(k, p):
        entry = table[k].get(p[k])
        if entry is None:
            table[k][p[k]] = p, _inverse(p)
            for s in strong[k]:
                close(k, _compose(s, p))
        else:
            q = _compose(entry[1], p)
            if not member(q, k + 1):
                add(k + 1, q)

    for g in gens:
        if not member(g, 0):
            add(0, g)
    return table

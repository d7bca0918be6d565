"""Partitions, cycle types, number theory and stable set partitions.

Stable set partitions are counted here, never listed (see :mod:`.oracles`):
``_block_table`` walks a permutation's cycles, and ``symmetric_counts``
gives the class sizes that average a series over the whole symmetric group.
Stirling numbers and the strata live in :mod:`.strata`; permutations and
their subgroups in :mod:`.groups`.

Conventions
-----------
* Integer partitions are decreasing tuples of positive parts.
* A :class:`CycleType` stores the multiplicity vector (x_1, ..., x_m) where
  x_d counts cycles of length d; it doubles as a conjugacy-class label of
  the symmetric group on m letters and as a Young diagram.
"""

from __future__ import annotations

import math
from functools import lru_cache

from . import limits
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


def symmetric_counts(m: int) -> dict[CycleType, int]:
    """Class counts of the full symmetric group on m letters: the class sizes."""
    return {ct: ct.class_size() for ct in all_cycle_types(m)}


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

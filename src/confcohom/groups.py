"""Permutations of {0, ..., m-1}, and the subgroups they generate.

A subgroup's order and cycle-type counts come from Knuth's table
(``_group_table``), walked, never listed; S_m and A_m are known by their
orders.  The element-by-element closure is ``oracles.group_closure``.
"""

from __future__ import annotations

import math
from collections import Counter

from . import limits
from .combinat import CycleType, symmetric_counts
from .record import FrozenRecord


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


def _checked_generators(generators, m: int) -> tuple[tuple[int, ...], ...]:
    """Image tuples of the generators, each a permutation of m letters."""
    gens = tuple(g if isinstance(g, Permutation) else Permutation(tuple(g)) for g in generators)
    for g in gens:
        if g.m != m:
            raise ValueError(f"generator acts on {g.m} letters, expected {m}")
    return tuple(g.images for g in gens)


def subgroup_class_counts(
    generators: list[Permutation] | tuple[Permutation, ...], m: int
) -> tuple[int, dict[CycleType, int]]:
    """Order and cycle-type counts of the group the generators generate.

    Returns (order, counts), both from Knuth's table (``_group_table``).
    The cycle-type cap is checked on entry: the answer is keyed by cycle
    types, and the cost of the table grows with m.  A group of order m! is
    the symmetric group, whose counts are the class sizes; one of order
    m!/2 is the alternating group, the only subgroup of index 2, whose
    counts are the sizes of the even classes.  Any other group is walked by
    ``_table_products``, and is refused from its order, before any product
    is formed, when that order is past the closure cap.
    """
    limits.check_m(m)
    table = _group_table(_checked_generators(generators, m), m)
    order = math.prod(map(len, table))
    if order == math.factorial(m):
        return order, symmetric_counts(m)
    if 2 * order == math.factorial(m):
        return order, {ct: n for ct, n in symmetric_counts(m).items() if ct.sign() == 1}
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

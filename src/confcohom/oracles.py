"""Brute-force oracles: cross-checks that list what the routes count.

Each oracle reaches a production route's numbers by an independent road:
listing stable set partitions point by point, closing a subgroup element by
element, permuting tensor factors or expanding a generating function.  Only
the CLI's checks and the test suite use them; no production module imports
this one.  The rebuild of the configuration character from power traces
counts rather than lists, and the ``bf`` and ``cf`` checks run it, so it is
``charseries.reconstruct_config_series``.  Calls into the layers go
through their modules (``charseries.config_trace``), so patching or
wrapping a layer function reaches the oracles too.  ``groups`` and
``strata`` are imported by the oracles that read them, so the ``sym``
check, which reads only the generating function, compiles neither.

Each oracle that lists guards its own size, which CONFCOHOM_MAX_M does not
raise: set partitions up to m = 10, the tensor oracle up to m = 6 and total
dimension 4, and the closure up to ``limits.DEFAULT_CLOSURE_CAP`` elements.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iter_product
from math import comb

from . import charseries, confspace, limits
from .combinat import CycleType
from .confspace import SpaceSpec
from .errors import CostCapExceeded
from .polyarith import LaurentPoly
from .record import FrozenRecord


class SetPartition(FrozenRecord):
    """Partition of {0, ..., m-1} into disjoint nonempty blocks.

    Blocks are sorted tuples, listed in increasing order of least element;
    that order is the canonical block numbering used everywhere below.
    """

    __slots__ = ("m", "blocks")

    def __init__(self, m: int, blocks: tuple[tuple[int, ...], ...]):
        limits.check_count(m, "m")
        flat = sorted(x for b in blocks for x in b)
        if flat != list(range(m)):
            raise ValueError("blocks must partition the ground set")
        if list(blocks) != sorted((tuple(sorted(b)) for b in blocks), key=min):
            raise ValueError("blocks must be sorted canonically")
        self._init(m, blocks)

    @staticmethod
    def from_blocks(m: int, blocks) -> "SetPartition":
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=min))
        return SetPartition(m, canon)

    def block_index(self) -> dict[int, int]:
        idx = {}
        for k, block in enumerate(self.blocks):
            for x in block:
                idx[x] = k
        return idx

    def apply(self, alpha: Permutation) -> "SetPartition":
        return SetPartition.from_blocks(
            self.m, [[alpha(x) for x in block] for block in self.blocks]
        )

    def __str__(self) -> str:
        return "|".join("".join(str(x + 1) for x in block) for block in self.blocks)


def set_partitions(m: int, blocks: int) -> tuple[SetPartition, ...]:
    """All partitions of {0,...,m-1} into exactly ``blocks`` nonempty blocks.

    Enumerated through restricted-growth strings, so the list is
    deterministic and each partition arrives in canonical block order.
    The count is the Stirling number of the second kind.  The cap on m and
    this oracle's own bound, m = 10, are checked on every call, so a cached
    list is never served past either.
    """
    limits.check_count(blocks, "blocks", 1)
    limits.check_m(m, least=1)
    if m > 10:
        raise CostCapExceeded("set-partition enumeration is capped at m = 10")
    return _set_partitions(m, blocks)


@lru_cache(maxsize=None)
def _set_partitions(m: int, blocks: int) -> tuple[SetPartition, ...]:
    if blocks > m:
        return ()
    out = []
    labels = [0] * m

    def grow(i: int, used: int):
        if i == m:
            if used == blocks:
                grouped: list[list[int]] = [[] for _ in range(used)]
                for x, lab in enumerate(labels):
                    grouped[lab].append(x)
                out.append(SetPartition.from_blocks(m, grouped))
            return
        # prune: remaining slots must still allow reaching `blocks` labels
        if used + (m - i) < blocks:
            return
        limit = min(used, blocks - 1)
        for lab in range(limit + 1):
            labels[i] = lab
            grow(i + 1, used + (1 if lab == used else 0))

    grow(0, 0)
    return tuple(out)


def stable_partitions(
    alpha: Permutation, blocks: int
) -> list[tuple[SetPartition, Permutation]]:
    """Set partitions into ``blocks`` blocks preserved by ``alpha``.

    Each stable partition p comes with the permutation induced on its
    blocks, expressed through the canonical least-element block order.
    The induced block permutation is only canonical up to that ordering
    choice; all consumers are class functions, so any consistent order
    yields the same traces.
    """
    from .groups import Permutation

    m = alpha.m
    limits.check_count(blocks, "blocks")
    if blocks == m:
        # Only the partition into singletons; the block action is alpha itself.
        singletons = SetPartition.from_blocks(m, [[i] for i in range(m)])
        return [(singletons, alpha)]
    found = []
    for p in set_partitions(m, blocks):
        if p.apply(alpha) == p:
            idx = p.block_index()
            beta = Permutation(tuple(idx[alpha(block[0])] for block in p.blocks))
            found.append((p, beta))
    return found


def group_closure(
    generators: list[Permutation] | tuple[Permutation, ...], m: int
) -> tuple[int, dict[CycleType, int]]:
    """Close a generator set under composition; count elements per cycle type.

    Returns (order, counts).  The empty generator set yields the trivial
    group.  Breadth-first multiplication; aborts past the closure cap in
    :mod:`.limits`.  The element-by-element oracle for ``groups.subgroup_class_counts``.
    """
    from . import groups

    limits.check_m(m)  # the counts are keyed by cycle types
    gens = groups._checked_generators(generators, m)
    identity = tuple(range(m))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                prod = groups._compose(g, h)
                if prod not in seen:
                    limits.check_group_order(len(seen) + 1)
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    counts: dict[tuple[int, ...], int] = {}
    for images in seen:
        mult = groups._cycle_mult(images)
        counts[mult] = counts.get(mult, 0) + 1
    return len(seen), {CycleType(m, mult): n for mult, n in counts.items()}


def tensor_trace_oracle(dims: tuple[int, ...], ctype: CycleType) -> LaurentPoly:
    """Brute-force graded trace on the m-fold tensor power.

    ``dims[k]`` is the dimension in degree k.  A permutation acts on basis
    tensors by permuting factors with the Koszul sign; only tensors
    constant on cycles contribute to the trace.  Cost guard: total
    dimension <= 4 and m <= 6.
    """
    if sum(dims) > 4 or ctype.m > 6:
        raise CostCapExceeded("tensor trace oracle is limited to dim <= 4, m <= 6")
    from . import groups

    degrees = [k for k, n in enumerate(dims) for _ in range(n)]
    alpha = groups.representative(ctype)
    cycles = alpha.cycles()
    m = ctype.m
    total = LaurentPoly.zero()
    for assignment in iter_product(range(len(degrees)), repeat=len(cycles)):
        tup = [0] * m
        for cyc, basis_idx in zip(cycles, assignment):
            for pos in cyc:
                tup[pos] = basis_idx
        degs = [degrees[b] for b in tup]
        sign = 1
        for i in range(m):
            for j in range(i + 1, m):
                if alpha(i) > alpha(j) and degs[i] % 2 and degs[j] % 2:
                    sign = -sign
        d_total = sum(degs)
        coeff = sign if d_total % 2 == 0 else -sign
        total = total + LaurentPoly.term(coeff, d_total)
    return total


def exactly_trace(
    space: SpaceSpec, distinct: int, m: int, alpha: Permutation
) -> LaurentPoly:
    """Trace of ``alpha`` on the stratum of tuples with exactly ``distinct`` values.

    The stratum splits into configuration-space copies indexed by set
    partitions; the trace concentrates on the alpha-stable ones, each
    contributing the configuration trace of the induced block permutation.
    The stable partitions are enumerated one by one, so this is the
    point-level oracle for ``charseries.exactly_series``, which counts them.
    """
    from . import strata

    confspace.require(space, "i_acyclic")
    strata._check_strata(distinct, m, least=1)
    if alpha.m != m:
        raise ValueError("permutation size must match m")
    total = LaurentPoly.zero()
    for _p, beta in stable_partitions(alpha, distinct):
        total = total + charseries.config_trace(space, beta.cycle_type())
    return total


def at_most_trace(
    space: SpaceSpec, distinct: int, m: int, alpha: Permutation
) -> LaurentPoly:
    """Trace of ``alpha`` on tuples with at most ``distinct`` values.

    Telescopes over the exact strata with one degree shift per step:
    sum_a T^a * exactly_trace(distinct - a).  The step-a stratum enters
    through an a-fold shifted exact sequence, which in the alternating
    trace convention contributes a plain T^a factor.
    """
    from . import strata

    confspace.require(space, "i_acyclic")
    strata._check_strata(distinct, m, least=1)
    total = LaurentPoly.zero()
    for a in range(distinct):
        total = total + LaurentPoly.term(1, a) * exactly_trace(
            space, distinct - a, m, alpha
        )
    return total


def symmetric_product_generating_function(pc: LaurentPoly, m: int) -> LaurentPoly:
    """Coefficient of t^m in prod over degrees k of
    (1 + x^k t)^(b_k)   [k odd]   and   (1 - x^k t)^(-b_k)   [k even],

    where b_k are the coefficients of ``pc``; the result is a polynomial
    in x graded like the Poincaré polynomial of the symmetric product.
    """
    series = [LaurentPoly.one()] + [LaurentPoly.zero()] * m
    for k, b in pc.items():
        if b == 0:
            continue
        if k < 0:
            raise ValueError("generating function needs nonnegative exponents")
        factor = []
        for j in range(m + 1):
            if k % 2 == 1:
                if j > b:
                    break
                factor.append(LaurentPoly.term(comb(b, j), k * j))
            else:
                factor.append(LaurentPoly.term(comb(b + j - 1, j), k * j))
        new = [LaurentPoly.zero()] * (m + 1)
        for i in range(m + 1):
            if series[i].is_zero():
                continue
            for j, f in enumerate(factor):
                if i + j > m:
                    break
                new[i + j] = new[i + j] + series[i] * f
        series = new
    return series[m]

import math
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from confcohom import (
    CostCapExceeded,
    CycleType,
    Permutation,
    SetPartition,
    all_cycle_types,
    group_closure,
    set_partitions,
    stable_partitions,
    stirling_first_signed,
    stirling_second,
)
from confcohom import combinat, limits
from confcohom.combinat import (
    divisors,
    euler_phi,
    mobius,
    partitions,
    representative,
    stable_block_counts,
    subgroup_class_counts,
)


class TestPartitions:
    def test_three(self):
        assert partitions(3) == ((3,), (2, 1), (1, 1, 1))

    def test_six_two_parts(self):
        assert tuple(p for p in partitions(6) if len(p) == 2) == ((5, 1), (4, 2), (3, 3))

    def test_zero(self):
        assert partitions(0) == ((),)

    @pytest.mark.parametrize("m,count", [(1, 1), (4, 5), (7, 15), (10, 42), (12, 77)])
    def test_counts(self, m, count):
        assert len(partitions(m)) == count


class TestCycleType:
    def test_identity(self):
        assert CycleType.identity(3).mult == (3, 0, 0)

    def test_from_parts_roundtrip(self):
        ct = CycleType.from_parts((3, 2, 2, 1))
        assert ct.parts == (3, 2, 2, 1)
        assert ct.m == 8

    def test_invalid_mult(self):
        with pytest.raises(ValueError):
            CycleType(3, (1, 1, 1))

    def test_class_sizes_small(self):
        assert CycleType.identity(3).class_size() == 1
        assert CycleType.from_parts((3,)).class_size() == 2
        assert CycleType.from_parts((2, 1)).class_size() == 3

    @pytest.mark.parametrize("m", range(1, 13))
    def test_class_sizes_sum_to_factorial(self, m):
        assert sum(ct.class_size() for ct in all_cycle_types(m)) == math.factorial(m)

    def test_sign(self):
        assert CycleType.from_parts((2, 1)).sign() == -1
        assert CycleType.from_parts((3,)).sign() == 1
        assert CycleType.identity(4).sign() == 1


class TestStirling:
    def test_reference_values(self):
        assert stirling_second(6, 2) == 31
        assert stirling_second(6, 3) == 90
        assert stirling_second(0, 0) == 1
        for i in range(1, 8):
            assert stirling_second(i, 0) == 0

    def test_first_kind_factorials(self):
        for i in range(1, 10):
            assert stirling_first_signed(i, 1) == (-1) ** (i - 1) * math.factorial(i - 1)

    @pytest.mark.parametrize("n", [6, 12])
    def test_matrices_mutually_inverse(self, n):
        for i in range(n + 1):
            for j in range(n + 1):
                total = sum(
                    stirling_first_signed(i, k) * stirling_second(k, j)
                    for k in range(n + 1)
                )
                assert total == (1 if i == j else 0)
                total = sum(
                    stirling_second(i, k) * stirling_first_signed(k, j)
                    for k in range(n + 1)
                )
                assert total == (1 if i == j else 0)

    @given(st.integers(0, 12), st.integers(0, 12))
    def test_triangle_zero(self, i, j):
        if j > i:
            assert stirling_second(i, j) == 0
            assert stirling_first_signed(i, j) == 0

    def test_deep_row_without_recursion(self):
        # a row far past the interpreter's recursion limit
        n = 1500
        assert stirling_second(n, 3) == (3**n - 3 * 2**n + 3) // 6
        assert stirling_second(n, 2) == 2 ** (n - 1) - 1
        assert stirling_first_signed(n, 1) == -math.factorial(n - 1)

    def test_a_row_builds_one_falling_product(self, monkeypatch):
        calls = []
        original = combinat.falling_product

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(combinat, "falling_product", counted)
        combinat._falling_factorial.cache_clear()
        row = [stirling_first_signed(40, j) for j in range(41)]
        assert len(calls) == 1
        assert sum(row) == 0 and sum(map(abs, row)) == math.factorial(40)

    def test_trivial_entries_fill_no_table(self):
        # S(m, 0), S(m, 1) and S(m, m) fill no column of m entries
        stirling_second.cache_clear()
        m = 10**9
        tracemalloc.start()
        try:
            assert [stirling_second(m, j) for j in (0, 1, m)] == [0, 1, 1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert stirling_second(0, 0) == 1

    def test_table_never_evaluates_the_explicit_count(self, monkeypatch):
        # the inclusion-exclusion count is the strata checks' independent
        # road, so the recurrence must not read it
        def never(i, j):
            raise AssertionError("the recurrence read the explicit count")

        stirling_second.cache_clear()
        monkeypatch.setattr(combinat, "_stirling_second_explicit", never)
        assert stirling_second(7, 3) == 301
        assert stirling_second(60, 2) == 2**59 - 1


class TestNumberTheory:
    def test_one(self):
        assert (mobius(1), euler_phi(1), divisors(1)) == (1, 1, (1,))

    def test_four(self):
        assert (mobius(4), euler_phi(4), divisors(4)) == (0, 2, (1, 2, 4))

    def test_six(self):
        assert (mobius(6), euler_phi(6), divisors(6)) == (1, 2, (1, 2, 3, 6))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            mobius(0)

    def test_divisors_by_trial_division(self):
        for n in range(1, 2001):
            assert divisors(n) == tuple(d for d in range(1, n + 1) if n % d == 0)

    @given(st.integers(1, 300))
    def test_totient_sum(self, n):
        assert sum(euler_phi(d) for d in divisors(n)) == n

    @given(st.integers(2, 300))
    def test_mobius_sum(self, n):
        assert sum(mobius(d) for d in divisors(n)) == 0


class TestSetPartitions:
    def test_three_into_two(self):
        # blocks print in least-element order: {2,3} sorts after {1}
        got = {str(p) for p in set_partitions(3, 2)}
        assert got == {"12|3", "13|2", "1|23"}

    def test_count_is_stirling(self):
        assert len(set_partitions(6, 3)) == 90
        for m in range(1, 11):
            for blocks in range(1, m + 1):
                assert len(set_partitions(m, blocks)) == stirling_second(m, blocks)

    def test_singletons(self):
        (only,) = set_partitions(4, 4)
        assert only.blocks == ((0,), (1,), (2,), (3,))

    def test_too_many_blocks_empty(self):
        assert set_partitions(3, 4) == ()

    def test_hard_cap(self):
        with pytest.raises(CostCapExceeded):
            set_partitions(13, 3)

    def test_canonical_order_enforced(self):
        with pytest.raises(ValueError):
            SetPartition(3, ((1, 2), (0,)))


class TestStablePartitions:
    def test_transposition(self):
        alpha = Permutation.from_cycles(3, [[1, 2]])
        result = stable_partitions(alpha, 2)
        assert len(result) == 1
        partition, beta = result[0]
        assert str(partition) == "12|3"
        assert beta == Permutation.identity(2)

    def test_three_cycle_has_none(self):
        alpha = Permutation.from_cycles(3, [[1, 2, 3]])
        assert stable_partitions(alpha, 2) == []

    def test_identity_fixes_everything(self):
        ident = Permutation.identity(4)
        for blocks in range(1, 5):
            result = stable_partitions(ident, blocks)
            assert len(result) == stirling_second(4, blocks)
            assert all(beta == Permutation.identity(blocks) for _p, beta in result)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_full_cycle_iff_divisor(self, m):
        sigma = representative(CycleType.from_parts((m,)))
        for blocks in range(1, m + 1):
            result = stable_partitions(sigma, blocks)
            if m % blocks == 0:
                assert len(result) == 1
            else:
                assert result == []

    def test_count_invariant_under_conjugation(self):
        # the number of stable partitions only depends on the cycle type
        import itertools

        m = 5
        for ct in all_cycle_types(m):
            base = representative(ct)
            counts = set()
            for images in itertools.islice(itertools.permutations(range(m)), 24):
                g = Permutation(tuple(images))
                conj = g * base * g.inverse()
                for blocks in (2, 3):
                    counts.add((blocks, len(stable_partitions(conj, blocks))))
            for blocks in (2, 3):
                expected = len(stable_partitions(base, blocks))
                assert (blocks, expected) in counts
                assert len({c for b, c in counts if b == blocks}) == 1


class TestStableBlockCounts:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_enumeration(self, m):
        # the divisor-split count against the point-level enumeration,
        # grouped by the type of the induced block permutation
        for ct in all_cycle_types(m):
            alpha = representative(ct)
            for blocks in range(1, m + 1):
                enumerated = Counter(
                    beta.cycle_type() for _p, beta in stable_partitions(alpha, blocks)
                )
                assert stable_block_counts(ct, blocks) == dict(enumerated), (ct, blocks)

    def test_identity_is_stirling(self):
        for m in range(1, 13):
            for blocks in range(1, m + 1):
                assert stable_block_counts(CycleType.identity(m), blocks) == {
                    CycleType.identity(blocks): stirling_second(m, blocks)
                }

    def test_full_cycle(self):
        # an m-cycle is stable on one partition per divisor d of m: the
        # residues mod d, permuted as a d-cycle
        for m in range(1, 13):
            full = CycleType.from_parts((m,))
            for blocks in range(1, m + 1):
                expected = {CycleType.from_parts((blocks,)): 1} if m % blocks == 0 else {}
                assert stable_block_counts(full, blocks) == expected

    def test_burnside_past_the_enumeration_window(self):
        # Burnside: the S_m-orbits on set partitions into l blocks are the
        # partitions of m into l parts, so the stable partitions summed over
        # all m! permutations number m! p(m, l); this reads neither algorithm
        for m in range(1, limits.max_m() + 1):
            for l in range(1, m + 1):
                fixed = sum(
                    ct.class_size() * sum(stable_block_counts(ct, l).values())
                    for ct in all_cycle_types(m)
                )
                parts = sum(1 for p in partitions(m) if len(p) == l)
                assert fixed == math.factorial(m) * parts, (m, l)

    def test_edge_block_counts(self):
        ct = CycleType.from_parts((2, 1))
        assert stable_block_counts(ct, 0) == {}
        assert stable_block_counts(ct, 4) == {}
        assert stable_block_counts(CycleType.identity(0), 0) == {CycleType.identity(0): 1}
        with pytest.raises(ValueError):
            stable_block_counts(ct, -1)


class TestGroupClosure:
    def test_empty_generators(self):
        order, counts = group_closure([], 3)
        assert order == 1
        assert counts == {CycleType.identity(3): 1}

    def test_cyclic_group(self):
        sigma = Permutation.from_cycles(3, [[1, 2, 3]])
        order, counts = group_closure([sigma], 3)
        assert order == 3
        assert counts == {
            CycleType.identity(3): 1,
            CycleType.from_parts((3,)): 2,
        }

    def test_full_symmetric_group(self):
        gens = [
            Permutation.from_cycles(3, [[1, 2]]),
            Permutation.from_cycles(3, [[1, 2, 3]]),
        ]
        order, counts = group_closure(gens, 3)
        assert order == 6
        assert counts == {ct: ct.class_size() for ct in all_cycle_types(3)}

    def test_symmetric_group_fixing_a_point(self):
        gens = [
            Permutation.from_cycles(8, [[1, 2]]),
            Permutation.from_cycles(8, [[1, 2, 3, 4, 5, 6, 7]]),
        ]
        order, counts = group_closure(gens, 8)
        assert order == 5040
        assert counts == {
            CycleType(8, (ct.mult[0] + 1, *ct.mult[1:], 0)): ct.class_size()
            for ct in all_cycle_types(7)
        }

    def test_cap(self, monkeypatch):
        gens = [
            Permutation.from_cycles(5, [[1, 2]]),
            Permutation.from_cycles(5, [[1, 2, 3, 4, 5]]),
        ]
        monkeypatch.setattr(limits, "DEFAULT_CLOSURE_CAP", 10)
        with pytest.raises(CostCapExceeded):
            group_closure(gens, 5)


def _cycles(m: int, *cycles) -> Permutation:
    return Permutation.from_cycles(m, [list(c) for c in cycles])


def _symmetric(m: int) -> list[Permutation]:
    return [_cycles(m, (1, 2)), _cycles(m, range(1, m + 1))] if m > 1 else []


def _alternating(m: int) -> list[Permutation]:
    # (1 2 3) with an m-cycle (m odd) or an (m-1)-cycle fixing 1 (m even)
    if m < 3:
        return []
    long = range(1, m + 1) if m % 2 else range(2, m + 1)
    return [_cycles(m, (1, 2, 3)), _cycles(m, long)]


def _chain_order(gens: list[Permutation], m: int) -> int:
    chain = combinat._stabilizer_chain([g.images for g in gens], m)
    return math.prod(len(level) for level in chain)


def _named_groups(m: int) -> dict[str, list[Permutation]]:
    return {
        "trivial": [],
        "cyclic": [_cycles(m, range(1, m + 1))] if m else [],
        "symmetric": _symmetric(m),
        "alternating": _alternating(m),
    }


@st.composite
def generator_sets(draw):
    """Up to three permutations of m <= 7 points, each moving a drawn subset."""
    m = draw(st.integers(0, 7))
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        support = sorted(draw(st.sets(st.integers(0, m - 1))) if m else ())
        images = list(range(m))
        for point, image in zip(support, draw(st.permutations(support))):
            images[point] = image
        gens.append(Permutation(tuple(images)))
    return m, gens


class TestSubgroupClassCounts:
    """The stabilizer-chain route against the element-by-element closure."""

    @pytest.mark.parametrize("m", range(8))
    @pytest.mark.parametrize("group", ["trivial", "cyclic", "symmetric", "alternating"])
    def test_named_groups_match_closure(self, m, group):
        gens = _named_groups(m)[group]
        expected = group_closure(gens, m)
        assert _chain_order(gens, m) == expected[0]
        assert subgroup_class_counts(gens, m) == expected

    @given(generator_sets())
    def test_random_generators_match_closure(self, data):
        m, gens = data
        expected = group_closure(gens, m)
        assert _chain_order(gens, m) == expected[0]
        assert subgroup_class_counts(gens, m) == expected

    @pytest.mark.parametrize(
        "m, cycles, order",
        [
            (6, [[(1, 2), (3, 4)], [(1, 3)]], 8),  # dihedral on 4 of 6 points
            (5, [[(1, 2)], [(3, 4, 5)]], 6),  # S_2 x C_3
            (6, [[(1, 2, 3)], [(1, 2)], [(4, 5, 6)], [(4, 5)]], 36),  # S_3 x S_3
            (8, [[(1, 2, 3, 4, 5, 6, 7, 8)], [(1, 8), (2, 7), (3, 6), (4, 5)]], 16),
            (7, [[(1, 2, 3, 4, 5, 6, 7)], [(2, 3, 5), (4, 7, 6)]], 21),  # Frobenius F_21
            (8, [[(1, 2, 3, 4)], [(5, 6, 7, 8)], [(1, 5), (2, 6), (3, 7), (4, 8)]], 32),
            (7, [[(1, 2)], [(2, 3)], [(3, 4)], [(4, 5)], [(5, 6)]], 720),  # S_6 fixing 7
        ],
    )
    def test_chain_order_of_listed_groups(self, m, cycles, order):
        gens = [_cycles(m, *g) for g in cycles]
        assert _chain_order(gens, m) == order
        assert subgroup_class_counts(gens, m) == group_closure(gens, m)

    def test_cap_refuses_from_the_order(self, monkeypatch):
        def listed(*_args):
            raise AssertionError("an element was listed")

        s4_on_5 = [_cycles(5, (1, 2)), _cycles(5, (1, 2, 3, 4))]  # order 24, not 5!
        monkeypatch.setattr(limits, "DEFAULT_CLOSURE_CAP", 10)
        with pytest.raises(CostCapExceeded) as closure:
            group_closure(s4_on_5, 5)
        monkeypatch.setattr(combinat, "group_closure", listed)
        monkeypatch.setattr(combinat, "symmetric_counts", listed)
        with pytest.raises(CostCapExceeded) as refused:
            subgroup_class_counts(s4_on_5, 5)
        assert str(refused.value) == str(closure.value)
        # one element over the cap is enough
        monkeypatch.setattr(limits, "DEFAULT_CLOSURE_CAP", 23)
        with pytest.raises(CostCapExceeded):
            subgroup_class_counts(s4_on_5, 5)
        monkeypatch.setattr(limits, "DEFAULT_CLOSURE_CAP", 2)
        with pytest.raises(CostCapExceeded):
            subgroup_class_counts([_cycles(6, (1, 2, 3))], 6)

    @pytest.mark.parametrize("m", range(2, 13))
    def test_symmetric_groups_are_never_listed(self, monkeypatch, m):
        def listed(*_args):
            raise AssertionError("an element was listed")

        monkeypatch.setattr(combinat, "group_closure", listed)
        order, counts = subgroup_class_counts(_symmetric(m), m)
        assert order == sum(counts.values()) == math.factorial(m)

    def test_order_at_the_cap_is_allowed(self, monkeypatch):
        monkeypatch.setattr(limits, "DEFAULT_CLOSURE_CAP", 120)
        assert subgroup_class_counts(_symmetric(5), 5)[0] == 120
        monkeypatch.setattr(limits, "DEFAULT_CLOSURE_CAP", 3)
        assert subgroup_class_counts([_cycles(6, (1, 2, 3))], 6)[0] == 3

    def test_large_degree_over_cap_is_refused_quickly(self):
        # the cycle-type cap comes before the chain, which takes seconds at m = 40
        with pytest.raises(CostCapExceeded, match="^cycle-type computations are capped at m = "):
            subgroup_class_counts(_symmetric(40), 40)

    def test_generator_size_mismatch(self):
        with pytest.raises(ValueError):
            subgroup_class_counts([Permutation.identity(3)], 4)

    def test_accepts_image_tuples(self):
        assert subgroup_class_counts([(1, 2, 0)], 3) == group_closure([(1, 2, 0)], 3)


class TestPermutation:
    def test_compose_order(self):
        a = Permutation.from_cycles(3, [[1, 2]])
        b = Permutation.from_cycles(3, [[2, 3]])
        # (a*b)(i) = a(b(i)): b sends 2->3, a fixes 3
        assert (a * b)(1) == 2

    def test_inverse(self):
        g = Permutation.from_cycles(4, [[1, 2, 3]])
        assert g * g.inverse() == Permutation.identity(4)

    def test_cycle_type(self):
        g = Permutation.from_cycles(5, [[1, 2], [3, 4, 5]])
        assert g.cycle_type() == CycleType.from_parts((3, 2))

    def test_representative_has_type(self):
        for m in range(1, 7):
            for ct in all_cycle_types(m):
                assert representative(ct).cycle_type() == ct

    def test_not_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))

    @pytest.mark.parametrize(
        "cycles, message",
        [
            ([[1, 1]], "cycles are not disjoint at 1"),
            ([[1, 2], [2, 3]], "cycles are not disjoint at 2"),
            ([[1, 4]], "cycle entry 4 out of range for m=3"),
            ([[1, 0]], "cycle entry 0 out of range for m=3"),
        ],
    )
    def test_errors_name_the_label_as_written(self, cycles, message):
        with pytest.raises(ValueError) as info:
            Permutation.from_cycles(3, cycles)
        assert str(info.value) == message

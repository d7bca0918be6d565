import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confcohom import (
    BUILTIN_SPACES,
    ConsistencyError,
    CycleType,
    HypothesisViolation,
    LaurentPoly,
    Permutation,
    SpaceSpec,
    all_cycle_types,
    at_most_trace,
    config_series,
    config_trace,
    exactly_series,
    exactly_trace,
    falling_product,
    group_closure,
    induce_blocks,
    poincare_at_most,
    poincare_config,
    poincare_cyclic_config,
    poincare_cyclic_product,
    poincare_symmetric_product,
    poincare_unordered_config,
    power_trace,
    quotient_poincare,
    reconstruct_config_series,
    stirling_second,
    tensor_trace_oracle,
)
from confcohom import charseries, limits
from confcohom.charseries import TraceSeries, cyclic_counts, power_series
from confcohom.combinat import divisors, partitions, representative, symmetric_counts
from confcohom.oracles import symmetric_product_generating_function
from confcohom.polyarith import ONE, T
from conftest import puncture

FIXTURES = [BUILTIN_SPACES[n] for n in ("r1", "r2", "c", "cstar", "c_minus_1", "c_minus_2")]

# polynomials with zero constant term and degree <= 4: admissible inputs
# for interior-acyclic space specs of dimension 4
small_pcs = st.lists(st.integers(0, 5), min_size=1, max_size=4).map(
    lambda cs: LaurentPoly({i + 1: c for i, c in enumerate(cs)})
)


def space_of(pc: LaurentPoly, name="h") -> SpaceSpec:
    return SpaceSpec(name, pc, 4 if pc.is_zero() else max(4, pc.max_exp), i_acyclic=True)


class TestPowerTrace:
    def test_identity_is_tensor_power(self, plane):
        n = plane.pc.negate_var()
        for m in range(1, 6):
            assert power_trace(plane, CycleType.identity(m)) == n**m

    def test_full_cycle_plane(self, plane):
        for m in range(1, 7):
            ct = CycleType.from_parts((m,))
            assert power_trace(plane, ct) == T ** (2 * m)

    def test_mixed_type_plane(self, plane):
        assert power_trace(plane, CycleType.from_parts((2, 1))) == T**6

    def test_against_tensor_oracle_exhaustive(self):
        # every graded dimension vector with total <= 3 in degrees <= 3,
        # all cycle types, m <= 5
        for dims in itertools.product(range(4), repeat=4):
            if not 1 <= sum(dims) <= 3:
                continue
            pc = LaurentPoly.from_coeffs(dims)
            space = SpaceSpec("g", pc, 3, i_acyclic=False)
            for m in range(1, 6):
                for ct in all_cycle_types(m):
                    assert power_trace(space, ct) == tensor_trace_oracle(dims, ct), (
                        dims,
                        ct,
                    )


class TestTensorOracle:
    def test_trivial_module(self):
        for m in range(1, 5):
            for ct in all_cycle_types(m):
                assert tensor_trace_oracle((1,), ct) == ONE

    def test_even_degree_swap(self):
        assert tensor_trace_oracle((0, 0, 1), CycleType.from_parts((2,))) == T**4

    def test_odd_degree_swap_picks_up_sign(self):
        assert tensor_trace_oracle((0, 1), CycleType.from_parts((2,))) == -(T**2)


class TestConfigTrace:
    def test_identity_entry_is_negated_poincare(self):
        for space in FIXTURES:
            for m in range(6):
                assert config_trace(space, CycleType.identity(m)) == poincare_config(
                    space, m
                ).negate_var()

    def test_full_cycle_three_plane(self, plane):
        assert config_trace(plane, CycleType.from_parts((3,))) == T**6 - T**4

    def test_transposition_plane(self, plane):
        assert config_trace(plane, CycleType.from_parts((2,))) == T**4 - T**3

    def test_refuses_without_flag(self, klein):
        with pytest.raises(HypothesisViolation):
            config_trace(klein, CycleType.from_parts((2,)))

    @pytest.mark.parametrize("space", FIXTURES, ids=lambda s: s.name)
    def test_divisor_sum_inverts(self, space):
        # summing the shifted full-cycle traces over divisors recovers the
        # substituted one-point trace: the Möbius inversion undone
        n = space.pc.negate_var()
        for m in range(1, 11):
            total = LaurentPoly.zero()
            for d in divisors(m):
                ct = CycleType.from_parts((d,))
                total = total + LaurentPoly.term(1, m - d) * config_trace(space, ct)
            assert total == n.substitute(m)


class TestStrataTraces:
    def test_exact_at_full_blocks_is_config(self, plane):
        for m in range(1, 6):
            for ct in all_cycle_types(m):
                alpha = representative(ct)
                assert exactly_trace(plane, m, m, alpha) == config_trace(plane, ct)

    def test_single_block_is_space_trace(self, plane):
        n = plane.pc.negate_var()
        for m in range(1, 6):
            for ct in all_cycle_types(m):
                assert exactly_trace(plane, 1, m, representative(ct)) == n

    def test_two_of_three_transposition(self, plane):
        alpha = Permutation.from_cycles(3, [[1, 2]])
        assert exactly_trace(plane, 2, 3, alpha) == T**4 - T**3

    def test_at_most_full_cycle(self, plane):
        alpha = Permutation.from_cycles(3, [[1, 2, 3]])
        assert at_most_trace(plane, 3, 3, alpha) == T**6

    def test_at_most_identity_matches_direct(self):
        for space in FIXTURES:
            for m in range(1, 6):
                ident = Permutation.identity(m)
                for distinct in range(1, m + 1):
                    assert at_most_trace(space, distinct, m, ident) == poincare_at_most(
                        space, distinct, m
                    ).negate_var()

    @pytest.mark.parametrize("space", FIXTURES, ids=lambda s: s.name)
    def test_assembly_identity(self, space):
        # the telescoped stratum traces reassemble the cartesian power
        for m in range(1, 7):
            for ct in all_cycle_types(m):
                alpha = representative(ct)
                assert at_most_trace(space, m, m, alpha) == power_trace(space, ct), (
                    space.name,
                    m,
                    ct,
                )

    def test_exactly_series_counts_identity(self, plane):
        for m in range(1, 6):
            for distinct in range(1, m + 1):
                series = exactly_series(plane, distinct, m)
                expected = stirling_second(m, distinct) * config_trace(
                    plane, CycleType.identity(distinct)
                )
                assert series.identity_entry() == expected


class TestInduction:
    def test_same_size_is_identity(self, plane):
        for m in range(1, 6):
            series = config_series(plane, m)
            assert induce_blocks(series, m) == series

    def test_identity_value_scales_by_stirling(self, plane):
        for m in range(2, 6):
            for blocks in range(1, m + 1):
                series = config_series(plane, blocks)
                induced = induce_blocks(series, m)
                assert induced.identity_entry() == stirling_second(
                    m, blocks
                ) * series.identity_entry()

    def test_three_cycle_kills_two_blocks(self, plane):
        series = config_series(plane, 2)
        induced = induce_blocks(series, 3)
        assert induced[CycleType.from_parts((3,))] == LaurentPoly.zero()

    def test_block_counts_built_once_per_pair(self, plane, monkeypatch):
        # the reconstruction at m = 7 induces over 196 (cycle type, blocks)
        # pairs; each count table is built once, not once per induction
        calls = []
        counts = charseries.stable_block_counts

        def counting(ctype, blocks):
            calls.append((ctype, blocks))
            return counts(ctype, blocks)

        monkeypatch.setattr(charseries, "stable_block_counts", counting)
        charseries._block_counts.cache_clear()
        reconstruct_config_series(plane, 7)
        assert 0 < len(calls) == len(set(calls)) <= 196

    @pytest.mark.parametrize(
        "space", [BUILTIN_SPACES["c"], BUILTIN_SPACES["c_minus_1"]], ids=lambda s: s.name
    )
    def test_counted_strata_match_enumeration(self, space):
        # exactly_series counts stable partitions by the divisor split;
        # exactly_trace enumerates them point by point
        for m in range(2, 8):
            for distinct in range(1, m):
                series = exactly_series(space, distinct, m)
                for ct in all_cycle_types(m):
                    alpha = representative(ct)
                    assert series[ct] == exactly_trace(space, distinct, m, alpha), (
                        distinct,
                        m,
                        ct,
                    )

    def test_two_point_row_is_one_induction(self, plane):
        # the second row of the triangle subtracts the single shifted induction
        expected = power_series(plane, 2) + induce_blocks(power_series(plane, 1), 2).scale(-T)
        assert reconstruct_config_series(plane, 2) == expected

    def test_three_point_row_expansion(self, plane):
        # unrolled to power traces: minus the direct inductions, plus the composite
        f1, f2 = power_series(plane, 1), power_series(plane, 2)
        expected = (
            power_series(plane, 3)
            + induce_blocks(f2, 3).scale(-T)
            + induce_blocks(f1, 3).scale(-(T**2))
            + induce_blocks(induce_blocks(f1, 2), 3).scale(T**2)
        )
        assert reconstruct_config_series(plane, 3) == expected

    def test_reconstruction_matches_chain_sum(self, plane):
        # the triangle unrolled: a signed sum over all descending chains
        # m = c_0 > ... > c_t >= 1, shifted by T^(m - c_t), one induce_blocks per step
        for m in range(1, 7):
            total = TraceSeries(m, {ct: LaurentPoly.zero() for ct in all_cycle_types(m)})
            for low in range(1, m + 1):
                middles = range(low + 1, m)
                for size in range(len(middles) + 1):
                    for mid in itertools.combinations(middles, size):
                        current = power_series(plane, low)
                        for target in mid + (m,):
                            current = induce_blocks(current, target)
                        steps = 0 if low == m else size + 1
                        shift = LaurentPoly.term((-1) ** steps, m - low)
                        total = total + current.scale(shift)
            assert reconstruct_config_series(plane, m) == total, m

    def test_reconstruction_values_plane(self, plane):
        series = reconstruct_config_series(plane, 3)
        assert series[CycleType.identity(3)] == T**6 - 3 * T**5 + 2 * T**4
        assert series[CycleType.from_parts((3,))] == T**6 - T**4
        assert series[CycleType.from_parts((2, 1))] == T**6 - T**5

    @pytest.mark.parametrize("space", FIXTURES, ids=lambda s: s.name)
    def test_oracle_triangle(self, space):
        for m in range(1, 7):
            direct = config_series(space, m)
            rebuilt = reconstruct_config_series(space, m)
            assert rebuilt == direct, (space.name, m)
            for ct in all_cycle_types(m):
                alpha = representative(ct)
                assert exactly_trace(space, m, m, alpha) == direct[ct]

    def test_exact_stratum_from_alternating_route(self, plane):
        # inducing the rebuilt configuration series reproduces the stratum
        for m in range(2, 6):
            for distinct in range(1, m + 1):
                rebuilt = reconstruct_config_series(plane, distinct)
                assert induce_blocks(rebuilt, m) == exactly_series(plane, distinct, m)

    def test_zero_points_reconstruction(self, plane):
        # the empty configuration space is a point
        series = reconstruct_config_series(plane, 0)
        assert series.identity_entry() == ONE

    def test_against_coset_induction_formula(self, plane):
        # the stable-partition trace sum must agree with the classical
        # induced-character formula: for each block-size profile, sweep the
        # whole group, restrict to elements conjugated into the stabilizer
        # of the standard partition, and divide by the stabilizer order
        import itertools

        for blocks, m in [(1, 3), (2, 3), (2, 4), (3, 4), (2, 5), (3, 5)]:
            series = config_series(plane, blocks)
            induced = induce_blocks(series, m)
            group = [
                Permutation(tuple(images))
                for images in itertools.permutations(range(m))
            ]
            for profile in (p for p in partitions(m) if len(p) == blocks):
                standard = _standard_partition(m, profile)
                stabilizer = [g for g in group if standard.apply(g) == standard]
                for ct in all_cycle_types(m):
                    alpha = representative(ct)
                    total = LaurentPoly.zero()
                    for g in group:
                        conj = g.inverse() * alpha * g
                        if standard.apply(conj) != standard:
                            continue
                        idx = standard.block_index()
                        beta = Permutation(
                            tuple(idx[conj(b[0])] for b in standard.blocks)
                        )
                        total = total + series.values[beta.cycle_type()]
                    coset_value = total.divexact(len(stabilizer))
                    geometric = LaurentPoly.zero()
                    from confcohom import stable_partitions

                    for p, beta in stable_partitions(alpha, blocks):
                        if tuple(sorted(map(len, p.blocks), reverse=True)) == profile:
                            geometric = geometric + series.values[beta.cycle_type()]
                    assert coset_value == geometric, (profile, ct)
            # the profile pieces assemble to the full operator
            for ct in all_cycle_types(m):
                alpha = representative(ct)
                assert induced[ct] == exactly_trace(plane, blocks, m, alpha)


def _standard_partition(m, profile):
    from confcohom import SetPartition

    blocks, start = [], 0
    for size in profile:
        blocks.append(list(range(start, start + size)))
        start += size
    return SetPartition.from_blocks(m, blocks)


class TestQuotients:
    def test_trivial_subgroup(self, plane):
        for m in range(1, 5):
            series = config_series(plane, m)
            counts = {CycleType.identity(m): 1}
            assert quotient_poincare(series, counts, 1) == poincare_config(plane, m)

    def test_two_points_swap(self, plane):
        series = config_series(plane, 2)
        counts = {ct: ct.class_size() for ct in all_cycle_types(2)}
        assert quotient_poincare(series, counts, 2) == T**4 + T**3

    def test_three_points_full_group(self, plane):
        series = config_series(plane, 3)
        counts = {ct: ct.class_size() for ct in all_cycle_types(3)}
        assert quotient_poincare(series, counts, 6) == T**6 + T**5

    @pytest.mark.parametrize("m", range(1, 13))
    def test_cyclic_counts_match_closure(self, m):
        rotation = representative(CycleType.from_parts((m,)))
        assert group_closure([rotation], m) == (m, cyclic_counts(m))

    @pytest.mark.parametrize("m", range(1, 7))
    def test_symmetric_counts_match_closure(self, m):
        gens = [representative(ct) for ct in all_cycle_types(m)]
        assert group_closure(gens, m) == (math.factorial(m), symmetric_counts(m))

    def test_counts_must_match_order(self, plane):
        series = config_series(plane, 2)
        with pytest.raises(ValueError):
            quotient_poincare(series, {CycleType.identity(2): 1}, 2)

    def test_divisibility_failure_raises(self, plane):
        # a series that is not a genuine character cannot average exactly
        bogus = TraceSeries(
            2,
            {
                CycleType.identity(2): ONE,
                CycleType.from_parts((2,)): LaurentPoly.zero(),
            },
        )
        counts = {ct: ct.class_size() for ct in all_cycle_types(2)}
        with pytest.raises(ConsistencyError):
            quotient_poincare(bogus, counts, 2)


class TestCyclicAndUnordered:
    def test_single_point(self):
        for space in FIXTURES:
            assert poincare_cyclic_config(space, 1) == space.pc
            assert poincare_unordered_config(space, 1) == space.pc

    def test_plane_values(self, plane):
        assert poincare_cyclic_config(plane, 2) == T**4 + T**3
        assert poincare_cyclic_config(plane, 3) == T**6 + T**5
        assert poincare_unordered_config(plane, 3) == T**6 + T**5

    def test_unordered_plane_dual_betti_plateau(self, plane):
        for m in range(2, 11):
            p = poincare_unordered_config(plane, m)
            dual = [p.coeff(2 * m - i) for i in range(6)]
            assert dual[0] == 1 and dual[1] == 1
            assert all(b == 0 for b in dual[2:])

    @pytest.mark.parametrize("space", FIXTURES, ids=lambda s: s.name)
    def test_cyclic_matches_subgroup_averaging(self, space):
        for m in range(1, 9):
            rotation = representative(CycleType.from_parts((m,)))
            order, counts = group_closure([rotation], m)
            assert order == m
            averaged = quotient_poincare(config_series(space, m), counts, order)
            assert poincare_cyclic_config(space, m) == averaged

    @pytest.mark.parametrize("space", FIXTURES, ids=lambda s: s.name)
    def test_unordered_matches_subgroup_averaging(self, space):
        for m in range(1, 9):
            gens = []
            if m >= 2:
                gens.append(Permutation.from_cycles(m, [[1, 2]]))
            if m >= 3:
                gens.append(
                    Permutation.from_cycles(m, [list(range(1, m + 1))])
                )
            order, counts = group_closure(gens, m)
            assert order == math.factorial(m)
            averaged = quotient_poincare(config_series(space, m), counts, order)
            assert poincare_unordered_config(space, m) == averaged

    @pytest.mark.parametrize(
        "name", ["c", "cstar", "c_minus_1", "c_minus_2", "c_minus_3", "r1", "r2", "r3", "r4"]
    )
    def test_recurrence_matches_class_size_average(self, name):
        space = BUILTIN_SPACES[name]
        for m in range(1, 13):
            averaged = quotient_poincare(
                config_series(space, m), symmetric_counts(m), math.factorial(m)
            )
            assert poincare_unordered_config(space, m) == averaged

    @pytest.mark.parametrize("space", FIXTURES, ids=lambda s: s.name)
    def test_outputs_nonnegative(self, space):
        for m in range(1, 9):
            assert poincare_cyclic_config(space, m).has_nonnegative_coeffs()
            assert poincare_unordered_config(space, m).has_nonnegative_coeffs()

    @given(small_pcs, st.sampled_from([2, 3, 5, 7]))
    @settings(max_examples=40, deadline=None)
    def test_prime_order_divisibility(self, pc, p):
        # the division by a prime p succeeds for every admissible input
        # polynomial: the divisor average is a multiple of p identically
        space = space_of(pc)
        poincare_cyclic_config(space, p)  # raises on divisibility failure

    def test_refusals(self, klein):
        with pytest.raises(HypothesisViolation):
            poincare_cyclic_config(klein, 2)
        with pytest.raises(HypothesisViolation):
            poincare_unordered_config(klein, 2)


class TestProducts:
    def test_symmetric_square_plane(self, plane):
        assert poincare_symmetric_product(plane, 2) == T**4

    def test_symmetric_power_plane_is_affine(self, plane):
        # unordered m-tuples in the plane form an affine space of the same
        # total dimension
        for m in range(1, 7):
            assert poincare_symmetric_product(plane, m) == T ** (2 * m)

    def test_single_factor(self):
        for space in FIXTURES:
            assert poincare_symmetric_product(space, 1) == space.pc
            assert poincare_cyclic_product(space, 1) == space.pc

    def test_symmetric_line_collapses(self, line):
        # unordered tuples on the line form a half-space: no compact
        # cohomology at all; both routes agree on zero
        for m in range(2, 6):
            assert poincare_symmetric_product(line, m) == LaurentPoly.zero()

    def test_symmetric_punctured_plane(self, punctured_plane):
        for m in range(1, 6):
            expected = LaurentPoly({2 * m: 1, 2 * m - 1: 1})
            assert poincare_symmetric_product(punctured_plane, m) == expected

    def test_needs_no_acyclicity(self, klein):
        # products are defined for any finite-type space
        poincare_symmetric_product(klein, 3)
        poincare_cyclic_product(klein, 3)

    def test_symmetric_is_the_class_size_average(self):
        # the route's former average over the p(m) classes, kept as a reference
        for space in BUILTIN_SPACES.values():
            for m in range(1, limits.max_m() + 1):
                average = quotient_poincare(
                    power_series(space, m), symmetric_counts(m), math.factorial(m)
                )
                assert poincare_symmetric_product(space, m) == average, (space.name, m)

    def test_symmetric_reads_no_power_trace(self, monkeypatch):
        def never(*_args):
            raise AssertionError("power_trace ran")

        monkeypatch.setattr(charseries, "power_trace", never)
        assert poincare_symmetric_product(BUILTIN_SPACES["c"], 12) == T**24

    @given(small_pcs, st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_symmetric_agrees_with_generating_function(self, pc, m):
        space = space_of(pc)
        result = poincare_symmetric_product(space, m)
        assert result == symmetric_product_generating_function(pc, m)

    @given(small_pcs, st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_cyclic_agrees_with_listed_rotations(self, pc, m):
        space = space_of(pc)
        rotation = Permutation.from_cycles(m, [list(range(1, m + 1))])
        order, counts = group_closure([rotation], m)
        expected = quotient_poincare(power_series(space, m), counts, order)
        assert poincare_cyclic_product(space, m) == expected


class TestRandomizedInvariants:
    @given(small_pcs, st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_reconstruction_for_random_spaces(self, pc, m):
        space = space_of(pc)
        assert reconstruct_config_series(space, m) == config_series(space, m)

    @given(small_pcs, st.integers(1, 5), st.data())
    @settings(max_examples=25, deadline=None)
    def test_any_subgroup_quotient_is_a_betti_vector(self, pc, m, data):
        # averaging over the closure of random generators always divides
        # exactly and lands on nonnegative coefficients
        space = space_of(pc)
        n_gens = data.draw(st.integers(0, 2))
        gens = []
        for _ in range(n_gens):
            images = data.draw(st.permutations(list(range(m))))
            gens.append(Permutation(tuple(images)))
        order, counts = group_closure(gens, m)
        result = quotient_poincare(config_series(space, m), counts, order)
        assert result.has_nonnegative_coeffs()

    @given(small_pcs, st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_stratum_euler_collapse(self, pc, m):
        # at T = 1 the alternating-sign series of the full telescope gives
        # the Euler characteristic of the power: chi(X)^m
        space = space_of(pc)
        chi = space.euler_char()
        ident = Permutation.identity(m)
        assert at_most_trace(space, m, m, ident).eval_at_int(1) == chi**m


class TestCaps:
    def test_cycle_type_cap(self, plane):
        from confcohom import CostCapExceeded

        with pytest.raises(CostCapExceeded):
            config_trace(plane, CycleType.from_parts((13,)))

    def test_enumeration_cap(self, plane):
        from confcohom import CostCapExceeded

        alpha = Permutation.identity(11)
        with pytest.raises(CostCapExceeded):
            exactly_trace(plane, 2, 11, alpha)

    def test_full_block_fast_path_allowed_above_enumeration_cap(self, plane):
        # distinct == m needs no set-partition enumeration, so it runs up
        # to the cycle-type cap
        alpha = Permutation.identity(11)
        assert exactly_trace(plane, 11, 11, alpha) == config_trace(
            plane, CycleType.identity(11)
        )

    def test_reconstruction_cap_before_power_series(self, plane, monkeypatch):
        from confcohom import CostCapExceeded

        def listed(*_args):
            raise AssertionError("power_series ran past the cap")

        monkeypatch.setattr(charseries, "power_series", listed)
        with pytest.raises(CostCapExceeded):
            reconstruct_config_series(plane, 13)


class TestPunctureComparisons:
    @pytest.mark.parametrize("space", [BUILTIN_SPACES["c"], BUILTIN_SPACES["cstar"]], ids=lambda s: s.name)
    def test_fixed_point_free_traces_puncture_blind(self, space):
        # without fixed points the trace cannot see added punctures
        for m in range(2, 6):
            for ct in all_cycle_types(m):
                if ct.mult[0]:
                    continue
                for a in range(1, 6):
                    assert config_trace(space, ct) == config_trace(
                        puncture(space, a), ct
                    )

    @pytest.mark.parametrize("space", [BUILTIN_SPACES["c"], BUILTIN_SPACES["cstar"]], ids=lambda s: s.name)
    def test_cross_multiplied_ratio_identity(self, space):
        # trace(X) / falling(X) == trace(X-a) / falling(X-a), cleared of
        # denominators: both sides stay in the polynomial ring
        n_x = space.pc.negate_var()
        for m in range(1, 6):
            for ct in all_cycle_types(m):
                x1 = ct.mult[0]
                for a in range(1, 4):
                    other = puncture(space, a)
                    n_xa = other.pc.negate_var()
                    lhs = config_trace(space, ct) * falling_product(n_xa, T, x1)
                    rhs = config_trace(other, ct) * falling_product(n_x, T, x1)
                    assert lhs == rhs

    @pytest.mark.parametrize("space", [BUILTIN_SPACES["c"], BUILTIN_SPACES["cstar"]], ids=lambda s: s.name)
    def test_fiber_base_factorization_iff_identity(self, space):
        # the product of the fiber trace (punctured space, b points) and the
        # base trace (a points) matches the total trace exactly when the
        # base permutation is trivial
        for a in range(1, 4):
            for b in range(1, 4):
                for ct in all_cycle_types(a):
                    padded = CycleType(b + a, (ct.mult[0] + b,) + ct.mult[1:] + (0,) * b)
                    total = config_trace(space, padded)
                    split = config_trace(
                        puncture(space, a), CycleType.identity(b)
                    ) * config_trace(space, ct)
                    assert (total == split) == (ct == CycleType.identity(a))

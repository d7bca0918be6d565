import math
from functools import lru_cache

import pytest

from confcohom import (
    BUILTIN_SPACES,
    ConsistencyError,
    CostCapExceeded,
    CycleType,
    HypothesisViolation,
    LaurentPoly,
    SpaceSpec,
    all_cycle_types,
    config_series,
    decompose_series,
    exactly_series,
    induce_blocks,
    quotient_poincare,
    stability_report,
    symmetric_group_character,
    unordered_betti_constancy,
)
from confcohom import charseries, polyarith, repstab
from confcohom.charseries import TraceSeries
from confcohom.combinat import partitions, symmetric_counts
from confcohom.repstab import borel_moore_series, irrep_dimension, pad_core
from confcohom.polyarith import ONE, T

FIXTURES = [BUILTIN_SPACES[n] for n in ("c", "cstar", "c_minus_1", "r3")]


class TestCharacters:
    def test_trivial_representation(self):
        for m in range(1, 7):
            for ct in all_cycle_types(m):
                assert symmetric_group_character((m,), ct.parts) == 1

    def test_sign_representation(self):
        for m in range(1, 7):
            shape = (1,) * m
            for ct in all_cycle_types(m):
                assert symmetric_group_character(shape, ct.parts) == ct.sign()

    def test_standard_representation(self):
        # fixed points minus one
        for m in range(2, 7):
            shape = (m - 1, 1)
            for ct in all_cycle_types(m):
                assert symmetric_group_character(shape, ct.parts) == ct.mult[0] - 1

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            symmetric_group_character((2, 1), (2,))

    @pytest.mark.parametrize(
        "shape, mu",
        [((1, 2), (1, 1, 1)), ((2, -1, 2), (1, 1, 1)), ((2, 1), (3, 0))],
        ids=["increasing", "negative-part", "zero-cycle"],
    )
    def test_non_partition_rejected(self, shape, mu):
        with pytest.raises(ValueError, match="partition|positive"):
            symmetric_group_character(shape, mu)

    @pytest.mark.parametrize("shape", [(1, 2), (2, -1)], ids=["increasing", "negative-part"])
    def test_non_partition_has_no_dimension(self, shape):
        with pytest.raises(ValueError, match="not a partition"):
            irrep_dimension(shape)

    def test_shape_checked_after_an_equal_shape(self):
        # (2, True) == (2, 1), so a cache would serve it the entry of (2, 1)
        assert irrep_dimension((2, 1)) == 2
        with pytest.raises(TypeError, match=r"shape\[1\] must be an int, not bool"):
            irrep_dimension((2, True))

    @pytest.mark.parametrize("m", range(1, 7))
    def test_orthogonality(self, m):
        shapes = partitions(m)
        for s1 in shapes:
            for s2 in shapes:
                total = sum(
                    ct.class_size()
                    * symmetric_group_character(s1, ct.parts)
                    * symmetric_group_character(s2, ct.parts)
                    for ct in all_cycle_types(m)
                )
                assert total == (math.factorial(m) if s1 == s2 else 0)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_dimension_agrees_with_hooks(self, m):
        ident = CycleType.identity(m)
        for shape in partitions(m):
            assert symmetric_group_character(shape, ident.parts) == irrep_dimension(shape)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_column_sums_vanish(self, m):
        # sum over shapes of dim * character is zero off the identity
        for ct in all_cycle_types(m):
            total = sum(
                irrep_dimension(s) * symmetric_group_character(s, ct.parts)
                for s in partitions(m)
            )
            expected = math.factorial(m) if ct == CycleType.identity(m) else 0
            assert total == expected

    @pytest.mark.parametrize("m", range(1, 7))
    def test_column_orthogonality(self, m):
        # sum over shapes of chi(mu) chi(nu) is m!/class size on the
        # diagonal and zero otherwise
        for mu in all_cycle_types(m):
            for nu in all_cycle_types(m):
                total = sum(
                    symmetric_group_character(s, mu.parts)
                    * symmetric_group_character(s, nu.parts)
                    for s in partitions(m)
                )
                if mu == nu:
                    assert total == math.factorial(m) // mu.class_size()
                else:
                    assert total == 0


@lru_cache(maxsize=None)
def border_strip_character(shape, mu):
    """Border-strip recursion on sorted lists of beta-numbers: the oracle for
    the bead-mask recursion behind symmetric_group_character."""
    if not shape:
        return 1
    t = mu[0]
    rest = mu[1:]
    k = len(shape)
    beta = [shape[i] + (k - 1 - i) for i in range(k)]
    beta_set = set(beta)
    value = 0
    for i, b in enumerate(beta):
        if b < t or (b - t) in beta_set:
            continue
        height = sum(1 for c in beta if b - t < c < b)
        new_beta = sorted(beta[:i] + [b - t] + beta[i + 1 :], reverse=True)
        new_shape = tuple(
            new_beta[j] - (k - 1 - j) for j in range(k) if new_beta[j] - (k - 1 - j) > 0
        )
        sign = -1 if height % 2 else 1
        value += sign * border_strip_character(new_shape, rest)
    return value


class TestCharacterOracle:
    def test_every_pair_up_to_ten(self):
        pairs = 0
        for m in range(11):
            for shape in partitions(m):
                for ct in all_cycle_types(m):
                    expected = border_strip_character(shape, ct.parts)
                    assert symmetric_group_character(shape, ct.parts) == expected, (
                        shape,
                        ct.parts,
                    )
                    pairs += 1
        assert pairs == 3583

    @pytest.mark.parametrize("m", [13, 14])
    def test_padded_shapes_at_the_ceiling(self, m, monkeypatch):
        monkeypatch.setenv("CONFCOHOM_MAX_M", "14")
        for size in range(7):
            for core in partitions(size):
                if core and core[0] > m - size:
                    continue
                shape = pad_core(core, m)
                for ct in all_cycle_types(m):
                    expected = border_strip_character(shape, ct.parts)
                    assert symmetric_group_character(shape, ct.parts) == expected, (
                        shape,
                        ct.parts,
                    )


class TestPadding:
    def test_pad_examples(self):
        assert pad_core((), 5) == (5,)
        assert pad_core((1,), 4) == (3, 1)
        assert pad_core((2, 1), 6) == (3, 2, 1)

    def test_pad_requires_room(self):
        with pytest.raises(ValueError):
            pad_core((3,), 5)  # needs m >= 6

    def test_unpad_inverts(self):
        for m in range(1, 8):
            for shape in partitions(m):
                core = shape[1:]
                if sum(core) + (core[0] if core else 0) <= m:
                    assert pad_core(core, m) == shape


class TestDecompose:
    def test_two_points_plane_top_degrees(self, plane):
        series = config_series(plane, 2)
        assert decompose_series(series, 4) == {(): 1}
        assert decompose_series(series, 3) == {(): 1}

    def test_zero_degree_empty(self, plane):
        series = config_series(plane, 2)
        assert decompose_series(series, 99) == {}

    def test_sign_of_odd_degree(self, plane):
        # degree 3 of the two-point series has trace -1 at both classes in
        # the alternating convention; the decomposition flips the sign back
        series = config_series(plane, 2)
        entry = series.identity_entry()
        assert entry.coeff(3) == -1

    def test_bogus_series_rejected(self):
        bogus = TraceSeries(
            2,
            {
                CycleType.identity(2): 3 * T,
                CycleType.from_parts((2,)): LaurentPoly.zero(),
            },
        )
        with pytest.raises(ConsistencyError):
            decompose_series(bogus, 1)

    def test_negative_multiplicity_rejected(self):
        # zero trace at the identity with nonzero trace on the swap forces
        # one multiplicity below zero
        bogus = TraceSeries(
            2,
            {
                CycleType.identity(2): LaurentPoly.zero(),
                CycleType.from_parts((2,)): -2 * T,
            },
        )
        with pytest.raises(ConsistencyError):
            decompose_series(bogus, 1)

    @pytest.mark.parametrize("space", FIXTURES, ids=lambda s: s.name)
    def test_dimension_bookkeeping(self, space):
        # multiplicities weighted by irreducible dimensions recover the
        # Betti numbers read off the identity entry, in every degree
        for m in range(1, 9):
            series = config_series(space, m)
            entry = series.identity_entry()
            if entry.is_zero():
                continue
            for degree in range(entry.min_exp, entry.max_exp + 1):
                mults = decompose_series(series, degree)
                total = sum(
                    mult * irrep_dimension(pad_core(core, m))
                    for core, mult in mults.items()
                )
                expected = entry.coeff(degree) * (-1 if degree % 2 else 1)
                assert total == expected


def full_pairing(series, degree):
    """The decomposition by pairing with every irreducible of S_m, shapes
    in descending lex order: the oracle for the core-by-core walk."""
    m = series.m
    sign = -1 if degree % 2 else 1
    weighted = [
        (ct.parts, ct.class_size() * sign * series[ct].coeff(degree))
        for ct in all_cycle_types(m)
    ]
    out = {}
    for shape in partitions(m):
        total = sum(w * symmetric_group_character(shape, parts) for parts, w in weighted)
        mult, rem = divmod(total, math.factorial(m))
        assert rem == 0 and mult >= 0, (shape, degree)
        if mult:
            out[shape[1:]] = mult
    return out


def stratum_bm(space, defect, m):
    """The Borel-Moore series that stability_report decomposes."""
    distinct = m - defect
    series = exactly_series(space, distinct, m)
    return borel_moore_series(series, space.dim, dual_dim=distinct * space.dim)


def assert_tables_read_the_series(space, defect, m_range):
    """stability_report's rows and Betti numbers, degrees 0 to 4, against
    decompose_series of the whole Borel-Moore series at every m."""
    reports = [stability_report(space, degree, defect, m_range) for degree in range(5)]
    for m in reports[0].table.m_values:
        series = stratum_bm(space, defect, m)
        for degree, report in enumerate(reports):
            rows = {core: row[m] for core, row in report.table.rows.items() if m in row}
            assert rows == decompose_series(series, degree), (m, degree)
            sign = -1 if degree % 2 else 1
            assert report.betti[m] == sign * series.identity_entry().coeff(degree), (m, degree)


def class_function(m, values):
    """A degree-0 series from {cycle-type parts: value}; missing classes are 0."""
    return TraceSeries(
        m,
        {
            ct: LaurentPoly.term(values.get(ct.parts, 0), 0)
            for ct in all_cycle_types(m)
        },
    )


def irreducible_sum(m, coefficients):
    """The class function sum c * chi_shape over {shape: c}."""
    return class_function(
        m,
        {
            ct.parts: sum(
                c * symmetric_group_character(shape, ct.parts)
                for shape, c in coefficients.items()
            )
            for ct in all_cycle_types(m)
        },
    )


def assert_same_decomposition(series, degree):
    got = decompose_series(series, degree)
    assert list(got.items()) == list(full_pairing(series, degree).items())


class TestDecomposeOracle:
    @pytest.mark.parametrize("defect", [0, 1, 2])
    @pytest.mark.parametrize("space", FIXTURES, ids=lambda s: s.name)
    def test_strata_up_to_ten(self, space, defect):
        for m in range(defect + 1, 11):
            series = stratum_bm(space, defect, m)
            for degree in range(5):
                assert_same_decomposition(series, degree)

    @pytest.mark.parametrize("m", [13, 14])
    @pytest.mark.parametrize("space", FIXTURES, ids=lambda s: s.name)
    def test_strata_at_the_cap_ceiling(self, monkeypatch, space, m):
        monkeypatch.setenv("CONFCOHOM_MAX_M", "14")
        for defect in range(3):
            series = stratum_bm(space, defect, m)
            for degree in range(5):
                assert_same_decomposition(series, degree)

    @pytest.mark.parametrize("space", FIXTURES, ids=lambda s: s.name)
    def test_compact_support_series(self, space):
        # every degree of the configuration series, m = 0 included
        for m in range(0, 8):
            series = config_series(space, m)
            for degree in range(m * space.dim + 1):
                assert_same_decomposition(series, degree)

    @pytest.mark.parametrize("defect", [0, 1, 2])
    @pytest.mark.parametrize("space", FIXTURES, ids=lambda s: s.name)
    def test_stability_tables_up_to_ten(self, space, defect):
        assert_tables_read_the_series(space, defect, (1, 10))

    @pytest.mark.parametrize("m", [13, 14])
    @pytest.mark.parametrize("space", FIXTURES, ids=lambda s: s.name)
    def test_stability_tables_at_the_cap_ceiling(self, monkeypatch, space, m):
        monkeypatch.setenv("CONFCOHOM_MAX_M", "14")
        for defect in range(3):
            assert_tables_read_the_series(space, defect, (m, m))

    def test_empty_symmetric_group(self):
        assert decompose_series(class_function(0, {(): 3}), 0) == {(): 3}
        assert decompose_series(class_function(0, {}), 0) == {}

    def test_induced_modules(self):
        # permutation modules on the blocks: large cores, many shapes
        for m in range(2, 9):
            for blocks in range(1, m + 1):
                trivial = TraceSeries(blocks, {ct: ONE for ct in all_cycle_types(blocks)})
                assert_same_decomposition(induce_blocks(trivial, m), 0)


class TestDecomposeCertificate:
    """Corrupted class functions must raise, whichever check catches them."""

    @pytest.mark.parametrize("delta", [1, -1])
    @pytest.mark.parametrize("parts", [ct.parts for ct in all_cycle_types(5)])
    def test_one_class_value_off_by_one(self, plane, parts, delta):
        degree = 1
        series = stratum_bm(plane, 0, 5)
        assert decompose_series(series, degree)  # the true series decomposes
        ct = CycleType.from_parts(parts, 5)
        shift = LaurentPoly.term(delta, degree)
        corrupted = TraceSeries(
            5, {c: v + shift if c == ct else v for c, v in series.values.items()}
        )
        # the first shape's pairing is off by class size / 5!, never an integer
        with pytest.raises(ConsistencyError, match="non-integer"):
            decompose_series(corrupted, degree)

    def test_negative_multiplicity_before_the_sum_closes(self):
        virtual = irreducible_sum(4, {(4,): -1, (3, 1): 1})
        with pytest.raises(ConsistencyError, match="negative multiplicity -1"):
            decompose_series(virtual, 0)

    def test_zero_identity_with_nonzero_values_elsewhere(self):
        with pytest.raises(ConsistencyError, match="give"):
            decompose_series(class_function(3, {(3,): 3}), 0)

    def test_negative_identity_value(self):
        minus_trivial = class_function(4, {ct.parts: -1 for ct in all_cycle_types(4)})
        with pytest.raises(ConsistencyError, match="negative Betti"):
            decompose_series(minus_trivial, 0)

    def test_virtual_character_closing_at_the_first_core(self):
        # dimensions 1 + 3 - 3: the trivial shape alone closes the sum, so
        # only the reconstruction sees the other two constituents
        virtual = irreducible_sum(4, {(4,): 1, (2, 1, 1): 1, (3, 1): -1})
        assert decompose_series(irreducible_sum(4, {(4,): 1}), 0) == {(): 1}
        with pytest.raises(ConsistencyError, match="give"):
            decompose_series(virtual, 0)

    def test_overshoot(self):
        # dimensions 3 - 2 = 1, but the first nonzero shape brings 3
        virtual = irreducible_sum(4, {(3, 1): 1, (1, 1, 1, 1): -2})
        with pytest.raises(ConsistencyError, match="overshoot"):
            decompose_series(virtual, 0)

    def test_cores_run_out(self, monkeypatch):
        monkeypatch.setattr(repstab, "irrep_dimension", lambda shape: 0)
        with pytest.raises(ConsistencyError, match="ran out"):
            decompose_series(irreducible_sum(4, {(3, 1): 1}), 0)

    def test_cap_checked_at_entry(self, monkeypatch):
        series = irreducible_sum(4, {(4,): 1})
        monkeypatch.setenv("CONFCOHOM_MAX_M", "3")
        with pytest.raises(CostCapExceeded):
            decompose_series(series, 0)


class TestWorkCount:
    def test_stability_table_evaluates_few_characters(self, plane):
        # the full pairing needs 12,648 character evaluations here;
        # decompose_series calls the bead-mask recursion directly
        repstab._character.cache_clear()
        stability_report(plane, 1, 0, (1, 12))
        assert 0 < repstab._character.cache_info().misses <= 1000

    def test_stability_table_builds_one_factor_table(self, monkeypatch):
        # d * x <= 7 for the top stratum, m = 9 with defect 2: 7 kernels, one
        # prefix pass each, and 7 + 3 + 2 + 1 + 1 + 1 + 1 kernel steps for the
        # whole window, where a falling product per (d, x) would take 41
        calls = {"_divisor_kernel": 0, "falling_prefixes": 0, "falling_product": 0, "_mul_row": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("_divisor_kernel", "falling_prefixes", "falling_product"):
            counted(charseries, name)
        counted(polyarith, "_mul_row")
        plane_a2 = SpaceSpec("plane_a2", LaurentPoly({1: 2, 2: 1}), 2, True)
        stability_report(plane_a2, 2, 2, (1, 9))
        assert calls == {
            "_divisor_kernel": 7, "falling_prefixes": 7, "falling_product": 0, "_mul_row": 16
        }


class TestPieri:
    def test_single_row_inductions_are_multiplicity_free(self):
        # inducing the trivial character from two-block stabilizers adds
        # one box to each of m-2 distinct columns of the one-row diagram
        for m in range(3, 7):
            trivial = TraceSeries(
                m - 1, {ct: ONE for ct in all_cycle_types(m - 1)}
            )
            induced = induce_blocks(trivial, m)
            mults = decompose_series(induced, 0)
            expected_cores = {(), (1,), (2,)}
            assert set(mults) == {c for c in expected_cores if sum(c) + (c[0] if c else 0) <= m}
            assert all(v == 1 for v in mults.values())

    def test_block_induction_counts_diagrams(self):
        # the multiplicity of the trivial representation in the full block
        # induction equals the number of diagram shapes: one per orbit
        for m in range(2, 7):
            for blocks in range(1, m + 1):
                trivial = TraceSeries(
                    blocks, {ct: ONE for ct in all_cycle_types(blocks)}
                )
                induced = induce_blocks(trivial, m)
                mults = decompose_series(induced, 0)
                assert mults.get((), 0) == sum(1 for p in partitions(m) if len(p) == blocks)
                total = sum(
                    mult * irrep_dimension(pad_core(core, m))
                    for core, mult in mults.items()
                )
                assert total == len(__import__("confcohom").set_partitions(m, blocks))


class TestBorelMoore:
    def test_two_points_plane(self, plane):
        series = config_series(plane, 2)
        bm = borel_moore_series(series, 2)
        assert bm.identity_entry() == 1 - T

    def test_even_dimension_is_untwisted_inversion(self, plane):
        series = config_series(plane, 3)
        bm = borel_moore_series(series, 2)
        for ct in all_cycle_types(3):
            expected = LaurentPoly({6 - e: v for e, v in series[ct].items()})
            assert bm[ct] == expected

    def test_odd_dimension_twists_by_sign(self, three_space):
        series = config_series(three_space, 2)
        bm = borel_moore_series(series, 3)
        swap = CycleType.from_parts((2,))
        expected = LaurentPoly({6 - e: swap.sign() * v for e, v in series[swap].items()})
        assert bm[swap] == expected

    @pytest.mark.parametrize("space", FIXTURES, ids=lambda s: s.name)
    def test_involution(self, space):
        for m in range(1, 6):
            series = config_series(space, m)
            twice = borel_moore_series(
                borel_moore_series(series, space.dim), space.dim
            )
            assert twice == series


class TestStabilityReport:
    def test_plane_degree_zero(self, plane):
        report = stability_report(plane, 0, 0, (1, 8))
        assert report.table.rows == {(): {m: 1 for m in range(1, 9)}}
        assert report.monotone_ok and report.constant_ok

    def test_plane_degree_one_rows(self, plane):
        report = stability_report(plane, 1, 0, (1, 10))
        stable = {core: row[10] for core, row in report.table.rows.items()}
        assert stable == {(): 1, (1,): 1, (2,): 1}
        assert report.monotone_ok
        assert report.constant_ok
        assert report.stable_from == 4
        assert report.betti[10] == 45
        assert report.poly_degree == 2

    def test_plane_degree_two(self, plane):
        report = stability_report(plane, 2, 0, (1, 10))
        assert report.monotone_ok and report.constant_ok
        assert report.stable_from == 8

    def test_three_space_bounds(self, three_space):
        for degree in (0, 1, 2):
            report = stability_report(three_space, degree, 0, (1, 10))
            assert report.stable_from == 2 * degree
            assert report.monotone_ok and report.constant_ok

    def test_defect_one_plane(self, plane):
        report = stability_report(plane, 1, 1, (2, 8))
        assert report.monotone_ok
        assert report.stable_from == 8

    def test_hypothesis_gates(self, klein, line):
        with pytest.raises(HypothesisViolation):
            stability_report(klein, 0, 0, (1, 4))
        with pytest.raises(HypothesisViolation):
            stability_report(line, 0, 0, (1, 4))  # dim >= 2 required

    @pytest.mark.parametrize("defect", [0, 1, 2])
    def test_betti_against_stratum_polynomial(self, plane, defect):
        # the report's Betti numbers must match the dual coefficient of the
        # stratum Poincaré polynomial, computed by a different module with
        # no series machinery at all
        from confcohom import poincare_exactly

        degree = 1
        report = stability_report(plane, degree, defect, (defect + 1, 7))
        for m, betti in report.betti.items():
            distinct = m - defect
            direct = poincare_exactly(plane, distinct, m)
            assert betti == direct.coeff(distinct * plane.dim - degree), (m, defect)

    def test_range_past_the_cap_is_refused_before_any_m(self, plane, monkeypatch):
        def computed(*_args):
            raise AssertionError("an m was computed")

        monkeypatch.setattr(charseries, "_factor_table", computed)
        with pytest.raises(CostCapExceeded):
            stability_report(plane, 1, 0, (1, 3_000_000))


    @pytest.mark.parametrize("space", ["c", "cstar", "r3"])
    def test_no_verdict_stands_on_fewer_than_two_points(self, space):
        # every window of every degree and defect below 3: a verdict named
        # from N compares the table's m >= N, at least two of them
        space = BUILTIN_SPACES[space]
        for degree in range(3):
            for defect in range(3):
                for lo, hi in [(1, 12), (1, 8), (5, 9), (9, 12), (12, 12)]:
                    report = stability_report(space, degree, defect, (lo, hi))
                    for name, _passed in report.verdicts():
                        bound = int(name.rsplit("-", 1)[1])
                        window = [m for m in report.table.m_values if m >= bound]
                        assert len(window) >= 2, (degree, defect, lo, hi, name)

    def test_a_degree_past_the_window_is_no_failure(self, plane, monkeypatch):
        # c(m, m - 2) = (3m - 1) C(m, 3) / 4 has degree 4, and the window from
        # m = 8 to 12 holds five points: it shows no degree, and refutes none;
        # the sixth point, m = 13, shows it
        monkeypatch.setenv("CONFCOHOM_MAX_M", "13")
        report = stability_report(plane, 2, 0, (1, 12))
        assert report.betti == {m: (3 * m - 1) * math.comb(m, 3) // 4 for m in range(1, 13)}
        assert report.poly_degree is None
        assert stability_report(plane, 2, 0, (1, 13)).poly_degree == 4

    def test_empty_and_one_point_windows_give_no_verdict(self, plane):
        # the window from 16 is empty, and the one from 12 holds m = 12 alone
        empty = stability_report(plane, 2, 2, (1, 12))
        assert [name for name, _ in empty.verdicts()] == ["monotone-from-4"]
        single = stability_report(plane, 1, 2, (1, 12))
        assert [name for name, _ in single.verdicts()] == ["monotone-from-3"]
        single.table.m_values += (13,)  # one more point past the bound
        assert [name for name, _ in single.verdicts()] == ["monotone-from-3", "constant-from-12"]


class TestUnorderedConstancy:
    def test_plane_low_degrees(self, plane):
        for degree in (0, 1):
            report = unordered_betti_constancy(plane, degree, (1, 10))
            assert report.constant_ok
            assert report.constant_value == 1
            assert report.observed_from == max(1, degree + 1 if degree else 1)

    def test_plane_higher_degrees_vanish(self, plane):
        for degree in (2, 3, 4):
            report = unordered_betti_constancy(plane, degree, (1, 10))
            assert report.constant_ok
            assert report.constant_value == 0

    def test_punctured_plane_first_value_counts_punctures(self):
        # at a single point the first Borel-Moore Betti number equals the
        # puncture count; the plateau that follows sits one higher
        for punctures in (1, 2, 3):
            space = BUILTIN_SPACES[f"c_minus_{punctures}"]
            report = unordered_betti_constancy(space, 1, (1, 8))
            assert report.values[1] == punctures
            assert report.constant_ok
            assert report.constant_value == punctures + 1

    def test_line_is_flat(self, line):
        for degree in (0, 1, 2):
            report = unordered_betti_constancy(line, degree, (1, 8))
            assert report.constant_ok

    def test_surface_with_no_top_class_vanishes(self):
        space = SpaceSpec("open-surface", LaurentPoly({1: 1}), 2, i_acyclic=True)
        for degree in (0, 1, 2):
            report = unordered_betti_constancy(space, degree, (1, 7))
            assert report.expect_zero
            assert report.constant_ok
            assert all(v == 0 for m, v in report.values.items() if m > degree)

    def test_three_dim_no_top_class_settles(self):
        space = SpaceSpec("open-3d", LaurentPoly({2: 1}), 3, i_acyclic=True)
        for degree in (0, 2, 3):
            report = unordered_betti_constancy(space, degree, (1, 7))
            assert report.observed_from is not None
            assert report.values[7] == 0

    def test_top_betti_gate(self):
        fat = SpaceSpec("fat", LaurentPoly({2: 2}), 2, i_acyclic=True)
        with pytest.raises(HypothesisViolation):
            unordered_betti_constancy(fat, 0, (1, 4))

    def test_refuses_non_acyclic(self, klein):
        with pytest.raises(HypothesisViolation):
            unordered_betti_constancy(klein, 0, (1, 4))

    def test_range_past_the_cap_is_refused_before_any_m(self, plane, monkeypatch):
        def computed(*_args):
            raise AssertionError("an m was computed")

        monkeypatch.setattr(charseries, "_config_power_sums", computed)
        with pytest.raises(CostCapExceeded):
            unordered_betti_constancy(plane, 1, (1, 3_000_000))

    @pytest.mark.parametrize(
        "name", ["c", "cstar", "c_minus_1", "c_minus_2", "c_minus_3", "r1", "r2", "r3", "r4"]
    )
    def test_values_are_the_borel_moore_class_averages(self, name):
        # the per-m average over S_m of the Borel-Moore series, which carries
        # the sign of each permutation in odd dimension (r1, r3)
        space = BUILTIN_SPACES[name]
        top = 10
        reports = [unordered_betti_constancy(space, degree, (1, top)) for degree in range(5)]
        for m in range(1, top + 1):
            bm = borel_moore_series(config_series(space, m), space.dim)
            average = quotient_poincare(bm, symmetric_counts(m), math.factorial(m))
            for degree, report in enumerate(reports):
                assert report.values[m] == average.coeff(degree), (m, degree)

    def test_values_build_no_trace_series(self, plane, monkeypatch):
        def never(*_args):
            raise AssertionError("a trace series was built")

        # config_series lists the cycle types through charseries' own name
        monkeypatch.setattr(charseries, "config_series", never)
        monkeypatch.setattr(charseries, "all_cycle_types", never)
        report = unordered_betti_constancy(plane, 1, (1, 12))
        assert report.constant_ok and report.constant_value == 1

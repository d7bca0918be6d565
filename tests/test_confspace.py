import math

import pytest

from confcohom import (
    BUILTIN_SPACES,
    HypothesisViolation,
    InputParseError,
    LaurentPoly,
    SpaceSpec,
    euler_char_config,
    poincare_at_most,
    poincare_config,
    poincare_config_ordinary,
    poincare_exactly,
    universal_poly,
)
from confcohom import combinat, confspace
from confcohom.polyarith import ONE, T

FIXTURES = [BUILTIN_SPACES[n] for n in ("r1", "r2", "r3", "c", "cstar", "c_minus_1", "c_minus_2")]


class TestSpaceSpec:
    def test_negative_coefficient_rejected(self):
        with pytest.raises(InputParseError):
            SpaceSpec("bad", LaurentPoly({1: -1}), 2, i_acyclic=True)

    def test_exponent_above_dim_rejected(self):
        with pytest.raises(InputParseError):
            SpaceSpec("bad", LaurentPoly({3: 1}), 2, i_acyclic=True)

    def test_interior_acyclic_needs_no_constant_term(self):
        with pytest.raises(InputParseError):
            SpaceSpec("bad", LaurentPoly({0: 1, 2: 1}), 2, i_acyclic=True)
        # fine when the flag is off
        SpaceSpec("ok", LaurentPoly({0: 1, 2: 1}), 2, i_acyclic=False)

    @pytest.mark.parametrize(
        "field, message",
        [
            ({"name": 1}, "name must be a string"),
            ({"pc": [0, 1]}, "pc must be a LaurentPoly"),
            ({"dim": 2.5}, "dim must be an integer"),
            ({"dim": True}, "dim must be an integer"),
            ({"i_acyclic": 1}, "i_acyclic must be a boolean"),
            ({"i_acyclic": "no", "orientable": "no"}, "i_acyclic must be a boolean"),
            ({"orientable": "no"}, "orientable must be a boolean"),
            ({"connected": None}, "connected must be a boolean"),
        ],
    )
    def test_field_types_checked_for_library_callers(self, field, message):
        fields = {"name": "x", "pc": T, "dim": 2, "i_acyclic": True, **field}
        with pytest.raises(InputParseError, match=f"^{message}$"):
            SpaceSpec(**fields)


class TestEulerChar:
    def test_plane_three_points(self, plane):
        assert euler_char_config(plane, 3) == 0  # 1*0*(-1)

    def test_single_point(self, plane):
        assert euler_char_config(plane, 1) == 1

    def test_characteristic_three(self):
        space = SpaceSpec("triple", LaurentPoly({2: 3}), 2, i_acyclic=True)
        assert euler_char_config(space, 2) == 6  # 3*2

    @pytest.mark.parametrize("space", FIXTURES, ids=lambda s: s.name)
    def test_generating_series(self, space):
        """sum_m chi_m t^m / m! must equal the binomial series (1+t)^chi.

        The right-hand side is expanded by an independent route: plain
        polynomial powers for chi >= 0, power-series inversion of
        (1+t)^(-chi) otherwise.
        """
        chi = space.euler_char()
        order = 11
        series = _binomial_series(chi, order)
        for m in range(order):
            assert euler_char_config(space, m) == series[m] * math.factorial(m)


def _binomial_series(chi: int, order: int) -> list[int]:
    if chi >= 0:
        dense = [0] * order
        poly = ONE + T  # reuse exact polynomial power
        expanded = poly**chi
        for e, v in expanded.items():
            if e < order:
                dense[e] = v
        return dense
    # invert (1+t)^(-chi) as a power series mod t^order
    base = [0] * order
    for e, v in ((ONE + T) ** (-chi)).items():
        if e < order:
            base[e] = v
    inv = [0] * order
    inv[0] = 1
    for k in range(1, order):
        inv[k] = -sum(base[j] * inv[k - j] for j in range(1, k + 1))
    return inv


class TestPoincareConfig:
    def test_plane_three(self, plane):
        assert poincare_config(plane, 3) == T**6 + 3 * T**5 + 2 * T**4

    def test_single_point_is_space(self):
        for space in FIXTURES:
            assert poincare_config(space, 1) == space.pc

    def test_line_three(self, line):
        assert poincare_config(line, 3) == 6 * T**3

    def test_empty_configuration(self, plane):
        assert poincare_config(plane, 0) == ONE

    def test_refuses_without_flag(self, klein):
        with pytest.raises(HypothesisViolation) as err:
            poincare_config(klein, 2)
        assert err.value.flag == "i_acyclic"

    @pytest.mark.parametrize("space", FIXTURES, ids=lambda s: s.name)
    def test_recurrence(self, space):
        for m in range(7):
            step = space.pc + LaurentPoly.term(m, 1)
            assert poincare_config(space, m + 1) == poincare_config(space, m) * step

    @pytest.mark.parametrize("space", FIXTURES, ids=lambda s: s.name)
    def test_nonnegative_coefficients(self, space):
        for m in range(8):
            assert poincare_config(space, m).has_nonnegative_coeffs()


class TestStrata:
    def test_at_most_everything_is_power(self, plane):
        for space in FIXTURES:
            for m in range(1, 7):
                assert poincare_at_most(space, m, m) == space.pc**m

    def test_at_most_one_is_space(self):
        for space in FIXTURES:
            for m in range(1, 7):
                assert poincare_at_most(space, 1, m) == space.pc

    def test_exactly_two_in_three(self, plane):
        assert poincare_exactly(plane, 2, 3) == 3 * (T**4 + T**3)

    def test_empty_strata(self, plane):
        assert poincare_exactly(plane, 0, 0) == ONE
        assert poincare_exactly(plane, 0, 3) == LaurentPoly.zero()

    def test_euler_additivity(self):
        # at T = -1 the alternating telescope collapses: chi of the full
        # power equals chi(X)^m
        for space in FIXTURES:
            chi = space.euler_char()
            for m in range(1, 7):
                assert poincare_at_most(space, m, m).eval_at_int(-1) == chi**m

    def test_empty_space_reads_no_stirling_number(self, monkeypatch):
        def refuse(i, j):
            raise AssertionError(f"S({i}, {j}) read for the empty space")

        monkeypatch.setattr(combinat, "stirling_second", refuse)
        monkeypatch.setattr(confspace, "stirling_second", refuse)
        empty = SpaceSpec("empty", LaurentPoly.zero(), 2, i_acyclic=True)
        for distinct in (1, 2, 7):
            assert poincare_exactly(empty, distinct, 10**9) == 0
            assert poincare_at_most(empty, distinct, 10**9) == 0
        assert poincare_exactly(empty, 0, 0) == ONE

    def test_refusal(self, klein):
        with pytest.raises(HypothesisViolation):
            poincare_exactly(klein, 2, 3)
        with pytest.raises(HypothesisViolation):
            poincare_at_most(klein, 2, 3)


class TestUniversalPolynomials:
    def test_reference_table_m6(self):
        # all six closed-stratum polynomials for m = 6, exact
        expected = {
            1: {(1, 0): 1},
            2: {(2, 0): 31, (1, 1): 30},
            3: {(3, 0): 90, (2, 1): 239, (1, 2): 150},
            4: {(4, 0): 65, (3, 1): 300, (2, 2): 476, (1, 3): 240},
            5: {(5, 0): 15, (4, 1): 85, (3, 2): 225, (2, 3): 274, (1, 4): 120},
            6: {(6, 0): 1},
        }
        for distinct, coeffs in expected.items():
            q = universal_poly(distinct, 6, closed=True)
            assert dict(q.items()) == coeffs, distinct

    def test_first_row_any_m(self):
        for m in range(1, 9):
            assert dict(universal_poly(1, m, True).items()) == {(1, 0): 1}

    def test_top_row_is_pure_power(self):
        for m in range(1, 9):
            assert dict(universal_poly(m, m, True).items()) == {(m, 0): 1}

    def test_homogeneous(self):
        for m in range(1, 8):
            for distinct in range(1, m + 1):
                for closed in (False, True):
                    assert universal_poly(distinct, m, closed).is_homogeneous(distinct)

    def test_deep_closed_polynomial(self):
        # S(m,3) P(P+T)(P+2T) - S(m,2) P(P+T) T + S(m,1) P T^2 at m = 1500,
        # far past the interpreter's recursion limit
        m = 1500
        s3, s2 = (3**m - 3 * 2**m + 3) // 6, 2 ** (m - 1) - 1
        q = universal_poly(3, m, True)
        assert dict(q.items()) == {(3, 0): s3, (2, 1): 3 * s3 - s2, (1, 2): 2 * s3 - s2 + 1}

    def test_reads_the_explicit_count_not_the_table(self, monkeypatch):
        # the strata routes read the table; their check must not
        def never(i, j):
            raise AssertionError("universal_poly read the Stirling table")

        monkeypatch.setattr(combinat, "stirling_second", never)
        monkeypatch.setattr(confspace, "stirling_second", never)
        q = universal_poly(3, 6, closed=True)
        assert dict(q.items()) == {(3, 0): 90, (2, 1): 239, (1, 2): 150}

    @pytest.mark.parametrize("space", FIXTURES, ids=lambda s: s.name)
    def test_evaluation_matches_direct(self, space):
        for m in range(1, 9):
            for distinct in range(1, m + 1):
                open_q = universal_poly(distinct, m, False)
                closed_q = universal_poly(distinct, m, True)
                assert open_q.eval_P(space.pc) == poincare_exactly(space, distinct, m)
                assert closed_q.eval_P(space.pc) == poincare_at_most(space, distinct, m)


class TestOrdinary:
    def test_plane_three(self, plane):
        assert poincare_config_ordinary(plane, 3) == (1 + T) * (1 + 2 * T)

    def test_single_point_duality(self):
        for space in FIXTURES:
            assert poincare_config_ordinary(space, 1) == space.pc.dual(space.dim)

    def test_two_points_in_three_space(self, three_space):
        # configuration of 2 points in 3-space retracts to a 2-sphere
        assert poincare_config_ordinary(three_space, 2) == 1 + T**2

    def test_first_betti_is_choose_two(self, plane):
        for m in range(1, 11):
            assert poincare_config_ordinary(plane, m).coeff(1) == math.comb(m, 2)

    def test_refuses_nonorientable(self, klein):
        with pytest.raises(HypothesisViolation):
            poincare_config_ordinary(klein, 2)

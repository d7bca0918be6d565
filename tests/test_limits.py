"""The size estimates of :mod:`confcohom.limits`: the closed-form digit
bound never passes the answer it bounds, and the closed-form and
trace-series work budgets admit and refuse at the edges the README names."""

import sys

import pytest

from confcohom import BUILTIN_SPACES, LaurentPoly, confspace, strata
from confcohom.errors import CostCapExceeded
from confcohom.limits import (
    answer_digits,
    check_closed_form,
    check_series,
    closed_form_work,
    coefficient_words,
    pc_weight,
)

_EMPTY = LaurentPoly.zero()
_PLANE = BUILTIN_SPACES["c"].pc


@pytest.fixture
def no_digit_limit(monkeypatch):
    """An interpreter with no int-to-str limit: 0, as before 3.10.7 or with
    PYTHONINTMAXSTRDIGITS=0."""
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)


@pytest.fixture
def digit_limit_4300(monkeypatch):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)


def _largest(poly) -> int:
    return max(abs(value) for _exp, value in poly.items())


class TestDigitBound:
    """``answer_digits`` is a lower bound on the longest coefficient."""

    @pytest.mark.parametrize("name", ["c", "cstar", "r1", "r3", "c_minus_3"])
    def test_config_digit_bound_is_a_lower_bound(self, name):
        space = BUILTIN_SPACES[name]
        assert answer_digits(0, 0) == 1
        for m in (1, 2, 3, 17, 64, 250):
            poly = confspace.poincare_config(space, m)
            assert answer_digits(m, m) <= len(str(_largest(poly))), m

    @pytest.mark.parametrize("name", ["c", "cstar", "r1", "r3", "c_minus_3"])
    def test_stratum_digit_bound_is_a_lower_bound(self, name):
        space = BUILTIN_SPACES[name]
        for m, l in [(1, 1), (9, 1), (9, 2), (40, 3), (40, 39), (200, 2), (200, 7), (90, 60)]:
            poly = strata.poincare_exactly(space, l, m)
            assert answer_digits(m, l) <= len(str(_largest(poly))), (m, l)

    @pytest.mark.parametrize(
        "pc, top_m",
        [
            # degree 1: every stratum sits in degree l, so the sum may cancel
            ({1: 1}, 40), ({1: 2}, 40), ({1: 3}, 40),
            # degree >= 2: the top coefficient is S(m, l) lc(pc)^l
            ({2: 1}, 20), ({1: 1, 2: 1}, 20), ({1: 3, 2: 1}, 20), ({3: 1}, 20),
            ({1: 1, 3: 2}, 20), ({2: 3, 4: 1}, 20),
        ],
    )
    def test_closed_stratum_digit_bound_is_a_lower_bound(self, pc, top_m):
        space = confspace.SpaceSpec("grid", LaurentPoly(pc), max(pc), True)
        for m in range(1, top_m + 1):
            for l in range(1, m + 1):
                poly = strata.poincare_at_most(space, l, m)
                assert answer_digits(m, l, closed=True) <= len(str(_largest(poly))), (m, l)

    @pytest.mark.parametrize("closed", [False, True])
    def test_universal_digit_bound_is_a_lower_bound(self, closed):
        for m, l in [(1, 1), (9, 1), (9, 2), (40, 3), (40, 39), (200, 2), (60, 60)]:
            q = strata.universal_poly(l, m, closed)
            assert answer_digits(m, l, closed=closed) <= len(str(_largest(q))), (m, l)

    @pytest.mark.parametrize("name", ["c", "cstar", "r1", "c_minus_3"])
    def test_exact_factorial_bound_is_a_lower_bound(self, name):
        space = BUILTIN_SPACES[name]
        for m in (1, 2, 17, 250, 600):
            poly = confspace.poincare_config(space, m)
            bound = answer_digits(m, m, False, space.pc, True)
            assert answer_digits(m, m, False, space.pc) <= bound <= len(str(_largest(poly))), m

    @pytest.mark.parametrize(
        "pc", [{1: 10**30, 2: 1}, {2: 10**30}, {1: 7, 3: 10**20}, {1: 2**70}, {2: 5, 4: 3}]
    )
    def test_digit_bound_reading_the_coefficients_is_a_lower_bound(self, pc):
        space = confspace.SpaceSpec("big", LaurentPoly(pc), max(pc), True)
        for m, l in [(1, 1), (5, 1), (5, 3), (12, 12), (30, 7), (40, 40)]:
            poly = strata.poincare_exactly(space, l, m)
            for exact in (False, True):
                assert answer_digits(m, l, False, space.pc, exact) <= len(str(_largest(poly)))
            poly = strata.poincare_at_most(space, l, m)
            assert answer_digits(m, l, True, space.pc) <= len(str(_largest(poly))), (m, l)

    def test_the_digit_bound_reads_the_coefficients(self):
        # lc(pc)^l for every open answer; b^l when pc's lowest term is b T;
        # lc(pc)^l for the closed sum only when deg pc >= 2
        huge = 10**1000
        assert answer_digits(1500, 1500, False, LaurentPoly({2: huge})) > 1_490_000
        assert answer_digits(1500, 1500, False, LaurentPoly({1: huge, 2: 1})) > 1_490_000
        assert answer_digits(600, 300, True, LaurentPoly({2: huge})) > 298_000
        assert answer_digits(600, 300, True, LaurentPoly({1: huge})) == answer_digits(600, 300, True)
        assert answer_digits(600, 300, False, LaurentPoly({1: 1, 2: 1})) == answer_digits(600, 300)

    def test_no_digit_limit_refuses_nothing(self, no_digit_limit):
        # S(999998, 2) has about 301,000 digits, within the work budget
        for pc in (_PLANE, None):
            check_closed_form(999_998, 2, pc)
            check_closed_form(999_998, 2, pc, closed=True)
        check_closed_form(2000, None, _PLANE)

    def test_the_digit_bound_comes_before_the_work(self, digit_limit_4300):
        with pytest.raises(CostCapExceeded, match="int-to-str limit of 4300 digits"):
            check_closed_form(10**9, 10**9, _PLANE)


def _refuses_work(m, l, pc, closed=False):
    with pytest.raises(CostCapExceeded, match=r"^strata work is capped at 2000000 big-integer"):
        check_closed_form(m, l, pc, closed)


class TestWorkEstimate:
    """The estimate's work budget, STRATA_WORK_BUDGET big-integer steps."""

    @pytest.mark.parametrize("pc", [_PLANE, _EMPTY, None], ids=["plane", "empty", "universal"])
    @pytest.mark.parametrize(
        "l, m",
        # delta_le and universal --closed at (700, 1500), CI's (300, 600), the
        # most the budget admits at l = m, and one block, which sweeps nothing
        [(700, 1500), (300, 600), (1000, 1000), (1, 10**9)],
    )
    def test_the_budget_admits(self, digit_limit_4300, l, m, pc):
        check_closed_form(m, l, pc, closed=True)

    @pytest.mark.parametrize("pc", [_PLANE, _EMPTY, None], ids=["plane", "empty", "universal"])
    @pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
    def test_strata_past_the_budget_are_refused(self, no_digit_limit, closed, pc):
        _refuses_work(1001, 1001, pc, closed)
        _refuses_work(10**9, 10**9, pc, closed)

    def test_config_without_a_digit_limit(self, no_digit_limit):
        # the falling product takes m(m - 1)/2 steps: 1,999,000 at m = 2000
        check_closed_form(2000, None, _PLANE)
        _refuses_work(2001, None, _PLANE)
        _refuses_work(10**9, None, _PLANE)

    def test_each_step_weighs_the_words_of_the_largest_coefficient(self, no_digit_limit):
        # weight 1 below 2^64; fm at m = 1414 takes 999,091 steps, 1,998,182 at weight 2
        check_closed_form(2000, None, LaurentPoly({1: 1, 2: 2**64 - 1}))
        _refuses_work(2000, None, LaurentPoly({1: 2**64, 2: 1}))
        check_closed_form(1414, None, LaurentPoly({2: 2**64}))
        _refuses_work(1415, None, LaurentPoly({2: 2**64}))
        _refuses_work(600, 300, LaurentPoly({1: 10**1000, 2: 1}), closed=True)
        check_closed_form(5, 2, LaurentPoly({1: 10**1000, 2: 1}), closed=True)

    def test_the_message_names_the_estimate(self):
        with pytest.raises(CostCapExceeded) as refused:
            check_closed_form(1001, 1001, _EMPTY)
        assert str(refused.value) == (
            "strata work is capped at 2000000 big-integer steps; "
            "l = 1001, m = 1001 needs about 2004002"
        )


_HUGE = LaurentPoly({1: 10**4000, 2: 10**4000})


class TestSeriesWork:
    """``check_series``: the cap, then p(m) * m^2 * w^2 word products against
    SERIES_WORK_BUDGET, with w the words of pc's largest coefficient."""

    def test_the_weight_is_one_below_two_to_the_64(self):
        assert coefficient_words(_EMPTY) == coefficient_words(_PLANE) == 1
        assert coefficient_words(LaurentPoly({1: 2**64 - 1, 3: 5})) == 1
        assert coefficient_words(LaurentPoly({2: 2**64})) == 2
        assert coefficient_words(LaurentPoly({1: 10**1000})) == 52
        assert coefficient_words(_HUGE) == 208

    def test_no_space_below_two_to_the_64_is_refused(self, monkeypatch):
        monkeypatch.setenv("CONFCOHOM_MAX_M", "14")
        widest = LaurentPoly({e: 2**64 - 1 for e in range(1, 40)})
        for m in range(15):
            check_series(m, widest)

    @pytest.mark.parametrize("m", [8, 10, 12])
    def test_huge_betti_numbers_are_refused(self, monkeypatch, m):
        monkeypatch.delenv("CONFCOHOM_MAX_M", raising=False)
        with pytest.raises(CostCapExceeded, match=r"^trace-series work is capped at 40000000"):
            check_series(m, _HUGE)

    def test_the_budget_admits_the_sizes_that_answer_within_a_second(self, monkeypatch):
        # 10^1000 at m = 12 (0.6 s for character --all); 10^4000 at m = 6
        monkeypatch.delenv("CONFCOHOM_MAX_M", raising=False)
        check_series(12, LaurentPoly({1: 10**1000, 2: 10**1000}))
        check_series(6, _HUGE)

    def test_the_cap_comes_first(self, monkeypatch):
        monkeypatch.delenv("CONFCOHOM_MAX_M", raising=False)
        for m in (13, 10**9):
            with pytest.raises(CostCapExceeded, match="cycle-type computations are capped"):
                check_series(m, _HUGE)

    def test_the_message_names_the_estimate(self, monkeypatch):
        monkeypatch.delenv("CONFCOHOM_MAX_M", raising=False)
        with pytest.raises(CostCapExceeded) as refused:
            check_series(12, _HUGE)
        assert str(refused.value) == (
            "trace-series work is capped at 40000000 word products; "
            "m = 12 on Betti numbers of 208 words, pc weight 208, needs about 479711232"
        )


_ONES = LaurentPoly({e: 1 for e in range(1, 201)})  # 200 Betti numbers of 1
_GAPPED = LaurentPoly({1: 1, 200: 1})  # T + T^200


class TestPcWeight:
    """``pc_weight``: the words of pc's largest coefficient times the terms t
    and the exponent span s of the row pc + kT, t * s less 6, at least 1."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_SPACES))
    def test_every_built_in_space_weighs_one(self, name):
        assert pc_weight(BUILTIN_SPACES[name].pc) == 1

    @pytest.mark.parametrize("a", [0, 1, 3, 2**64 - 1])
    def test_the_planes_weigh_one(self, a):
        assert pc_weight(LaurentPoly({1: a, 2: 1})) == 1

    @pytest.mark.parametrize(
        "pc, weight",
        [
            (_EMPTY, 1),  # the row kT
            ({0: 1}, 1),  # a point: 1 + kT
            ({4: 1}, 1),  # kT + T^4, t * s = 6
            ({1: 1, 2: 1, 3: 1}, 1),  # t * s = 6
            ({5: 1}, 2),  # kT + T^5, t * s = 8
            ({2: 1, 3: 1, 4: 1}, 6),  # t * s = 12
            ({1: 2**64, 5: 1}, 4),  # two words times shape 2
            (_GAPPED, 392),
            (_ONES, 39794),
        ],
    )
    def test_weight_edges(self, pc, weight):
        assert pc_weight(LaurentPoly(pc) if isinstance(pc, dict) else pc) == weight

    def test_closed_form_work_is_weighed(self):
        assert closed_form_work(2000, None, _PLANE) == 1_999_000
        assert closed_form_work(2000, None, _EMPTY) == 0
        assert closed_form_work(600, 300, None) == 270_000
        assert closed_form_work(600, 300, _ONES) == 270_000 * 39794
        assert closed_form_work(102, None, _GAPPED) == 5151 * 392

    def test_the_gapped_falling_product_at_the_edge(self, no_digit_limit):
        # 101 * 100 / 2 * 392 = 1,979,600 steps; 102 * 101 / 2 * 392 = 2,019,192
        check_closed_form(101, None, _GAPPED)
        _refuses_work(102, None, _GAPPED)
        _refuses_work(1500, None, _GAPPED)

    def test_long_betti_numbers_weigh_the_series(self, monkeypatch):
        # p(6) * 36 * 39794 = 15,758,424; p(8) * 64 * 39794 = 56,029,952
        monkeypatch.delenv("CONFCOHOM_MAX_M", raising=False)
        check_series(6, _ONES)
        with pytest.raises(CostCapExceeded, match=r"^trace-series work is capped"):
            check_series(8, _ONES)
        check_series(12, _GAPPED)

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confcohom import BiPoly, ConsistencyError, LaurentPoly, falling_product
from confcohom.polyarith import ONE, P_VAR, T, T_VAR, falling_prefixes, format_terms


def lp(pairs):
    return LaurentPoly(dict(pairs))


# Random Laurent polynomials with small support, possibly negative exponents.
laurents = st.dictionaries(
    st.integers(min_value=-6, max_value=8),
    st.integers(min_value=-50, max_value=50),
    max_size=6,
).map(LaurentPoly)


small_laurents = st.dictionaries(
    st.integers(min_value=-3, max_value=4),
    st.integers(min_value=-6, max_value=6),
    max_size=4,
).map(LaurentPoly)


def reference_falling_product(f, g, n):
    """Schoolbook product of the factors f - g*i on exponent dicts."""
    product = {0: 1}
    for i in range(n):
        factor = dict(f.items())
        for e, v in g.items():
            factor[e] = factor.get(e, 0) - i * v
        step = {}
        for e1, v1 in product.items():
            for e2, v2 in factor.items():
                step[e1 + e2] = step.get(e1 + e2, 0) + v1 * v2
        product = step
    return LaurentPoly(product)


class TestRingOps:
    def test_monomial_product(self):
        assert T**2 * T == T**3

    def test_cancellation(self):
        assert (T**2 + T) + (T**2 - T) == 2 * T**2

    def test_expand_product(self):
        assert (T**2 + T) * (T**2 + 2 * T) == T**4 + 3 * T**3 + 2 * T**2

    def test_zero_is_canonical(self):
        assert (T - T).is_zero()
        assert lp({}) == LaurentPoly.zero()
        assert lp({3: 0}) == LaurentPoly.zero()

    def test_int_coercion(self):
        assert T + 1 == lp({0: 1, 1: 1})
        assert 2 - T == lp({0: 2, 1: -1})
        assert 3 * T == lp({1: 3})

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: LaurentPoly.zero().min_exp, ValueError, "zero polynomial has no valuation"),
            (lambda: LaurentPoly.zero().max_exp, ValueError, "zero polynomial has no degree"),
            (lambda: T**-1, ValueError, "negative powers are not defined"),
            (lambda: LaurentPoly.term(1, -1).eval_at_int(2), ValueError,
             "cannot evaluate negative exponent"),
            (lambda: T.divexact(0), ZeroDivisionError, "divexact by zero"),
        ],
        ids=["min_exp", "max_exp", "negative-power", "eval-negative-exponent", "divexact-zero"],
    )
    def test_argument_guards(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    @given(laurents, laurents, laurents)
    @settings(max_examples=60)
    def test_ring_axioms(self, f, g, h):
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h

    @given(laurents)
    def test_additive_inverse(self, f):
        assert (f - f).is_zero()
        assert -(-f) == f


class TestIntEntries:
    @pytest.mark.parametrize(
        "coeffs", [{2: 0.5}, {2: 2.0}, {0.5: 1}, {1: True}, {True: 1}, {"1": 1}], ids=repr
    )
    def test_laurent_refuses_non_int_entries(self, coeffs):
        with pytest.raises(TypeError, match="^LaurentPoly entry "):
            LaurentPoly(coeffs)

    @pytest.mark.parametrize(
        "coeffs", [{(1, 0): 0.5}, {(1.0, 0): 1}, {(0, True): 1}, {(0, 1): False}], ids=repr
    )
    def test_bipoly_refuses_non_int_entries(self, coeffs):
        with pytest.raises(TypeError, match="^BiPoly entry "):
            BiPoly(coeffs)


class TestSubstitutions:
    def test_exponent_doubling(self):
        assert (T**2 + T).substitute(2) == T**4 + T**2

    def test_sign_substitution(self):
        assert (T**2 + T).negate_var() == T**2 - T

    def test_odd_exponent_negation(self):
        assert (T**3).negate_var().substitute(3) == -(T**9)

    def test_zero_exponent_rejected(self):
        with pytest.raises(ValueError):
            T.substitute(0)

    @given(laurents, st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=40)
    def test_substitution_composes(self, f, e1, e2):
        assert f.substitute(e1).substitute(e2) == f.substitute(e1 * e2)

    def test_negate_var_parity(self):
        f = T**6 + 3 * T**5 + 2 * T**4
        assert f.negate_var() == T**6 - 3 * T**5 + 2 * T**4

    @given(laurents)
    def test_negate_var_involution(self, f):
        assert f.negate_var().negate_var() == f


class TestFallingProduct:
    def test_rising_configuration_product(self):
        # prod_{i<3} (T^2 + i T)
        assert falling_product(T**2, -T, 3) == T**6 + 3 * T**5 + 2 * T**4

    def test_integer_falling_factorial(self):
        assert falling_product(LaurentPoly.term(3, 0), ONE, 3) == LaurentPoly.term(6, 0)

    def test_empty_product(self):
        assert falling_product(T**5, T, 0) == ONE

    @given(laurents, laurents, st.integers(0, 5))
    @settings(max_examples=40)
    def test_recurrence(self, f, g, n):
        assert falling_product(f, g, n + 1) == falling_product(f, g, n) * (f - g * n)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            falling_product(T, ONE, -1)

    @given(st.data())
    @settings(max_examples=150)
    def test_matches_sparse_reference(self, data):
        n = data.draw(st.integers(0, 12), label="n")
        g = data.draw(
            st.one_of(
                st.integers(-4, 4).map(lambda c: LaurentPoly.term(c, 0)),
                st.builds(LaurentPoly.term, st.integers(-4, 4), st.integers(-3, 4)),
                small_laurents,
            ),
            label="g",
        )
        f = data.draw(small_laurents, label="f")
        if n and data.draw(st.booleans(), label="vanishing"):
            # f - g*j = 0 for some j < n, plus possibly more factors after it
            f = g * data.draw(st.integers(0, n - 1), label="j")
        product = falling_product(f, g, n)
        assert product == reference_falling_product(f, g, n)
        assert all(type(e) is int and type(v) is int and v for e, v in product.items())

    @pytest.mark.parametrize(
        "f, g",
        [
            (3 * T**2, ONE),  # one-term rows, general loop
            (2 * T + T**2, -T),  # two terms, monic
            (2 * T + 3 * T**2, -T),  # two terms, not monic
            (ONE + 2 * T - 3 * T**2, T),  # three terms, general loop
            (LaurentPoly.term(1, -2) + T + T**3, 2 * T**2),  # gapped rows
        ],
    )
    def test_every_row_shape_matches_reference(self, f, g):
        for n in range(7):
            assert falling_product(f, g, n) == reference_falling_product(f, g, n)

    def test_vanishing_factor_gives_zero(self):
        assert falling_product(LaurentPoly.term(3, -1), LaurentPoly.term(1, -1), 5).is_zero()
        assert falling_product(LaurentPoly.zero(), LaurentPoly.zero(), 1).is_zero()
        assert falling_product(LaurentPoly.zero(), LaurentPoly.zero(), 0) == ONE

    def test_deep_punctured_plane_product(self):
        # prod_{i<m} (aT + T^2 + iT): the configuration product of the plane
        # with a punctures, deep enough to need big-integer coefficients
        a, m = 3, 1500
        product = falling_product(a * T + T**2, -T, m)
        rising = 1
        for i in range(m):
            rising *= a + i
        assert product.eval_at_int(1) == rising * (a + m) // a
        assert product.max_exp == 2 * m and product.coeff(2 * m) == 1
        assert product.min_exp == m and product.coeff(m) == rising
        assert len(product.support()) == m + 1


class TestFallingPrefixes:
    """One pass of the kernel yields every prefix of the falling product."""

    @given(st.data())
    @settings(max_examples=150)
    def test_every_prefix_is_the_falling_product(self, data):
        n = data.draw(st.integers(0, 10), label="n")
        g = data.draw(small_laurents, label="g")
        f = data.draw(small_laurents, label="f")
        if n and data.draw(st.booleans(), label="vanishing"):
            f = g * data.draw(st.integers(0, n - 1), label="j")  # f - g*j = 0
        prefixes = list(falling_prefixes(f, g, n))
        # a pass that stops early stops at a zero factor: every longer product is 0
        rest = [LaurentPoly.zero()] * (n - len(prefixes))
        assert prefixes + rest == [falling_product(f, g, x) for x in range(1, n + 1)]

    def test_early_exits_answer_at_a_billion(self):
        n, zero = 10**9, LaurentPoly.zero()
        # zero f and g: no factor is nonzero
        assert list(falling_prefixes(zero, zero, n)) == []
        assert falling_product(zero, zero, n) == 0
        # the empty space's configuration product: its first factor is 0
        assert list(falling_prefixes(zero, -T, n)) == []
        assert falling_product(zero, -T, n) == 0
        # factors 3, 2, 1, 0: the pass ends after three
        assert list(falling_prefixes(3 * ONE, ONE, n)) == [3, 6, 6]
        assert falling_product(3 * ONE, ONE, n) == 0
        assert list(falling_prefixes(T, ONE, 0)) == []

    def test_length_is_checked_on_the_call(self):
        # before the first prefix is asked for
        with pytest.raises(ValueError):
            falling_prefixes(T, ONE, -1)
        with pytest.raises(TypeError):
            falling_prefixes(T, ONE, True)


class TestDual:
    def test_configuration_dual(self):
        f = T**6 + 3 * T**5 + 2 * T**4
        assert f.dual(6) == 1 + 3 * T + 2 * T**2

    def test_identity(self):
        assert ONE.dual(0) == ONE

    def test_self_dual_monomial(self):
        assert (T**4).dual(8) == T**4

    @given(laurents, st.integers(-5, 10))
    def test_involution(self, f, d):
        assert f.dual(d).dual(d) == f


class TestDivexact:
    def test_exact(self):
        assert (6 * T**2 + 3 * T).divexact(3) == 2 * T**2 + T

    def test_inexact_raises(self):
        with pytest.raises(ConsistencyError):
            (3 * T).divexact(2)


class TestBiPoly:
    def test_eval_simple(self):
        q = BiPoly.term(1, 2, 0)  # P^2
        assert q.eval_P(T**2) == T**4

    def test_eval_mixed(self):
        q = BiPoly({(2, 0): 31, (1, 1): 30})
        assert q.eval_P(T**2) == 31 * T**4 + 30 * T**3

    @given(laurents, st.integers(0, 4))
    @settings(max_examples=30)
    def test_power_law(self, p, n):
        q = BiPoly.term(1, n, 0)
        assert q.eval_P(p) == p**n

    def test_eval_skips_missing_powers(self):
        # P^3 and P^0 with no P^1 or P^2 term, and T-exponents of both signs
        q = BiPoly({(3, -1): 2, (3, 2): -1, (0, 0): 5, (0, -2): 1})
        p = 1 + 2 * T
        expected = (2 * LaurentPoly.term(1, -1) - T**2) * p**3 + 5 + LaurentPoly.term(1, -2)
        assert q.eval_P(p) == expected
        assert BiPoly.zero().eval_P(p) == LaurentPoly.zero()

    def test_homogeneous(self):
        q = BiPoly({(2, 0): 31, (1, 1): 30})
        assert q.is_homogeneous(2)
        assert not q.is_homogeneous(3)

    def test_int_operands_are_constants(self):
        one = BiPoly.one()
        assert one + 1 == 1 + one == BiPoly.term(2, 0, 0)
        assert P_VAR - 3 == BiPoly({(1, 0): 1, (0, 0): -3})
        assert 3 - P_VAR == -(P_VAR - 3)
        assert one == 1 and BiPoly.zero() == 0 and P_VAR != 1
        assert BiPoly.term(5, 0, 0) != LaurentPoly.term(5, 0)

    def test_value_semantics_come_from_one_shared_base(self):
        shared = ("zero", "items", "is_zero", "__add__", "__sub__", "__neg__",
                  "__eq__", "__hash__", "__repr__", "__str__")
        for cls in (LaurentPoly, BiPoly):
            assert not set(shared) & set(vars(cls)), cls
            # the products and divexact stay on each class, where tracers patch them
            assert {"__mul__", "__rmul__"} <= set(vars(cls)), cls
        assert "divexact" in vars(LaurentPoly)


class TestFormat:
    def test_format_terms_rules(self):
        assert format_terms([]) == "0"
        assert format_terms([(1, "")]) == "1"
        assert format_terms([(-1, "")]) == "-1"
        assert format_terms([(-1, "x"), (1, ""), (-3, "y")]) == "-x + 1 - 3y"
        assert format_terms([(2, "x"), (-1, "y")], gap=" ") == "2 x - y"

    def test_laurent_plain_and_latex(self):
        f = LaurentPoly({-2: 1, 0: -1, 1: 1, 3: -4})
        assert str(f) == "T^-2 - 1 + T - 4T^3"
        assert f.format(latex=True) == "T^{-2} - 1 + T - 4T^{3}"
        assert repr(-T) == "LaurentPoly(-T)"
        assert str(LaurentPoly.zero()) == LaurentPoly.zero().format(latex=True) == "0"

    def test_bipoly(self):
        q = BiPoly({(0, 0): -1, (0, 1): 5, (1, 0): 1, (1, 2): -3, (2, 1): 1})
        assert str(q) == "-1 + 5 T + P - 3 P T^2 + P^2 T"
        assert repr(P_VAR * T_VAR) == "BiPoly(P T)"
        assert repr(BiPoly.zero()) == "BiPoly(0)"

    def test_bipoly_latex_braces_multi_character_exponents(self):
        q = BiPoly({(1, 10): 3, (2, 9): -1, (10, 1): 1, (11, 0): 2, (1, -1): 1})
        assert q.format(latex=True) == "P T^{-1} + 3 P T^{10} - P^2 T^9 + P^{10} T + 2 P^{11}"
        assert q.format() == str(q) == "P T^-1 + 3 P T^10 - P^2 T^9 + P^10 T + 2 P^11"
        single = BiPoly({(0, 0): -1, (1, 2): -3, (9, 1): 1})
        assert single.format(latex=True) == str(single) == "-1 - 3 P T^2 + P^9 T"


class TestRoundTrip:
    @given(laurents)
    def test_hash_consistency(self, f):
        assert hash(f) == hash(LaurentPoly(dict(f.items())))

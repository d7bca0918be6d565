"""Exact integer Laurent-polynomial arithmetic.

A :class:`LaurentPoly` is a polynomial in one variable T with arbitrary-
precision integer coefficients and integer (possibly negative) exponents,
stored sparsely as ``{exponent: coefficient}`` with no zero entries.  Two
values are equal iff their canonical maps are equal.  :class:`BiPoly` is the
bivariate analogue in (P, T), used for the universal polynomials in which P
stands for an unspecified compactly-supported Poincaré polynomial.

Both share one private base, ``_SparsePoly``, which holds every operation
that never looks inside a key: ``zero``, ``one``, ``items``, ``is_zero``,
sums and differences (an int operand is a constant), negation, equality,
hashing, truth, ``repr`` and ``str``.  Each class defines only its
constructor, its product, its key-specific methods (``coeff``, ``term``,
``to_exp_map``, the JSON form; the substitutions and ``divexact`` on
``LaurentPoly``; ``eval_P`` and ``is_homogeneous`` on ``BiPoly``) and its
printer ``format``.

Everything here is exact: there are no floats and no divisions except
:meth:`LaurentPoly.divexact`, which checks divisibility coefficient by
coefficient and refuses to round.

Two multiplication routes exist on purpose.  ``LaurentPoly.__mul__`` is the
sparse schoolbook product; :func:`falling_product`, the package's deepest
product (thousands of factors for configuration spaces), runs a dense
coefficient-row kernel instead, O(n^2) big-integer steps with no per-term
dict work.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from . import limits
from .errors import ConsistencyError


class _SparsePoly:
    """Sparse integer polynomial: ``_c`` maps keys to nonzero coefficients.

    Holds every operation that never looks inside a key.  A subclass names
    the key of its constant term in ``_CONST_KEY``, which turns an int
    operand of ``+``, ``-`` or ``==`` into a constant, and supplies its
    constructor, its product and its printer.
    """

    __slots__ = ("_c",)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({cls._CONST_KEY: 1})

    def items(self):
        return iter(sorted(self._c.items()))

    def is_zero(self) -> bool:
        return not self._c

    def _coerce(self, value):
        if isinstance(value, int):
            return type(self)({self._CONST_KEY: value})
        return value

    def __add__(self, other):
        c = dict(self._c)
        for k, v in self._coerce(other)._c.items():
            c[k] = c.get(k, 0) + v
        return type(self)(c)

    __radd__ = __add__

    def __sub__(self, other):
        c = dict(self._c)
        for k, v in self._coerce(other)._c.items():
            c[k] = c.get(k, 0) - v
        return type(self)(c)

    def __rsub__(self, other: int):
        return self._coerce(other) - self

    def __neg__(self):
        return type(self)({k: -v for k, v in self._c.items()})

    def __eq__(self, other: object) -> bool:
        other = self._coerce(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __bool__(self) -> bool:
        return bool(self._c)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"

    def __str__(self) -> str:
        return self.format()


class LaurentPoly(_SparsePoly):
    """Integer Laurent polynomial in T, immutable and hashable.

    Exponents and coefficients must be ints (not bools): any other entry
    raises ``TypeError`` rather than being truncated by ``int()``.
    """

    __slots__ = ()
    _CONST_KEY = 0

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                if type(e) is not int or type(v) is not int:
                    raise TypeError(f"LaurentPoly entry {e!r}: {v!r} is not int: int")
                if v:
                    c[e] = v
        self._c = c

    # -- constructors -------------------------------------------------

    @staticmethod
    def term(coeff: int, exp: int) -> "LaurentPoly":
        return LaurentPoly({exp: coeff})

    @staticmethod
    def from_coeffs(coeffs: Iterable[int]) -> "LaurentPoly":
        """Build from a dense list where index = exponent of T."""
        return LaurentPoly({e: v for e, v in enumerate(coeffs)})

    # -- inspection ---------------------------------------------------

    def coeff(self, exp: int) -> int:
        return self._c.get(exp, 0)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._c))

    @property
    def min_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no valuation")
        return min(self._c)

    @property
    def max_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no degree")
        return max(self._c)

    def has_nonnegative_coeffs(self) -> bool:
        return all(v >= 0 for v in self._c.values())

    def to_exp_map(self) -> dict[str, int]:
        """JSON-friendly form: exponent (as string) -> coefficient."""
        return {str(e): v for e, v in sorted(self._c.items())}

    # -- products -----------------------------------------------------

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly({e: v * other for e, v in self._c.items()})
        c: dict[int, int] = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                c[e] = c.get(e, 0) + v1 * v2
        return LaurentPoly(c)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- substitutions ------------------------------------------------

    def substitute(self, e: int) -> "LaurentPoly":
        """Return f(T^e): exponent k maps to e*k.  Requires e >= 1 so that
        the result stays a genuine substitution.
        """
        if e < 1:
            raise ValueError(f"substitution exponent must be >= 1, got {e}")
        return LaurentPoly({k * e: v for k, v in self._c.items()})

    def negate_var(self) -> "LaurentPoly":
        """Return f(-T): the coefficient of T^k picks up (-1)^k."""
        return LaurentPoly({k: (-v if k % 2 else v) for k, v in self._c.items()})

    def dual(self, d: int) -> "LaurentPoly":
        """Return T^d * f(1/T): exponent k maps to d - k."""
        return LaurentPoly({d - e: v for e, v in self._c.items()})

    def eval_at_int(self, x: int) -> int:
        """Evaluate at an integer (exponents must be nonnegative)."""
        total = 0
        for e, v in self._c.items():
            if e < 0:
                raise ValueError("cannot evaluate negative exponent at an integer")
            total += v * x**e
        return total

    def divexact(self, divisor: int) -> "LaurentPoly":
        """Divide every coefficient by ``divisor``, demanding exactness."""
        if divisor == 0:
            raise ZeroDivisionError("divexact by zero")
        c = {}
        for e, v in self._c.items():
            q, r = divmod(v, divisor)
            if r:
                raise ConsistencyError(
                    f"coefficient {v} of T^{e} is not divisible by {divisor}"
                )
            c[e] = q
        return LaurentPoly(c)

    # -- printing ---------------------------------------------------

    def format(self, latex: bool = False) -> str:
        """Ascending terms such as ``1 - 3T + T^2``; LaTeX braces exponents."""
        power = "T^{{{}}}" if latex else "T^{}"
        return format_terms(
            (v, "" if e == 0 else "T" if e == 1 else power.format(e))
            for e, v in self.items()
        )


def format_terms(terms: Iterable[tuple[int, str]], gap: str = "") -> str:
    """Join nonzero (coefficient, monomial) pairs into signed text.

    An empty monomial stands for 1, a unit coefficient in front of a
    monomial is dropped, and ``gap`` separates any other coefficient from
    its monomial.  No terms at all print as ``0``.
    """
    parts = []
    for v, mono in terms:
        coeff = "" if abs(v) == 1 and mono else str(abs(v))
        body = f"{coeff}{gap}{mono}" if coeff and mono else coeff + mono
        sign = "-" if v < 0 else ("+" if parts else "")
        parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
    return " ".join(parts) if parts else "0"


def _linear_combination(terms: Iterable[tuple[int, LaurentPoly]]) -> LaurentPoly:
    """Sum of count * poly over (count, poly) pairs, in one coefficient dict."""
    c: dict[int, int] = {}
    for count, poly in terms:
        for e, v in poly._c.items():
            c[e] = c.get(e, 0) + count * v
    return LaurentPoly(c)


#: The variable T itself, convenient for building test values.
T = LaurentPoly.term(1, 1)
ONE = LaurentPoly.one()


def falling_product(f: LaurentPoly, g: LaurentPoly, n: int) -> LaurentPoly:
    """Return the product (f)(f - g)(f - 2g)...(f - (n-1)g).

    This one primitive realizes every factorial-like product in the
    package: with g = 1 it is the classical falling factorial of f, with
    g = -T it is the rising product that builds configuration-space
    Poincaré polynomials, and with g = d*T^d it clears the denominators of
    the cyclic trace formulas.  n = 0 gives the empty product 1.

    The running product is a dense coefficient list with a lowest
    exponent, and each factor f - g*i is a short dense row, so the whole
    product costs O(n^2) big-integer multiply-adds (for factors with a
    bounded number of terms) and no per-term dict work.  A Kronecker-packed
    product tree was measured 2-4x slower: CPython multiplies big integers
    by Karatsuba with no FFT, so packing saves nothing.
    """
    limits.check_count(n, "n")
    if n == 0:
        return LaurentPoly.one()
    exps = f._c.keys() | g._c.keys()
    if not exps:
        return LaurentPoly.zero()
    lo = min(exps)
    width = max(exps) - lo + 1
    f_row = [f._c.get(lo + k, 0) for k in range(width)]
    g_row = [g._c.get(lo + k, 0) for k in range(width)]
    coeffs = [1]
    low = 0
    for i in range(n):
        row = [a - b * i for a, b in zip(f_row, g_row)]
        start = 0
        while start < width and not row[start]:
            start += 1
        if start == width:
            return LaurentPoly.zero()
        stop = width
        while not row[stop - 1]:
            stop -= 1
        low += lo + start
        coeffs = _mul_row(coeffs, row[start:stop])
    return LaurentPoly({e: v for e, v in enumerate(coeffs, low)})


def _mul_row(coeffs: list[int], row: list[int]) -> list[int]:
    """Dense product of a coefficient list with a short row.

    A top coefficient of 1 (monic factors such as aT + T^2 + iT) is added
    rather than multiplied: a big-integer product by 1 still allocates and
    walks every digit.
    """
    if len(row) == 2:
        r0, r1 = row
        shifted = zip(coeffs + [0], [0] + coeffs)
        if r1 == 1:
            return [r0 * x + y for x, y in shifted]
        return [r0 * x + r1 * y for x, y in shifted]
    size = len(coeffs)
    out = [0] * (size + len(row) - 1)
    for j, r in enumerate(row):
        if r:
            out[j : j + size] = [o + r * x for o, x in zip(out[j : j + size], coeffs)]
    return out


class BiPoly(_SparsePoly):
    """Integer polynomial in two variables (P, T), canonical sparse form.

    Keys are (P-exponent, T-exponent) pairs.  Exponents and coefficients
    must be ints, as in :class:`LaurentPoly`.  A negative P-exponent raises
    ValueError: :meth:`eval_P` substitutes a polynomial for P, and negative
    powers of a polynomial are not defined.
    """

    __slots__ = ()
    _CONST_KEY = (0, 0)

    def __init__(self, coeffs: Mapping[tuple[int, int], int] | None = None):
        c = {}
        if coeffs:
            for key, v in coeffs.items():
                i, j = key
                if type(i) is not int or type(j) is not int or type(v) is not int:
                    raise TypeError(f"BiPoly entry {key!r}: {v!r} is not (int, int): int")
                if i < 0:
                    raise ValueError(f"BiPoly entry {key!r} has a negative P-exponent")
                if v:
                    c[(i, j)] = v
        self._c = c

    @staticmethod
    def term(coeff: int, p_exp: int, t_exp: int) -> "BiPoly":
        return BiPoly({(p_exp, t_exp): coeff})

    def coeff(self, p_exp: int, t_exp: int) -> int:
        return self._c.get((p_exp, t_exp), 0)

    def is_homogeneous(self, degree: int) -> bool:
        return all(i + j == degree for (i, j) in self._c)

    def __mul__(self, other: "BiPoly | int") -> "BiPoly":
        if isinstance(other, int):
            return BiPoly({k: v * other for k, v in self._c.items()})
        c: dict[tuple[int, int], int] = {}
        for (i1, j1), v1 in self._c.items():
            for (i2, j2), v2 in other._c.items():
                k = (i1 + i2, j1 + j2)
                c[k] = c.get(k, 0) + v1 * v2
        return BiPoly(c)

    __rmul__ = __mul__

    def eval_P(self, p: LaurentPoly) -> LaurentPoly:
        """Substitute P := p and multiply through by the T-monomials."""
        total = LaurentPoly.zero()
        for (i, j), v in self._c.items():
            total = total + (p**i) * LaurentPoly.term(v, j)
        return total

    def to_exp_map(self) -> dict[str, int]:
        """JSON-friendly form: "P-exp,T-exp" -> coefficient."""
        return {f"{i},{j}": v for (i, j), v in sorted(self._c.items())}

    def format(self, latex: bool = False) -> str:
        """Terms ordered by (P, T) exponents, such as ``36 P T^2 + 25 P^3``.

        LaTeX braces exponents of more than one character (``P^{10}``) and
        leaves single digits bare, so ``P^2 T`` reads the same in both.
        """

        def power(x: str, e: int) -> str:
            if e == 1:
                return x
            return f"{x}^{{{e}}}" if latex and len(str(e)) > 1 else f"{x}^{e}"

        terms = []
        for (i, j), v in self.items():
            terms.append((v, " ".join(power(x, e) for x, e in (("P", i), ("T", j)) if e)))
        return format_terms(terms, gap=" ")


#: The variable P (an unevaluated Poincaré polynomial) and T inside BiPoly.
P_VAR = BiPoly.term(1, 1, 0)
T_VAR = BiPoly.term(1, 0, 1)

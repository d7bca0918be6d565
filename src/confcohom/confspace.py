"""Spaces, and the invariants of the ordered configuration space F(X, m).

The routes here give the Euler characteristic of F(X, m) and its compact
and ordinary Poincaré polynomials; the strata of X^m are in :mod:`.strata`.
The polynomials are valid only under the interior-acyclicity hypothesis
carried by :class:`SpaceSpec` as a caller-asserted flag: the flag cannot be
decided from the input polynomial alone, and every gated operation refuses
to run without it rather than silently emitting invalid numbers.
"""

from __future__ import annotations

from . import limits
from .errors import HypothesisViolation, InputParseError
from .polyarith import LaurentPoly, T, falling_product
from .record import FrozenRecord


class SpaceSpec(FrozenRecord):
    """User-supplied description of a space X.

    ``pc`` is the compactly-supported Poincaré polynomial of X; ``dim`` its
    cohomological dimension.  The three flags assert topological facts the
    library cannot verify: interior acyclicity, orientability (X a
    topological manifold where relevant), connectedness.  Every field is
    checked here, for library and CLI callers alike: a str name, a
    LaurentPoly pc, an int dim (not a bool), bool flags, and Betti numbers
    that fit ``dim``.
    """

    __slots__ = ("name", "pc", "dim", "i_acyclic", "orientable", "connected")

    def __init__(
        self,
        name: str,
        pc: LaurentPoly,
        dim: int,
        i_acyclic: bool,
        orientable: bool = True,
        connected: bool = True,
    ):
        if not isinstance(name, str):
            raise InputParseError("name must be a string")
        if not isinstance(pc, LaurentPoly):
            raise InputParseError("pc must be a LaurentPoly")
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise InputParseError("dim must be an integer")
        for flag, value in (
            ("i_acyclic", i_acyclic), ("orientable", orientable), ("connected", connected)
        ):
            if not isinstance(value, bool):
                raise InputParseError(f"{flag} must be a boolean")
        if dim < 0:
            raise InputParseError("dimension must be nonnegative")
        if not pc.has_nonnegative_coeffs():
            raise InputParseError("Betti numbers must be nonnegative")
        if not pc.is_zero():
            if pc.min_exp < 0 or pc.max_exp > dim:
                raise InputParseError(f"exponents of {pc} must lie in [0, {dim}]")
        if i_acyclic and pc.coeff(0) != 0:
            raise InputParseError(
                "an interior-acyclic space has no degree-0 compact cohomology"
            )
        self._init(name, pc, dim, i_acyclic, orientable, connected)

    def euler_char(self) -> int:
        """Compactly-supported Euler characteristic: pc evaluated at -1."""
        return self.pc.eval_at_int(-1)

    def top_betti(self) -> int:
        return self.pc.coeff(self.dim)


def require(space: SpaceSpec, flag: str) -> None:
    if not getattr(space, flag):
        raise HypothesisViolation(flag, f"space {space.name!r}")


def require_stability_hypotheses(space: SpaceSpec) -> None:
    """Refuse a space outside ``repstab.stability_report``'s hypotheses: an
    i-acyclic, orientable, connected space of dimension at least 2."""
    require(space, "i_acyclic")
    require(space, "orientable")
    require(space, "connected")
    if space.dim < 2:
        raise HypothesisViolation("dim>=2", f"space {space.name!r} has dim {space.dim}")


# ---------------------------------------------------------------------------
# Euler characteristics
# ---------------------------------------------------------------------------


def euler_char_config(space: SpaceSpec, m: int) -> int:
    """Euler characteristic of the ordered configuration space of m points.

    Equals the falling factorial chi(chi-1)...(chi-m+1) of the Euler
    characteristic of X.  Holds with no acyclicity hypothesis, and feeds
    the exponential generating series (1+t)^chi.  When 0 <= chi < m a
    factor is 0, and so is the answer, read at once.
    """
    limits.check_count(m, "m")
    chi = space.euler_char()
    if 0 <= chi < m:
        return 0
    value = 1
    for i in range(m):
        value *= chi - i
    return value


# ---------------------------------------------------------------------------
# Poincaré polynomials
# ---------------------------------------------------------------------------


def poincare_config(space: SpaceSpec, m: int) -> LaurentPoly:
    """Compact-support Poincaré polynomial of the configuration space of m points.

    The closed product formula prod_{i<m} (pc + i*T); m = 0 gives the
    one-point space.
    """
    require(space, "i_acyclic")
    limits.check_count(m, "m")
    return falling_product(space.pc, -T, m)


def poincare_config_ordinary(space: SpaceSpec, m: int) -> LaurentPoly:
    """Ordinary-cohomology Poincaré polynomial of the configuration space.

    Obtained from the compact-support polynomial by duality in dimension
    m*dim.  Valid when X is an orientable topological manifold, which the
    caller asserts through the ``orientable`` flag; the library cannot
    check manifoldness.
    """
    require(space, "i_acyclic")
    require(space, "orientable")
    limits.check_count(m, "m", 1)
    return poincare_config(space, m).dual(m * space.dim)


# ---------------------------------------------------------------------------
# built-in spaces
# ---------------------------------------------------------------------------


def _make_builtins() -> dict[str, SpaceSpec]:
    spaces = {}
    for d in range(1, 5):
        spaces[f"r{d}"] = SpaceSpec(
            name=f"r{d}", pc=LaurentPoly.term(1, d), dim=d, i_acyclic=True
        )
    spaces["c"] = SpaceSpec(name="c", pc=LaurentPoly.term(1, 2), dim=2, i_acyclic=True)
    for a in range(1, 4):
        spaces[f"c_minus_{a}"] = SpaceSpec(
            name=f"c_minus_{a}",
            pc=LaurentPoly({1: a, 2: 1}),
            dim=2,
            i_acyclic=True,
        )
    spaces["cstar"] = SpaceSpec(
        name="cstar", pc=LaurentPoly({1: 1, 2: 1}), dim=2, i_acyclic=True
    )
    # Once-punctured Klein bottle: cup-acyclic but not interior-acyclic.
    # Shipped to exercise the refusal paths of every gated operation.
    spaces["klein_pointed"] = SpaceSpec(
        name="klein_pointed",
        pc=LaurentPoly.term(1, 1),
        dim=2,
        i_acyclic=False,
        orientable=False,
    )
    return spaces


BUILTIN_SPACES = _make_builtins()

"""Irreducible decompositions and empirical representation-stability checks.

The decomposition pipeline converts a compact-support trace series to its
Borel-Moore counterpart, extracts one cohomological degree, and expands it
into irreducible symmetric-group characters.  Those come from the
Murnaghan-Nakayama rule on a beta-set held as an int bit mask, one bead
per row of the diagram: removing a border strip of length t moves a bead
from position b to an empty b - t, and the number of beads strictly
between fixes the sign.  Representation stability (Church-Ellenberg-Farb)
puts the constituents on padded shapes with small cores, so the expansion
visits cores by increasing size and stops once their dimensions account
for the whole Betti number.  The stopping rule checks nothing by itself; the
result is certified by rebuilding the character from the multiplicities
on every class, which proves the unvisited shapes absent.  Stability is
then *observed* on a finite window of m, never proven: verdicts state that
the data is consistent with the expected monotonicity/constancy bounds on
the inspected range.

Bookkeeping convention: an irreducible of the symmetric group on m letters
whose diagram has first row m - |core| is recorded under its ``core``, the
partition formed by the rows below the first.  A family of irreducibles
with a fixed core is comparable across different m, which is what makes
multiplicity tables meaningful.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from . import charseries, limits
from .charseries import TraceSeries, exactly_series
from .combinat import CycleType, all_cycle_types, partitions
from .confspace import SpaceSpec, require
from .errors import ConsistencyError, HypothesisViolation
from .polyarith import LaurentPoly
from .record import Record


# ---------------------------------------------------------------------------
# irreducible characters of symmetric groups
# ---------------------------------------------------------------------------


def _check_partition(shape: tuple[int, ...], mu: tuple[int, ...] = ()) -> None:
    """Refuse non-int entries, a ``shape`` that is not a weakly decreasing
    sequence of positive parts, and cycle lengths ``mu`` below 1."""
    limits.check_entries(shape, "shape", None)
    limits.check_entries(mu, "mu", None)
    if any(part < 1 for part in shape) or any(a < b for a, b in zip(shape, shape[1:])):
        raise ValueError(f"shape {shape} is not a partition")
    if any(part < 1 for part in mu):
        raise ValueError(f"cycle lengths {mu} must be positive")


def _beads(shape: tuple[int, ...]) -> int:
    """Beta-set of ``shape`` as a bit mask: bit shape[i] + (k - 1 - i) for
    each row i of k."""
    k = len(shape)
    return sum(1 << (part + k - 1 - i) for i, part in enumerate(shape))


def symmetric_group_character(shape: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Irreducible character indexed by ``shape`` at the class with parts ``mu``.

    ``shape`` must be a weakly decreasing sequence of positive parts and
    ``mu`` a list of positive cycle lengths of the same total size: an entry
    that is not an int raises TypeError and anything else ValueError, before
    any cache is read.  The value comes from the Murnaghan-Nakayama rule on
    the beta-set of ``shape``, held as an int bit mask with one bead per
    row, by :func:`_character`, every character evaluation's one cache; its
    ``cache_info`` is this function's.
    """
    _check_partition(shape, mu)
    total = sum(shape)
    if total != sum(mu):
        raise ValueError(f"size mismatch: {shape} vs {mu}")
    limits.check_m(total)
    return _character(_beads(shape), mu)


@lru_cache(maxsize=None)
def _character(beads: int, mu: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama recursion on a bead mask (Macdonald, *Symmetric
    Functions and Hall Polynomials*, I.7; James-Kerber, *The Representation
    Theory of the Symmetric Group*, 1981).

    Removing a border strip of length t = mu[0] moves a bead from b to an
    empty position b - t; the strip's height is the number of beads
    strictly between, so the sign is the parity of that popcount.  Beads
    packed at positions 0, 1, ... stand for empty rows and are shifted off,
    so each shape has one mask.  The caller guarantees a partition whose
    size is sum(mu).
    """
    if not mu:
        return 1
    t = mu[0]
    rest = mu[1:]
    between = (1 << (t - 1)) - 1
    movable = (beads & ~(beads << t)) >> t << t
    value = 0
    while movable:
        low = movable & -movable
        movable ^= low
        b = low.bit_length() - 1
        moved = beads ^ low ^ (1 << (b - t))
        moved >>= (~moved & (moved + 1)).bit_length() - 1
        term = _character(moved, rest)
        value += -term if ((beads >> (b - t + 1)) & between).bit_count() & 1 else term
    return value


symmetric_group_character.cache_info = _character.cache_info


@lru_cache(maxsize=None)
def irrep_dimension(shape: tuple[int, ...]) -> int:
    """Dimension of the irreducible with the given diagram, by hook lengths."""
    _check_partition(shape)
    m = sum(shape)
    if not shape:
        return 1
    conjugate = [sum(1 for part in shape if part > j) for j in range(shape[0])]
    hooks = 1
    for i, part in enumerate(shape):
        for j in range(part):
            hooks *= (part - j) + (conjugate[j] - i) - 1
    dim, rem = divmod(factorial(m), hooks)
    if rem:
        raise ConsistencyError(f"hook product of {shape} does not divide {m}!")
    return dim


# ---------------------------------------------------------------------------
# padded partitions
# ---------------------------------------------------------------------------


def pad_core(core: tuple[int, ...], m: int) -> tuple[int, ...]:
    """Prepend the long first row: core (c_1 >= c_2 >= ...) becomes
    (m - |core|, c_1, ..., c_k), valid when m >= |core| + c_1."""
    size = sum(core)
    first = m - size
    if core and first < core[0]:
        raise ValueError(f"core {core} does not fit inside m = {m}")
    if first < 0:
        raise ValueError(f"core {core} too large for m = {m}")
    return (first,) + tuple(core) if first > 0 else tuple(core)


# ---------------------------------------------------------------------------
# decomposition and Borel-Moore conversion
# ---------------------------------------------------------------------------


def _fitting_cores(m: int):
    """Cores of the irreducibles of S_m: by increasing size, each size in
    :func:`partitions` order, keeping those with c_1 <= m - |core|.  Padded,
    they are the shapes of m in descending lex order."""
    for size in range(m + 1):
        for core in partitions(size):
            if not core or core[0] <= m - size:
                yield core


def decompose_series(series: TraceSeries, degree: int) -> dict[tuple[int, ...], int]:
    """Multiplicities of the irreducibles in one cohomological degree.

    Extracts the degree-``degree`` character chi from the alternating-sign
    series and pairs it with the irreducibles lambda[m] core by core, in
    the order of :func:`_fitting_cores`; classes where chi vanishes are
    left out of the pairing sums.  The cycle-type cap is checked once, on
    entry, and each visited shape becomes a bead mask once, for the pairing
    sums and the certificate alike.  Every visited multiplicity must be a
    nonnegative integer.  The walk stops once sum mult * dim(lambda[m])
    reaches chi(1), and raises if the sum overshoots, if the cores run out
    first, or if chi(1) is negative.  The result is then certified: sum
    mult * chi_lambda must equal chi on every class, so every shape left
    unvisited has multiplicity 0, whether or not chi was a true character.
    Keys of the result are cores (rows below the first); zero rows are
    omitted.
    """
    m = series.m
    limits.check_m(m)
    limits.check_count(degree, "degree")
    sign = -1 if degree % 2 else 1
    classes = []
    weighted = []
    for ct in all_cycle_types(m):
        chi = sign * series.values[ct].coeff(degree)
        classes.append((ct.parts, chi))
        if chi:
            weighted.append((ct.parts, ct.class_size() * chi))
    betti = sign * series.identity_entry().coeff(degree)
    if betti < 0:
        raise ConsistencyError(f"negative Betti number {betti} in degree {degree}")
    order = factorial(m)
    out: dict[tuple[int, ...], int] = {}
    found: list[tuple[int, int]] = []  # (bead mask, multiplicity) of each row of out
    covered = 0
    for core in _fitting_cores(m):
        if covered == betti:
            break
        shape = pad_core(core, m)
        beads = _beads(shape)
        total = sum(w * _character(beads, parts) for parts, w in weighted)
        mult, rem = divmod(total, order)
        if rem:
            raise ConsistencyError(
                f"non-integer multiplicity for {shape} in degree {degree}"
            )
        if mult < 0:
            raise ConsistencyError(
                f"negative multiplicity {mult} for {shape} in degree {degree}"
            )
        if mult:
            out[core] = mult
            found.append((beads, mult))
            covered += mult * irrep_dimension(shape)
            if covered > betti:
                raise ConsistencyError(
                    f"dimensions overshoot the Betti number {betti} in degree {degree}"
                )
    if covered != betti:
        raise ConsistencyError(
            f"cores ran out at dimension {covered} of {betti} in degree {degree}"
        )
    for parts, chi in classes:
        rebuilt = sum(mult * _character(beads, parts) for beads, mult in found)
        if rebuilt != chi:
            raise ConsistencyError(
                f"multiplicities in degree {degree} give {rebuilt}, not {chi}, at {parts}"
            )
    return out


def borel_moore_series(
    series: TraceSeries, space_dim: int, dual_dim: int | None = None
) -> TraceSeries:
    """Convert a compact-support trace series to the Borel-Moore one.

    Each entry is multiplied by sgn^space_dim * (-T)^dual_dim and T is
    inverted; ``dual_dim`` defaults to m * space_dim, the dimension of the
    m-fold product, and must be overridden for strata of lower dimension.
    The permutation and its inverse share a cycle type, so inverting the
    group element is invisible here.  Applying the conversion twice with
    the same parameters is the identity: orientable duality is involutive.
    """
    m = series.m
    n = m * space_dim if dual_dim is None else dual_dim
    sign_total = -1 if n % 2 else 1

    def convert(ct: CycleType, v: LaurentPoly) -> LaurentPoly:
        s = sign_total * (ct.sign() if space_dim % 2 else 1)
        return v.dual(n) * s

    return series.map_values(convert)


# ---------------------------------------------------------------------------
# stability diagnostics
# ---------------------------------------------------------------------------


class MultiplicityTable(Record):
    """Multiplicities c(core)_m of one cohomological degree across a range of m."""

    __slots__ = ("degree", "m_values", "rows")

    def value(self, core: tuple[int, ...], m: int) -> int:
        return self.rows.get(core, {}).get(m, 0)

    def cores(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.rows, key=lambda c: (sum(c), c)))


class StabilityReport(Record):
    __slots__ = (
        "space", "degree", "defect", "table", "betti", "monotone_from",
        "stable_from", "monotone_ok", "constant_ok", "poly_degree", "poly_window_ok",
    )

    def verdicts(self) -> list[tuple[str, bool]]:
        named = [
            (f"monotone-from-{self.monotone_from}", self.monotone_ok),
            (f"constant-from-{self.stable_from}", self.constant_ok),
        ]
        if self.poly_window_ok:
            named.append(("betti-eventually-polynomial", self.poly_degree is not None))
        return named


def _polynomial_degree(seq: list[int]) -> int | None:
    """Smallest k with vanishing (k+1)-st differences, or None; -1 encodes
    the identically-zero sequence."""
    row, order = list(seq), -1
    while any(row):
        if len(row) == 1:
            return None
        row = [b - a for a, b in zip(row, row[1:])]
        order += 1
    return order


def _m_window(m_range: tuple[int, int], least: int) -> list[int]:
    """The m of ``m_range`` from ``least`` on; the gate, and the cap on the
    top, come before any m is computed or listed."""
    lo, hi = m_range
    limits.check_count(lo, "m_range[0]", None)
    limits.check_m(hi, "m_range[1]", max(lo, least))
    return list(range(max(lo, least), hi + 1))


DIFF_WINDOW = 4


def stability_report(
    space: SpaceSpec, degree: int, defect: int, m_range: tuple[int, int]
) -> StabilityReport:
    """Observe multiplicity stability of one Borel-Moore degree across m.

    For each m in the range, assembles the character series of the
    stratum of tuples with m - ``defect`` distinct values, converts it to
    Borel-Moore grading (dual dimension (m - defect) * dim), decomposes
    degree ``degree``, and records multiplicities per core.  Verdicts:

    * monotone from degree + defect,
    * constant from 4*(degree+defect) in dimension 2, from
      2*degree + 4*defect in dimension >= 3,
    * the Betti sequence has vanishing finite differences past the stable
      bound, when at least ``DIFF_WINDOW`` points are available there.
    """
    require(space, "i_acyclic")
    require(space, "orientable")
    require(space, "connected")
    if space.dim < 2:
        raise HypothesisViolation("dim>=2", f"space {space.name!r} has dim {space.dim}")
    limits.check_count(degree, "degree")
    limits.check_count(defect, "defect")
    ms = _m_window(m_range, defect + 1)

    table = MultiplicityTable(degree=degree, m_values=tuple(ms), rows={})
    betti: dict[int, int] = {}
    for m in ms:
        distinct = m - defect
        series = exactly_series(space, distinct, m)
        bm = borel_moore_series(series, space.dim, dual_dim=distinct * space.dim)
        mults = decompose_series(bm, degree)
        betti[m] = (-1 if degree % 2 else 1) * bm.identity_entry().coeff(degree)
        for core, mult in mults.items():
            table.rows.setdefault(core, {})[m] = mult

    monotone_from = degree + defect
    stable_from = (
        4 * (degree + defect) if space.dim == 2 else 2 * degree + 4 * defect
    )

    def window(bound: int) -> list[int]:
        return [m for m in ms if m >= bound]

    monotone_ok = all(
        table.value(core, a) <= table.value(core, b)
        for core in table.rows
        for a, b in zip(window(monotone_from), window(monotone_from)[1:])
    )
    stable_ms = window(stable_from)
    constant_ok = all(
        table.value(core, m) == table.value(core, stable_ms[0])
        for core in table.rows
        for m in stable_ms
    ) if stable_ms else False

    poly_window_ok = len(stable_ms) >= DIFF_WINDOW
    poly_degree = (
        _polynomial_degree([betti[m] for m in stable_ms]) if poly_window_ok else None
    )

    return StabilityReport(
        space=space.name,
        degree=degree,
        defect=defect,
        table=table,
        betti=betti,
        monotone_from=monotone_from,
        stable_from=stable_from,
        monotone_ok=monotone_ok,
        constant_ok=constant_ok,
        poly_degree=poly_degree,
        poly_window_ok=poly_window_ok,
    )


# ---------------------------------------------------------------------------
# constancy of unordered Betti numbers
# ---------------------------------------------------------------------------


class ConstancyReport(Record):
    __slots__ = (
        "space", "degree", "values", "constant_from", "constant_ok",
        "constant_value", "expect_zero", "observed_from",
    )


def unordered_betti_constancy(
    space: SpaceSpec, degree: int, m_range: tuple[int, int]
) -> ConstancyReport:
    """Track one Borel-Moore Betti number of the unordered configuration space.

    The value at each m is the multiplicity of the trivial representation
    in the Borel-Moore conversion of the configuration trace series: the
    S_m average of the traces, twisted by the sign in odd dim, read at -T
    and dualized in dimension m * dim.  One run of the exponential-formula
    recurrence up to the top of the range gives every m.  The expected
    plateau starts at m = degree; when the top compact Betti number
    vanishes the plateau starts earlier (dimension >= 3) or the values must
    vanish outright (dimension 2).  The hypothesis requires the top
    compact Betti number to be at most 1.
    """
    require(space, "i_acyclic")
    if space.top_betti() > 1:
        raise HypothesisViolation(
            "top_compact_betti<=1",
            f"space {space.name!r} has top Betti {space.top_betti()}",
        )
    limits.check_count(degree, "degree")
    ms = _m_window(m_range, 1)
    g = charseries._newton(charseries._config_power_sums(space, ms[-1], space.dim % 2 == 1))
    values = {m: charseries._read_at_minus_t(g[m]).dual(m * space.dim).coeff(degree) for m in ms}

    top = space.top_betti()
    expect_zero = False
    if space.dim == 1:
        constant_from = 1
    elif top == 0 and space.dim == 2:
        constant_from = degree + 1
        expect_zero = True
    elif top == 0 and space.dim >= 3:
        constant_from = -(-degree // (space.dim - 1))  # ceil
    elif space.dim == 2:
        # Surface case: the plateau starts one step later than in higher
        # dimension (the degree-1 value at m = 1 misses the class created
        # by the first collision winding), so check from degree + 1.
        constant_from = degree + 1 if degree >= 1 else 1
    else:
        constant_from = degree
    constant_from = max(constant_from, 1)

    plateau = [values[m] for m in ms if m >= constant_from]
    if not plateau:
        constant_ok = False
        constant_value = None
    elif expect_zero:
        constant_ok = all(v == 0 for v in plateau)
        constant_value = 0
    else:
        constant_ok = all(v == plateau[0] for v in plateau)
        constant_value = plateau[0] if constant_ok else None

    # Observed onset: first m from which the data stays constant to the end
    # of the window; reported alongside the claimed bound for transparency.
    observed_from = None
    for m in ms:
        tail = [values[k] for k in ms if k >= m]
        if all(v == tail[0] for v in tail):
            observed_from = m
            break

    return ConstancyReport(
        space=space.name,
        degree=degree,
        values=values,
        constant_from=constant_from,
        constant_ok=constant_ok,
        constant_value=constant_value,
        expect_zero=expect_zero,
        observed_from=observed_from,
    )

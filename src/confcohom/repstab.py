"""Irreducible decompositions and empirical representation-stability checks.

One cohomological degree of a character, an integer class function, is
expanded into irreducible symmetric-group characters.  ``decompose_series``
reads that degree off a whole trace series, which ``borel_moore_series``
converts from compact-support to Borel-Moore grading.  A stability table
builds no series: for each m it reads the one coefficient it needs of each
configuration trace, from one factor table for the whole window, induces
those integers up to m, and applies the Borel-Moore sign per class.  The
irreducible characters come from the Murnaghan-Nakayama rule on a beta-set
held as an int bit mask, one bead per row of the diagram: removing a
border strip of length t moves a bead from position b to an empty b - t,
and the number of beads strictly between fixes the sign.  Representation
stability (Church-Ellenberg-Farb) puts the constituents on padded shapes
with small cores, so the expansion visits cores by increasing size and
stops once their dimensions account for the whole Betti number.  The
stopping rule checks nothing by itself; the result is certified by rebuilding the character from the multiplicities
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
from .charseries import TraceSeries
from .combinat import CycleType, _all_cycle_types, partitions
from .confspace import SpaceSpec, require, require_stability_hypotheses
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


def irrep_dimension(shape: tuple[int, ...]) -> int:
    """Dimension of the irreducible with the given diagram, by hook lengths:
    cheap enough to need no cache, so every call checks its shape."""
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
    series, after one cap check on entry, and hands it to
    :func:`_decompose`, the pairing walk and certificate that
    :func:`stability_report` also runs.  Keys of the result are cores (rows
    below the first); zero rows are omitted.
    """
    m = series.m
    limits.check_m(m)
    limits.check_count(degree, "degree")
    sign = -1 if degree % 2 else 1
    chi = {ct: sign * series.values[ct].coeff(degree) for ct in _all_cycle_types(m)}
    return _decompose(m, chi, degree)


def _decompose(m: int, chi: dict[CycleType, int], degree: int) -> dict[tuple[int, ...], int]:
    """Multiplicities of the irreducibles of S_m in the integer class
    function ``chi``, given on every cycle type in :func:`all_cycle_types`
    order; ``degree`` only names the degree in errors.

    Pairs chi with the irreducibles lambda[m] core by core, in the order of
    :func:`_fitting_cores`; classes where chi vanishes are left out of the
    pairing sums, and each visited shape becomes a bead mask once, for the
    pairing sums and the certificate alike.  Every visited multiplicity
    must be a nonnegative integer.  The walk stops once
    sum mult * dim(lambda[m]) reaches chi(1), and raises if the sum
    overshoots, if the cores run out first, or if chi(1) is negative.  The
    result is then certified: sum mult * chi_lambda must equal chi on every
    class, so every shape left unvisited has multiplicity 0, whether or not
    chi was a true character.
    """
    classes = []
    weighted = []
    for ct, value in chi.items():
        classes.append((ct.parts, value))
        if value:
            weighted.append((ct.parts, ct.class_size() * value))
    betti = chi[CycleType.identity(m)]
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
    for parts, value in classes:
        rebuilt = sum(mult * _character(beads, parts) for beads, mult in found)
        if rebuilt != value:
            raise ConsistencyError(
                f"multiplicities in degree {degree} give {rebuilt}, not {value}, at {parts}"
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
        """The ``(name, passed)`` verdicts the table's window can hold.

        A verdict compares the m of its window, from its bound to the top
        of the table, so one with fewer than two m would compare nothing:
        ``monotone-from-N`` and ``constant-from-N`` are left out then.
        ``poly_degree`` is an observation, not a verdict: finite data never
        refutes "eventually polynomial".
        """
        named = []
        for name, bound, passed in (
            ("monotone", self.monotone_from, self.monotone_ok),
            ("constant", self.stable_from, self.constant_ok),
        ):
            if sum(1 for m in self.table.m_values if m >= bound) >= 2:
                named.append((f"{name}-from-{bound}", passed))
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

    For each m in the range, takes the character of the stratum of tuples
    with l = m - ``defect`` distinct values in Borel-Moore degree
    ``degree``, decomposes it, and records multiplicities per core.  That
    character is degree ``degree`` of ``borel_moore_series`` of
    ``exactly_series(space, l, m)`` with dual dimension l * dim, but no
    series is built: one factor table, for the top of the window, gives
    the coefficient of T^(l * dim - degree) in each configuration trace of
    l letters; the block counts of ``induce_blocks`` carry those integers
    up to m, and each class takes the Borel-Moore sign.  The integer class
    function goes to the pairing walk and certificate of
    :func:`decompose_series`.  Verdicts:

    * monotone from degree + defect,
    * constant from 4*(degree+defect) in dimension 2, from
      2*degree + 4*defect in dimension >= 3,
    * the Betti sequence has vanishing finite differences past the stable
      bound, when at least ``DIFF_WINDOW`` points are available there.
    """
    require_stability_hypotheses(space)
    limits.check_count(degree, "degree")
    limits.check_count(defect, "defect")
    ms = _m_window(m_range, defect + 1)

    table = MultiplicityTable(degree=degree, m_values=tuple(ms), rows={})
    betti: dict[int, int] = {}
    factors = charseries._factor_table(space, ms[-1] - defect)
    for m in ms:
        dual_dim = (m - defect) * space.dim
        coeffs = charseries._exactly_coefficients(factors, m - defect, m, dual_dim - degree)
        # the Borel-Moore sign of borel_moore_series, then the degree's sign
        sign = -1 if (dual_dim + degree) % 2 else 1
        chi = {
            ct: (ct.sign() * sign if space.dim % 2 else sign) * value
            for ct, value in coeffs.items()
        }
        betti[m] = chi[CycleType.identity(m)]
        for core, mult in _decompose(m, chi, degree).items():
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

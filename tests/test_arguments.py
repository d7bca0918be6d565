"""The argument gate: every count a public name takes is an int, checked first.

Each route below gets drawn counts, some of them entries of a tuple argument
(a multiplicity vector, permutation images, the parts of a shape): valid
small ints, or a malformed twin of one (a float equal to it or not, a bool,
a string, None, or a negative int).  A call with valid counts ends in an
answer or a documented refusal; a call with a malformed count must never
answer, and must end in TypeError, ValueError or a ConfcohomError.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confcohom
from confcohom import (
    BUILTIN_SPACES,
    BiPoly,
    ConfcohomError,
    CostCapExceeded,
    CycleType,
    InputParseError,
    LaurentPoly,
    Permutation,
    SetPartition,
    SpaceSpec,
    TraceSeries,
)
from confcohom.polyarith import T

SPACE = BUILTIN_SPACES["cstar"]


def _series(m):
    return confcohom.config_series(SPACE, m)


def _s3_counts():
    return {ct: ct.class_size() for ct in confcohom.all_cycle_types(3)}


# name -> (call(args, valid), {argument: (least valid draw, most valid draw)}).
# ``args`` holds the drawn arguments, ``valid`` the valid ints they twin, so
# the other inputs of a call are built from the valid values.  An argument
# whose least draw is negative takes every int: no negative twin is drawn.
ROUTES = {
    "BiPoly.term": (
        lambda a, v: BiPoly.term(a["coeff"], a["p_exp"], a["t_exp"]),
        {"coeff": (-3, 3), "p_exp": (0, 3), "t_exp": (-3, 3)},
    ),
    "CycleType": (
        lambda a, v: CycleType(a["m"], CycleType.identity(v["m"]).mult),
        {"m": (0, 6)},
    ),
    "CycleType.identity": (lambda a, v: CycleType.identity(a["m"]), {"m": (0, 6)}),
    # 1^x1 2^x2 4^1 on x1 + 2 x2 + 4 letters: entries of the multiplicity vector
    "CycleType.mult": (
        lambda a, v: CycleType(
            v["x1"] + 2 * v["x2"] + 4, (a["x1"], a["x2"], 0, 1) + (0,) * (v["x1"] + 2 * v["x2"])
        ),
        {"x1": (0, 4), "x2": (0, 2)},
    ),
    "LaurentPoly.term": (
        lambda a, v: LaurentPoly.term(a["coeff"], a["exp"]),
        {"coeff": (-3, 3), "exp": (-3, 3)},
    ),
    "Permutation": (lambda a, v: Permutation((a["first"], 1 - v["first"], 2)), {"first": (0, 1)}),
    "Permutation.identity": (lambda a, v: Permutation.identity(a["m"]), {"m": (0, 6)}),
    "Permutation.from_cycles": (
        lambda a, v: Permutation.from_cycles(a["m"], []),
        {"m": (0, 6)},
    ),
    "SetPartition": (
        lambda a, v: SetPartition(a["m"], tuple((i,) for i in range(v["m"]))),
        {"m": (0, 6)},
    ),
    "SpaceSpec": (lambda a, v: SpaceSpec("x", T, a["dim"], True), {"dim": (0, 4)}),
    "TraceSeries": (
        lambda a, v: TraceSeries(a["m"], _series(v["m"]).values),
        {"m": (0, 5)},
    ),
    "all_cycle_types": (lambda a, v: confcohom.all_cycle_types(a["m"]), {"m": (0, 8)}),
    "at_most_trace": (
        lambda a, v: confcohom.at_most_trace(
            SPACE, a["distinct"], a["m"], Permutation.identity(v["m"])
        ),
        {"distinct": (0, 4), "m": (0, 4)},
    ),
    "config_series": (lambda a, v: confcohom.config_series(SPACE, a["m"]), {"m": (0, 8)}),
    "decompose_series": (
        lambda a, v: confcohom.decompose_series(_series(4), a["degree"]),
        {"degree": (0, 6)},
    ),
    "euler_char_config": (lambda a, v: confcohom.euler_char_config(SPACE, a["m"]), {"m": (0, 8)}),
    "exactly_series": (
        lambda a, v: confcohom.exactly_series(SPACE, a["distinct"], a["m"]),
        {"distinct": (0, 8), "m": (0, 8)},
    ),
    "exactly_trace": (
        lambda a, v: confcohom.exactly_trace(
            SPACE, a["distinct"], a["m"], Permutation.identity(v["m"])
        ),
        {"distinct": (0, 5), "m": (0, 5)},
    ),
    "falling_product": (lambda a, v: confcohom.falling_product(T, 1 + T, a["n"]), {"n": (0, 8)}),
    "group_closure": (lambda a, v: confcohom.group_closure([], a["m"]), {"m": (0, 8)}),
    "induce_blocks": (
        lambda a, v: confcohom.induce_blocks(_series(2), a["m"]),
        {"m": (0, 8)},
    ),
    "poincare_at_most": (
        lambda a, v: confcohom.poincare_at_most(SPACE, a["distinct"], a["m"]),
        {"distinct": (0, 8), "m": (0, 8)},
    ),
    "poincare_config": (lambda a, v: confcohom.poincare_config(SPACE, a["m"]), {"m": (0, 8)}),
    "poincare_config_ordinary": (
        lambda a, v: confcohom.poincare_config_ordinary(SPACE, a["m"]),
        {"m": (0, 8)},
    ),
    "poincare_cyclic_config": (
        lambda a, v: confcohom.poincare_cyclic_config(SPACE, a["m"]),
        {"m": (0, 8)},
    ),
    "poincare_cyclic_product": (
        lambda a, v: confcohom.poincare_cyclic_product(SPACE, a["m"]),
        {"m": (0, 8)},
    ),
    "poincare_exactly": (
        lambda a, v: confcohom.poincare_exactly(SPACE, a["distinct"], a["m"]),
        {"distinct": (0, 8), "m": (0, 8)},
    ),
    "poincare_symmetric_product": (
        lambda a, v: confcohom.poincare_symmetric_product(SPACE, a["m"]),
        {"m": (0, 8)},
    ),
    "poincare_unordered_config": (
        lambda a, v: confcohom.poincare_unordered_config(SPACE, a["m"]),
        {"m": (0, 8)},
    ),
    "quotient_poincare": (
        lambda a, v: confcohom.quotient_poincare(_series(3), _s3_counts(), a["order"]),
        {"order": (0, 8)},
    ),
    "reconstruct_config_series": (
        lambda a, v: confcohom.reconstruct_config_series(SPACE, a["m"]),
        {"m": (0, 7)},
    ),
    "set_partitions": (
        lambda a, v: confcohom.set_partitions(a["m"], a["blocks"]),
        {"m": (0, 6), "blocks": (0, 6)},
    ),
    "stability_report": (
        lambda a, v: confcohom.stability_report(
            SPACE, a["degree"], a["defect"], (a["lo"], a["hi"])
        ),
        {"degree": (0, 3), "defect": (0, 2), "lo": (-2, 4), "hi": (0, 8)},
    ),
    "stable_partitions": (
        lambda a, v: confcohom.stable_partitions(Permutation.identity(4), a["blocks"]),
        {"blocks": (0, 5)},
    ),
    "stirling_first_signed": (
        lambda a, v: confcohom.stirling_first_signed(a["i"], a["j"]),
        {"i": (0, 8), "j": (0, 8)},
    ),
    "stirling_second": (
        lambda a, v: confcohom.stirling_second(a["i"], a["j"]),
        {"i": (0, 8), "j": (0, 8)},
    ),
    # shape (a + b, b) at the class (a, 1^2b): parts of both tuples
    "symmetric_group_character": (
        lambda a, v: confcohom.symmetric_group_character(
            (v["a"] + v["b"], a["b"]), (a["a"],) + (1,) * (2 * v["b"])
        ),
        {"a": (1, 3), "b": (1, 3)},
    ),
    "universal_poly": (
        lambda a, v: confcohom.universal_poly(a["distinct"], a["m"], False),
        {"distinct": (0, 6), "m": (0, 6)},
    ),
    "unordered_betti_constancy": (
        lambda a, v: confcohom.unordered_betti_constancy(SPACE, a["degree"], (a["lo"], a["hi"])),
        {"degree": (0, 4), "lo": (-2, 4), "hi": (0, 8)},
    ),
}


def _twins(value: int, negatives_valid: bool) -> list:
    """Malformed stand-ins for a valid int, some of them equal to it."""
    twins = [float(value), value + 0.5, value != 0, str(value), None]
    return twins if negatives_valid else twins + [-value - 1]


@st.composite
def _draws(draw, ranges):
    valid = {arg: draw(st.integers(lo, hi), label=arg) for arg, (lo, hi) in ranges.items()}
    bad = draw(st.sets(st.sampled_from(sorted(ranges))), label="malformed")
    args = dict(valid)
    for arg in sorted(bad):
        args[arg] = draw(st.sampled_from(_twins(valid[arg], ranges[arg][0] < 0)), label=arg)
    return valid, args, bad


@pytest.mark.parametrize("name", sorted(ROUTES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_counts_are_gated(name, data):
    call, ranges = ROUTES[name]
    valid, args, bad = data.draw(_draws(ranges))
    try:
        call(args, valid)
    except (TypeError, ValueError, ConfcohomError) as exc:
        # valid ints never end in a TypeError: only a malformed count does
        assert bad or not isinstance(exc, TypeError), exc
    else:
        assert not bad, f"{name} answered the malformed {args}"


def test_every_public_route_with_a_count_is_drawn():
    covered = {name.split(".")[0] for name in ROUTES}
    # names that take no count: types built by the routes, errors, a dict,
    # and routes whose counts come inside a CycleType
    uncounted = {
        "BUILTIN_SPACES", "ConfcohomError", "ConsistencyError", "ConstancyReport",
        "CostCapExceeded", "HypothesisViolation", "InputParseError", "MultiplicityTable",
        "StabilityReport", "config_trace", "power_trace", "tensor_trace_oracle",
    }
    assert covered | uncounted == set(confcohom.__all__)


@pytest.mark.parametrize(
    "first, second",
    [
        (lambda: confcohom.stirling_second(5, 2), lambda: confcohom.stirling_second(5.0, 2)),
        (lambda: confcohom.all_cycle_types(1), lambda: confcohom.all_cycle_types(True)),
        (
            lambda: confcohom.symmetric_group_character((1,), (1,)),
            lambda: confcohom.symmetric_group_character((True,), (True,)),
        ),
    ],
    ids=["stirling_second", "all_cycle_types", "symmetric_group_character"],
)
def test_the_gate_comes_before_the_cache(first, second):
    first()
    with pytest.raises(TypeError):
        second()


@pytest.mark.parametrize(
    "call, error, name",
    [
        (lambda c: confcohom.poincare_exactly(c, True, 3), TypeError, "distinct"),
        (lambda c: confcohom.euler_char_config(c, 2.5), TypeError, "m"),
        (lambda c: confcohom.stability_report(c, 1.0, 0, (1, 5)), TypeError, "degree"),
        (lambda c: (confcohom.stirling_second(5, 2), confcohom.stirling_second(5.0, 2)),
         TypeError, "i"),
        (lambda c: confcohom.universal_poly(2, 3.0, False), TypeError, "m"),
        (lambda c: SpaceSpec("x", [0, 1], 1, False), InputParseError, "pc"),
    ],
    ids=["poincare_exactly", "euler_char_config", "stability_report", "stirling_second",
         "universal_poly", "SpaceSpec"],
)
def test_malformed_counts_are_refused_by_name(call, error, name):
    with pytest.raises(error, match=f"^{name} must be "):
        call(BUILTIN_SPACES["c"])


def test_a_count_below_its_least_value_names_it():
    with pytest.raises(ValueError, match="^m must be at least 1, got 0$"):
        confcohom.poincare_unordered_config(BUILTIN_SPACES["c"], 0)
    with pytest.raises(ValueError, match="^m must be at least 3, got 2$"):
        confcohom.poincare_exactly(BUILTIN_SPACES["c"], 3, 2)


@pytest.mark.parametrize(
    "call, error, name",
    [
        (lambda: CycleType(3, (-1, 2, 0)), ValueError, "mult[0] must be at least 0, got -1"),
        (lambda: CycleType(2, (0.0, 1)), TypeError, "mult[0] must be an int, not float"),
        (lambda: Permutation((True, False)), TypeError, "images[0] must be an int, not bool"),
        (
            lambda: confcohom.symmetric_group_character((2, True), (1, 1, 1)),
            TypeError,
            "shape[1] must be an int, not bool",
        ),
        (
            lambda: confcohom.symmetric_group_character((2, 1), (1, 1.0, 1)),
            TypeError,
            "mu[1] must be an int, not float",
        ),
    ],
    ids=["CycleType-negative", "CycleType-float", "Permutation-bool", "character-shape",
         "character-mu"],
)
def test_malformed_tuple_entries_are_refused_by_name(call, error, name):
    with pytest.raises(error, match=f"^{re.escape(name)}$"):
        call()


def test_a_negative_p_exponent_is_refused():
    with pytest.raises(ValueError, match="negative P-exponent"):
        BiPoly.term(1, -1, 0)
    with pytest.raises(ValueError, match="negative P-exponent"):
        BiPoly({(0, 0): 1, (-2, 1): 0})


def test_all_cycle_types_is_capped_on_every_call(monkeypatch):
    monkeypatch.delenv("CONFCOHOM_MAX_M", raising=False)
    with pytest.raises(CostCapExceeded, match="capped at m = 12"):
        confcohom.all_cycle_types(13)
    assert len(confcohom.all_cycle_types(5)) == 7  # now cached
    monkeypatch.setenv("CONFCOHOM_MAX_M", "4")
    with pytest.raises(CostCapExceeded, match="capped at m = 4"):
        confcohom.all_cycle_types(5)

"""Acceptance suite: one test per criterion, exact equality throughout.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion with its runtime.
"""

import itertools
import math
import time

from confcohom import (
    BUILTIN_SPACES,
    CycleType,
    LaurentPoly,
    Permutation,
    SpaceSpec,
    all_cycle_types,
    at_most_trace,
    config_series,
    exactly_trace,
    group_closure,
    poincare_config_ordinary,
    poincare_cyclic_config,
    poincare_symmetric_product,
    poincare_unordered_config,
    power_trace,
    quotient_poincare,
    reconstruct_config_series,
    stability_report,
    stirling_first_signed,
    stirling_second,
    tensor_trace_oracle,
    universal_poly,
)
from confcohom.groups import representative
from confcohom.oracles import symmetric_product_generating_function
from confcohom.cli import main

ACYCLIC_FIXTURES = [
    BUILTIN_SPACES[name]
    for name in ("r1", "r2", "r3", "r4", "c", "cstar", "c_minus_1", "c_minus_2", "c_minus_3")
]

PLANE = BUILTIN_SPACES["c"]


class _Timer:
    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        return False


def _report(number: int, name: str, timer: _Timer) -> None:
    print(f"criterion {number:02d} {name}: PASS ({timer.elapsed:.2f}s)")


def test_criterion_01_universal_polynomial_table():
    expected = {
        1: {(1, 0): 1},
        2: {(2, 0): 31, (1, 1): 30},
        3: {(3, 0): 90, (2, 1): 239, (1, 2): 150},
        4: {(4, 0): 65, (3, 1): 300, (2, 2): 476, (1, 3): 240},
        5: {(5, 0): 15, (4, 1): 85, (3, 2): 225, (2, 3): 274, (1, 4): 120},
        6: {(6, 0): 1},
    }
    with _Timer() as t:
        for distinct in range(1, 7):
            q = universal_poly(distinct, 6, closed=True)
            assert dict(q.items()) == expected[distinct], distinct
    assert t.elapsed < 1.0
    _report(1, "universal-polynomial-table", t)


def test_criterion_02_unordered_plane_stability():
    with _Timer() as t:
        for m in range(2, 11):
            p = poincare_unordered_config(PLANE, m)
            dual = [p.coeff(2 * m - i) for i in range(2 * m + 1)]
            assert dual[0] == 1
            assert dual[1] == 1
            assert all(b == 0 for b in dual[2:]), (m, dual)
    assert t.elapsed < 10.0
    _report(2, "unordered-plane-dual-betti", t)


def test_criterion_03_first_betti_of_plane_configurations():
    with _Timer() as t:
        for m in range(1, 11):
            assert poincare_config_ordinary(PLANE, m).coeff(1) == math.comb(m, 2)
    _report(3, "ordinary-first-betti", t)


def test_criterion_04_assembly_identity():
    with _Timer() as t:
        for space in ACYCLIC_FIXTURES:
            for m in range(1, 7):
                for ctype in all_cycle_types(m):
                    alpha = representative(ctype)
                    assert at_most_trace(space, m, m, alpha) == power_trace(
                        space, ctype
                    ), (space.name, m, ctype)
    assert t.elapsed < 60.0
    _report(4, "assembly-identity", t)


def test_criterion_05_oracle_triangle():
    with _Timer() as t:
        for space in ACYCLIC_FIXTURES:
            for m in range(1, 7):
                direct = config_series(space, m)
                assert reconstruct_config_series(space, m) == direct, (space.name, m)
                for ctype in all_cycle_types(m):
                    alpha = representative(ctype)
                    assert exactly_trace(space, m, m, alpha) == direct[ctype]
    _report(5, "oracle-triangle", t)


def test_criterion_06_tensor_trace_oracle():
    with _Timer() as t:
        for dims in itertools.product(range(4), repeat=4):
            if not 1 <= sum(dims) <= 3:
                continue
            pc = LaurentPoly.from_coeffs(dims)
            space = SpaceSpec("probe", pc, 3, i_acyclic=False)
            for m in range(1, 6):
                for ctype in all_cycle_types(m):
                    assert power_trace(space, ctype) == tensor_trace_oracle(
                        dims, ctype
                    ), (dims, m, ctype)
    _report(6, "tensor-trace-oracle", t)


def test_criterion_07_quotients_match_subgroup_averaging():
    with _Timer() as t:
        closures = {}
        for m in range(1, 9):
            rotation = representative(CycleType.from_parts((m,))) if m > 1 else Permutation.identity(1)
            closures[("cyc", m)] = group_closure([rotation], m)
            gens = []
            if m >= 2:
                gens.append(Permutation.from_cycles(m, [[1, 2]]))
            if m >= 3:
                gens.append(Permutation.from_cycles(m, [list(range(1, m + 1))]))
            closures[("sym", m)] = group_closure(gens, m)
        for space in ACYCLIC_FIXTURES:
            for m in range(1, 9):
                series = config_series(space, m)
                cf = poincare_cyclic_config(space, m)
                bf = poincare_unordered_config(space, m)
                order, counts = closures[("cyc", m)]
                assert cf == quotient_poincare(series, counts, order)
                order, counts = closures[("sym", m)]
                assert bf == quotient_poincare(series, counts, order)
                assert cf.has_nonnegative_coeffs()
                assert bf.has_nonnegative_coeffs()
    _report(7, "quotient-averaging", t)


def test_criterion_08_prime_order_divisibility():
    with _Timer() as t:
        for coeffs in itertools.product(range(3), repeat=4):
            pc = LaurentPoly({e + 1: c for e, c in enumerate(coeffs)})
            space = SpaceSpec("probe", pc, 4, i_acyclic=True)
            for p in (2, 3, 5, 7):
                poincare_cyclic_config(space, p)  # exact division must succeed
    _report(8, "prime-order-divisibility", t)


def test_criterion_09_stirling_suite():
    with _Timer() as t:
        n = 12
        # recurrence vs. inclusion-exclusion formula
        for i in range(n + 1):
            for j in range(n + 1):
                explicit = sum(
                    (-1) ** (j - k) * math.comb(j, k) * k**i for k in range(j + 1)
                )
                assert explicit % math.factorial(j) == 0
                assert stirling_second(i, j) == explicit // math.factorial(j)
        # mutual inversion of the two kinds
        for i in range(n + 1):
            for j in range(n + 1):
                delta = 1 if i == j else 0
                assert delta == sum(
                    stirling_first_signed(i, k) * stirling_second(k, j)
                    for k in range(n + 1)
                )
                assert delta == sum(
                    stirling_second(i, k) * stirling_first_signed(k, j)
                    for k in range(n + 1)
                )
    _report(9, "stirling-suite", t)


def test_criterion_10_representation_stability():
    with _Timer() as t:
        for degree in (0, 1, 2):
            report = stability_report(PLANE, degree, 0, (1, 10))
            assert report.monotone_from == degree
            assert report.stable_from == 4 * degree
            assert report.monotone_ok, ("plane", degree)
            assert report.constant_ok, ("plane", degree)
        space = BUILTIN_SPACES["r3"]
        for degree in (0, 1, 2):
            report = stability_report(space, degree, 0, (1, 10))
            assert report.stable_from == 2 * degree
            assert report.monotone_ok, ("r3", degree)
            assert report.constant_ok, ("r3", degree)
    assert t.elapsed < 300.0
    _report(10, "representation-stability", t)


def test_criterion_11symmetric_product_generating_function():
    with _Timer() as t:
        for coeffs in itertools.product(range(2), repeat=4):
            for extra in ((), (2,)):
                dense = list(coeffs)
                for e in extra:
                    dense[1] = e
                pc = LaurentPoly({i + 1: c for i, c in enumerate(dense)})
                space = SpaceSpec(
                    "probe", pc, 4, i_acyclic=False, orientable=False
                )
                for m in range(1, 9):
                    result = poincare_symmetric_product(space, m)
                    assert result == symmetric_product_generating_function(pc, m)
    _report(11, "symmetric-product-generating-function", t)


def test_criterion_12_negative_fixture_refusal(capsys):
    gated = [
        ["poincare", "--space", "klein_pointed", "--target", "fm", "--m", "2"],
        ["poincare", "--space", "klein_pointed", "--target", "delta", "--m", "2", "--l", "2"],
        ["poincare", "--space", "klein_pointed", "--target", "delta_le", "--m", "2", "--l", "2"],
        ["poincare", "--space", "klein_pointed", "--target", "ordinary", "--m", "2"],
        ["poincare", "--space", "klein_pointed", "--target", "cf", "--m", "2"],
        ["poincare", "--space", "klein_pointed", "--target", "bf", "--m", "2"],
        ["character", "--space", "klein_pointed", "--m", "2", "--cycle-type", "2"],
        ["character", "--space", "klein_pointed", "--m", "2", "--all"],
        ["quotient", "--space", "klein_pointed", "--m", "2", "--generators", "(1 2)"],
        ["stability", "--space", "klein_pointed", "--i", "0", "--a", "0", "--range", "1..3"],
    ]
    with _Timer() as t:
        for argv in gated:
            code = main(argv)
            capsys.readouterr()
            assert code == 2, argv
    _report(12, "negative-fixture-refusal", t)

import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from confcohom import (
    CycleType,
    LaurentPoly,
    charseries,
    checks,
    cli,
    combinat,
    confspace,
    limits,
    oracles,
)
from confcohom.cli import (
    BUILTIN_SPACES,
    answer_digits,
    main,
    parse_cycle_type,
    parse_generators,
    parse_range,
    space_from_document,
)
from confcohom.errors import (
    ConsistencyError,
    CostCapExceeded,
    HypothesisViolation,
    InputParseError,
)
from confcohom.polyarith import ONE, BiPoly


_CYCLE_CAP = "cycle-type computations are capped at m = 12"


def _transposition_and_long_cycle(m: int) -> str:
    return f"(1 2);({' '.join(map(str, range(1, m + 1)))})"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestParsers:
    def test_cycle_type(self):
        ct = parse_cycle_type("1^1,2^1", 3)
        assert ct.mult == (1, 1, 0)

    def test_cycle_type_bare_number(self):
        assert parse_cycle_type("3", 3).parts == (3,)

    def test_cycle_type_size_mismatch(self):
        with pytest.raises(InputParseError):
            parse_cycle_type("2^2", 3)

    def test_cycle_type_garbage(self):
        with pytest.raises(InputParseError):
            parse_cycle_type("x^y", 3)

    def test_generators(self):
        gens = parse_generators("(1 2 3);(1 2)", 3)
        assert len(gens) == 2
        assert gens[0].cycle_type().parts == (3,)

    def test_generators_comma_style(self):
        (g,) = parse_generators("(1,2)(3,4)", 4)
        assert g.cycle_type().parts == (2, 2)

    @pytest.mark.parametrize("text", [")(", "(1 2))(", "(1 2)(3"])
    def test_generators_misordered_parentheses(self, text):
        with pytest.raises(InputParseError, match="unbalanced parentheses"):
            parse_generators(text, 4)

    def test_generators_bare_cycle(self):
        (g,) = parse_generators("1 2 3", 3)
        assert g.cycle_type().parts == (3,)

    @pytest.mark.parametrize("chunk", ["(1 2) 3", "x(1 2)", "(1 2)junk(3)", "(1 2),(3 4)"])
    def test_generators_text_outside_the_cycles(self, chunk):
        with pytest.raises(InputParseError, match=re.escape(f"outside the cycles in {chunk!r}")):
            parse_generators(f"(1 2);{chunk}", 4)

    def test_range(self):
        assert parse_range("2..10") == (2, 10)
        with pytest.raises(InputParseError):
            parse_range("5..2")
        with pytest.raises(InputParseError):
            parse_range("abc")

    def test_space_document_unknown_key(self):
        doc = {
            "name": "x",
            "poincare_c": [0, 0, 1],
            "dim": 2,
            "i_acyclic": True,
            "bogus": 1,
        }
        with pytest.raises(InputParseError):
            space_from_document(doc)

    def test_space_document_missing_key(self):
        with pytest.raises(InputParseError):
            space_from_document({"name": "x"})

    def test_space_document_roundtrip(self):
        doc = {
            "name": "plane",
            "poincare_c": [0, 0, 1],
            "dim": 2,
            "i_acyclic": True,
            "orientable": True,
        }
        space = space_from_document(doc)
        assert space.pc == LaurentPoly.from_coeffs([0, 0, 1])
        assert space.orientable and space.connected


class TestCommands:
    def test_poincare_fm(self, capsys):
        doc = run_json(capsys, "poincare", "--space", "c", "--target", "fm", "--m", "3")
        assert doc["result"]["coefficients"] == {"4": 2, "5": 3, "6": 1}
        assert all(check["passed"] for check in doc["checks"])

    def test_poincare_fm_zero_points(self, capsys):
        doc = run_json(capsys, "poincare", "--space", "c", "--target", "fm", "--m", "0")
        assert doc["result"]["coefficients"] == {"0": 1}

    def test_poincare_bf(self, capsys):
        doc = run_json(capsys, "poincare", "--space", "c", "--target", "bf", "--m", "3")
        assert doc["result"]["coefficients"] == {"5": 1, "6": 1}

    def test_poincare_delta_requires_l(self, capsys):
        code, _out, err = run(
            capsys, "poincare", "--space", "c", "--target", "delta", "--m", "3"
        )
        assert code == 3
        assert "input-parse-error" in err

    def test_character_single(self, capsys):
        doc = run_json(
            capsys, "character", "--space", "c", "--m", "3", "--cycle-type", "3"
        )
        assert doc["result"]["coefficients"] == {"4": -1, "6": 1}

    def test_character_identity(self, capsys):
        doc = run_json(
            capsys, "character", "--space", "c", "--m", "2", "--cycle-type", "1^2"
        )
        assert doc["result"]["coefficients"] == {"3": -1, "4": 1}

    def test_character_all_has_triangle_check(self, capsys):
        doc = run_json(capsys, "character", "--space", "c", "--m", "3", "--all")
        names = {c["name"] for c in doc["checks"]}
        assert "oracle-triangle" in names
        assert all(c["passed"] for c in doc["checks"])

    def test_character_refuses_cycle_type_with_all(self, capsys):
        code, out, err = run(
            capsys, "character", "--space", "c", "--m", "3", "--all", "--cycle-type", "zzz"
        )
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"] == {
            "category": "input-parse-error",
            "message": "character takes --cycle-type or --all, not both",
        }

    def test_character_bad_type_exit_code(self, capsys):
        code, _out, err = run(
            capsys, "character", "--space", "c", "--m", "3", "--cycle-type", "2^2"
        )
        assert code == 3

    def test_universal_reference_row(self, capsys):
        doc = run_json(capsys, "universal", "--l", "3", "--m", "6", "--closed")
        assert doc["result"]["coefficients"] == {"3,0": 90, "2,1": 239, "1,2": 150}

    def test_quotient_cyclic(self, capsys):
        doc = run_json(
            capsys,
            "quotient",
            "--space",
            "c",
            "--m",
            "3",
            "--generators",
            "(1 2 3)",
        )
        assert doc["inputs"]["order"] == 3
        assert doc["result"]["coefficients"] == {"5": 1, "6": 1}

    @pytest.mark.parametrize("m", range(1, 8))
    def test_quotient_by_symmetric_group_is_unordered(self, capsys, m):
        gens = f"(1 2);({' '.join(map(str, range(1, m + 1)))})" if m > 1 else ""
        quotient = run_json(
            capsys, "quotient", "--space", "cstar", "--m", str(m), "--generators", gens
        )
        unordered = run_json(
            capsys, "poincare", "--space", "cstar", "--target", "bf", "--m", str(m)
        )
        assert quotient["inputs"]["order"] == math.factorial(m)
        assert quotient["result"] == unordered["result"]

    def test_stability(self, capsys):
        doc = run_json(
            capsys,
            "stability",
            "--space",
            "c",
            "--i",
            "1",
            "--a",
            "0",
            "--range",
            "1..6",
        )
        assert doc["result"]["rows"]["(2)"]["6"] == 1
        names = {c["name"]: c["passed"] for c in doc["checks"]}
        assert names["monotone-from-1"]
        assert names["constant-from-4"]


class TestExitCodes:
    def test_hypothesis_violation_is_2(self, capsys):
        for target in ("fm", "delta", "delta_le", "ordinary", "cf", "bf"):
            argv = [
                "poincare",
                "--space",
                "klein_pointed",
                "--target",
                target,
                "--m",
                "2",
            ]
            if target in ("delta", "delta_le"):
                argv += ["--l", "2"]
            code, _out, err = run(capsys, *argv)
            assert code == 2, target
            assert json.loads(err)["error"]["flag"] == "i_acyclic"

    def test_products_do_not_require_flag(self, capsys):
        for target in ("sym", "cyc"):
            code, _out, _err = run(
                capsys,
                "poincare",
                "--space",
                "klein_pointed",
                "--target",
                target,
                "--m",
                "2",
            )
            assert code == 0

    def test_character_refusal_is_2(self, capsys):
        code, _out, _err = run(
            capsys, "character", "--space", "klein_pointed", "--m", "2", "--all"
        )
        assert code == 2

    def test_quotient_refusal_is_2(self, capsys):
        code, _out, _err = run(
            capsys, "quotient", "--space", "klein_pointed", "--m", "2"
        )
        assert code == 2

    def test_stability_refusal_is_2(self, capsys):
        code, _out, _err = run(
            capsys,
            "stability",
            "--space",
            "klein_pointed",
            "--i",
            "0",
            "--a",
            "0",
            "--range",
            "1..3",
        )
        assert code == 2

    def test_unknown_space_is_3(self, capsys):
        code, _out, _err = run(
            capsys, "poincare", "--space", "no_such", "--target", "fm", "--m", "2"
        )
        assert code == 3

    def test_usage_error_is_3_not_2(self, capsys):
        # a missing required flag is a parse problem, not a hypothesis one
        code, _out, _err = run(capsys, "poincare", "--space", "c", "--target", "fm")
        assert code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ("poincare", "--space", "c", "--target", "delta", "--l", "5", "--m", "2"),
            ("poincare", "--space", "c", "--target", "fm", "--m", "-1"),
            ("stability", "--space", "c", "--i", "1", "--range", "0..0"),
            ("poincare", "--space", "c", "--target", "delta", "--l", "0", "--m", "2"),
            ("poincare", "--space", "c", "--target", "cf", "--m", "0"),
            ("stability", "--space", "c", "--i", "-1", "--range", "1..3"),
            ("stability", "--space", "c", "--i", "1", "--a", "3", "--range", "1..3"),
            ("universal", "--l", "3", "--m", "2"),
            ("character", "--space", "c", "--m", "-1", "--all"),
            ("quotient", "--space", "c", "--m", "-1"),
            ("quotient", "--space", "c", "--m", "4", "--generators", ")("),
        ],
    )
    def test_out_of_domain_arguments_are_3(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"]["category"] == "input-parse-error"

    @pytest.mark.parametrize(
        "generators, message",
        [
            ("(1 1)", "cycles are not disjoint at 1"),
            ("(1 2)(2 3)", "cycles are not disjoint at 2"),
            ("(1 2);(3 3)", "cycles are not disjoint at 3"),
            ("(1 4)", "cycle '1 4' out of range for m = 3"),
        ],
    )
    def test_bad_generators_name_the_label_as_written(self, capsys, generators, message):
        code, out, err = run(
            capsys, "quotient", "--space", "c", "--m", "3", "--generators", generators
        )
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"] == {"category": "input-parse-error", "message": message}

    def test_boolean_betti_numbers_are_3(self, capsys, tmp_path):
        space_file = tmp_path / "bools.json"
        space_file.write_text(
            json.dumps(
                {
                    "name": "bools",
                    "poincare_c": [False, False, True],
                    "dim": 2,
                    "i_acyclic": True,
                }
            )
        )
        code, _out, err = run(
            capsys, "poincare", "--space", str(space_file), "--target", "fm", "--m", "2"
        )
        assert code == 3
        assert "input-parse-error" in err

    @pytest.mark.parametrize(
        "spec, shown", [("./bad.json", "bad.json"), ("sub//./bad.json", "sub/bad.json")]
    )
    def test_invalid_json_names_the_normalised_path(
        self, capsys, tmp_path, monkeypatch, spec, shown
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        for name in ("bad.json", "sub/bad.json"):
            (tmp_path / name).write_text("{not json")
        code, out, err = run(capsys, "poincare", "--space", spec, "--target", "fm", "--m", "2")
        assert code == 3
        assert out == ""
        message = json.loads(err)["error"]["message"]
        assert message.startswith(f"invalid JSON in {shown}: ")

    def test_unreadable_space_file_is_3(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "poincare", "--space", str(tmp_path), "--target", "fm", "--m", "2"
        )
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"]["category"] == "input-parse-error"

    def test_integer_past_the_digit_limit_is_3(self, capsys, tmp_path, digit_limit_640):
        # json.load raises a plain ValueError, which main reads as a result
        # past the limit unless the space file's reader catches it
        space_file = tmp_path / "huge.json"
        coeffs = f"[0, 1{'0' * 700}]"
        space_file.write_text(
            f'{{"name": "huge", "poincare_c": {coeffs}, "dim": 2, "i_acyclic": true}}'
        )
        code, out, err = run(
            capsys, "poincare", "--space", str(space_file), "--target", "fm", "--m", "2"
        )
        assert code == 3
        assert out == ""
        error = json.loads(err)["error"]
        assert error["category"] == "input-parse-error"
        assert error["message"].startswith(f"cannot read space file {space_file}: ")

    @pytest.mark.parametrize("name", [None, 7, ["c"]])
    def test_name_that_is_not_a_string_is_3(self, capsys, tmp_path, name):
        space_file = tmp_path / "named.json"
        space_file.write_text(
            json.dumps({"name": name, "poincare_c": [0, 0, 1], "dim": 2, "i_acyclic": True})
        )
        code, out, err = run(
            capsys, "poincare", "--space", str(space_file), "--target", "fm", "--m", "2"
        )
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"] == {
            "category": "input-parse-error",
            "message": "name must be a string",
        }

    @pytest.mark.parametrize("m", [11, 12])
    def test_symmetric_quotient_past_the_closure_cap_answers(self, capsys, monkeypatch, m):
        def listed(*_args):
            raise AssertionError("an element was listed")

        monkeypatch.setattr(combinat, "group_closure", listed)
        quotient = run_json(
            capsys, "quotient", "--space", "c", "--m", str(m),
            "--generators", _transposition_and_long_cycle(m),
        )
        unordered = run_json(capsys, "poincare", "--space", "c", "--target", "bf", "--m", str(m))
        assert quotient["result"] == unordered["result"]
        assert quotient["inputs"]["order"] == math.factorial(m)

    def test_over_cap_quotient_is_refused_from_its_order(self, capsys, monkeypatch):
        def listed(*_args):
            raise AssertionError("an element was listed")

        monkeypatch.setattr(combinat, "group_closure", listed)
        monkeypatch.setattr(combinat, "symmetric_counts", listed)
        # S_11 fixing a point of 12: order 11!, past the 10! cap, and not S_12
        gens = f"(1 2);({' '.join(map(str, range(1, 12)))})"
        code, out, err = run(
            capsys, "quotient", "--space", "c", "--m", "12", "--generators", gens
        )
        assert code == 5
        assert out == ""
        assert json.loads(err)["error"] == {
            "category": "cost-cap-exceeded",
            "message": "subgroup closure exceeded the cap of 3628800 elements",
        }

    @pytest.mark.parametrize(
        "space, m, gens, code, message",
        [
            ("c", 13, _transposition_and_long_cycle(13), 5, _CYCLE_CAP),
            ("c", 2000, _transposition_and_long_cycle(2000), 5, _CYCLE_CAP),
            ("klein_pointed", 11, _transposition_and_long_cycle(11), 2, "hypothesis"),
            # generators are parsed into m-sized permutations only after both
            ("c", 3_000_000, "(1 2)", 5, _CYCLE_CAP),
            ("c", 13, "(1 2", 5, _CYCLE_CAP),
            ("klein_pointed", 4, "(1 5)", 2, "hypothesis"),
        ],
        ids=[
            f"c-13-5-{_CYCLE_CAP}",
            f"c-2000-5-{_CYCLE_CAP}",
            "klein_pointed-11-2-hypothesis",
            f"c-3000000-(1 2)-5-{_CYCLE_CAP}",
            f"c-13-(1 2-5-{_CYCLE_CAP}",
            "klein_pointed-4-(1 5)-2-hypothesis",
        ],
    )
    def test_quotient_checks_hypothesis_and_cycle_cap_before_the_group(
        self, capsys, monkeypatch, space, m, gens, code, message
    ):
        def built(*_args):
            raise AssertionError("the group was built")

        monkeypatch.setattr(cli, "subgroup_class_counts", built)
        exit_code, out, err = run(
            capsys, "quotient", "--space", space, "--m", str(m), "--generators", gens
        )
        assert exit_code == code
        assert out == ""
        assert message in json.loads(err)["error"]["message"]

    def test_quotient_class_count_mismatch_is_4(self, capsys, monkeypatch):
        miscounted = _one_element_too_many(cli.subgroup_class_counts)
        monkeypatch.setattr(cli, "subgroup_class_counts", miscounted)
        code, out, err = run(
            capsys, "quotient", "--space", "c", "--m", "4", "--generators", "(1 2 3 4)"
        )
        assert code == 4
        assert out == ""
        assert json.loads(err)["error"] == {
            "category": "consistency-error",
            "message": "class counts sum to 5, not to the group order 4",
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ("quotient", "--space", "c", "--m", "100"),
            ("character", "--space", "c", "--m", "100", "--all"),
        ],
    )
    def test_series_past_the_cap_is_refused_before_listing_cycle_types(self, capsys, argv):
        # p(100) is about 1.9e8 cycle types; the cap must fire before they are listed
        code, out, err = run(capsys, *argv)
        assert code == 5
        assert out == ""
        assert "cycle-type computations are capped" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("quotient", "--space", "c", "--m", "3000000", "--generators", "(1 2)"),
            ("character", "--space", "c", "--m", "3000000", "--cycle-type", "1^3000000"),
            ("stability", "--space", "c", "--i", "1", "--range", "1..3000000"),
        ],
        ids=["quotient", "character", "stability"],
    )
    def test_past_the_cap_nothing_m_sized_is_built(self, capsys, argv):
        # a permutation, a multiplicity vector or a list of the m values of
        # the range, at three million entries, would take tens of MB
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (5, "")
        assert json.loads(err)["error"]["message"] == _CYCLE_CAP
        assert peak < 10_000_000

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_cost_cap_is_5(self, capsys):
        code, _out, err = run(
            capsys, "poincare", "--space", "c", "--target", "bf", "--m", "200"
        )
        assert code == 5
        assert "cost-cap-exceeded" in err

    @pytest.mark.parametrize(
        "error, category, code",
        [
            (HypothesisViolation, "hypothesis-violation", 2),
            (InputParseError, "input-parse-error", 3),
            (ConsistencyError, "consistency-error", 4),
            (CostCapExceeded, "cost-cap-exceeded", 5),
        ],
    )
    def test_each_error_class_owns_its_category_and_exit_code(self, error, category, code):
        assert (error.category, error.exit_code) == (category, code)

    @pytest.mark.parametrize(
        "error, payload, code",
        [
            (
                HypothesisViolation("orientable", "raised by a stub"),
                {
                    "category": "hypothesis-violation",
                    "flag": "orientable",
                    "message": "hypothesis violation: requires orientable (raised by a stub)",
                },
                2,
            ),
            (
                InputParseError("raised by a stub"),
                {"category": "input-parse-error", "message": "raised by a stub"},
                3,
            ),
            (
                ConsistencyError("raised by a stub"),
                {"category": "consistency-error", "message": "raised by a stub"},
                4,
            ),
            (
                CostCapExceeded("raised by a stub"),
                {"category": "cost-cap-exceeded", "message": "raised by a stub"},
                5,
            ),
        ],
        ids=["hypothesis", "parse", "consistency", "cost"],
    )
    def test_main_reports_every_error_class_from_the_class(
        self, capsys, monkeypatch, error, payload, code
    ):
        def raising(_args):
            raise error

        monkeypatch.setattr(cli, "cmd_universal", raising)
        got, out, err = run(capsys, "universal", "--l", "1", "--m", "2")
        assert (got, out) == (code, "")
        assert json.loads(err) == {"error": payload}


class TestDeterminismAndRoundTrip:
    def test_identical_runs_byte_identical(self, capsys):
        args = ("poincare", "--space", "c", "--target", "fm", "--m", "4")
        _code, out1, _ = run(capsys, *args)
        _code, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_byte_identical_across_processes(self):
        import subprocess
        import sys

        cmd = [
            sys.executable,
            "-m",
            "confcohom.cli",
            "character",
            "--space",
            "cstar",
            "--m",
            "4",
            "--all",
        ]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout  # non-empty

    def test_polynomial_roundtrip(self, capsys):
        doc = run_json(capsys, "poincare", "--space", "cstar", "--target", "fm", "--m", "3")
        poly = LaurentPoly({int(e): v for e, v in doc["result"]["coefficients"].items()})
        from confcohom import BUILTIN_SPACES, poincare_config

        assert poly == poincare_config(BUILTIN_SPACES["cstar"], 3)

    def test_space_file_loading(self, capsys, tmp_path):
        space_file = tmp_path / "plane.json"
        space_file.write_text(
            json.dumps(
                {
                    "name": "my-plane",
                    "poincare_c": [0, 0, 1],
                    "dim": 2,
                    "i_acyclic": True,
                    "orientable": True,
                }
            )
        )
        doc = run_json(
            capsys, "poincare", "--space", str(space_file), "--target", "fm", "--m", "3"
        )
        assert doc["result"]["coefficients"] == {"4": 2, "5": 3, "6": 1}
        assert doc["inputs"]["space"] == "my-plane"

    def test_plain_format(self, capsys):
        code, out, _ = run(
            capsys,
            "poincare",
            "--space",
            "c",
            "--target",
            "fm",
            "--m",
            "3",
            "--format",
            "plain",
        )
        assert code == 0
        assert "2T^4 + 3T^5 + T^6" in out

    def test_latex_format(self, capsys):
        code, out, _ = run(
            capsys,
            "poincare",
            "--space",
            "c",
            "--target",
            "fm",
            "--m",
            "3",
            "--format",
            "latex",
        )
        assert code == 0
        assert "T^{4}" in out


class TestGoldenRender:
    """Exact human-readable stdout, pinned term by term."""

    @pytest.mark.parametrize(
        "fmt, line",
        [
            ("plain", "1 + T + 2T^2 + 2T^3 + 3T^4"),
            ("latex", "1 + T + 2T^{2} + 2T^{3} + 3T^{4}"),
        ],
    )
    def test_polynomial(self, capsys, tmp_path, fmt, line):
        space_file = tmp_path / "golden.json"
        space_file.write_text(
            json.dumps(
                {"name": "golden", "poincare_c": [1, 1, 2], "dim": 2, "i_acyclic": False}
            )
        )
        code, out, _ = run(
            capsys, "poincare", "--space", str(space_file), "--target", "sym",
            "--m", "2", "--format", fmt,
        )
        assert code == 0
        assert out == (
            "command: poincare\n  m: 2\n  space: golden\n  target: sym\n"
            f"result:\n  {line}\nchecks:\n  [pass] generating-function\n"
        )

    @pytest.mark.parametrize(
        "fmt, lines",
        [
            ("plain", ["T^4 - 2T^5 + T^6", "-6T^3 + 11T^4 - 6T^5 + T^6", "-T^4 + T^6"]),
            (
                "latex",
                ["T^{4} - 2T^{5} + T^{6}", "-6T^{3} + 11T^{4} - 6T^{5} + T^{6}", "-T^{4} + T^{6}"],
            ),
        ],
    )
    def test_series_with_negative_entries(self, capsys, fmt, lines):
        code, out, _ = run(
            capsys, "character", "--space", "cstar", "--m", "3", "--all", "--format", fmt
        )
        assert code == 0
        assert out == (
            "command: character\n  cycle_type: all\n  m: 3\n  space: cstar\n"
            f"result:\n  1^1,2^1: {lines[0]}\n  1^3: {lines[1]}\n  3^1: {lines[2]}\n"
            "checks:\n  [pass] oracle-triangle\n"
        )

    @pytest.mark.parametrize("fmt", ["plain", "latex"])
    @pytest.mark.parametrize(
        "l, line", [("3", "36 P T^2 + 60 P^2 T + 25 P^3"), ("1", "P")]
    )
    def test_bivariate(self, capsys, fmt, l, line):
        code, out, _ = run(
            capsys, "universal", "--l", l, "--m", "5", "--closed", "--format", fmt
        )
        assert code == 0
        assert out == (
            f"command: universal\n  closed: True\n  l: {l}\n  m: 5\n"
            f"result:\n  {line}\nchecks:\n  [pass] evaluates-on-reference-space\n"
        )


    @pytest.mark.parametrize(
        "fmt, first, last",
        [
            ("plain", "39916800 P T^10 + ", " + 1925 P^10 T + 66 P^11"),
            ("latex", "39916800 P T^{10} + ", " + 1925 P^{10} T + 66 P^{11}"),
        ],
    )
    def test_bivariate_two_digit_exponents(self, capsys, fmt, first, last):
        code, out, _ = run(
            capsys, "universal", "--l", "11", "--m", "12", "--closed", "--format", fmt
        )
        assert code == 0
        line = out.splitlines()[5]
        assert line.startswith("  " + first)
        assert line.endswith(last)
        assert " + 120543840 P^2 T^9 + " in line


class TestProductChecks:
    """The sym/cyc checks compare two routes: corrupting either one shows."""

    ARGS = {
        "sym": ("poincare", "--space", "cstar", "--target", "sym", "--m", "4"),
        "cyc": ("poincare", "--space", "cstar", "--target", "cyc", "--m", "4"),
    }

    @pytest.mark.parametrize(
        "target, route, name",
        [
            ("sym", "poincare_symmetric_product", "generating-function"),
            ("cyc", "poincare_cyclic_product", "subgroup-averaging"),
        ],
    )
    def test_corrupted_closed_form_fails_check(self, capsys, monkeypatch, target, route, name):
        doc = run_json(capsys, *self.ARGS[target])
        assert doc["checks"] == [{"name": name, "passed": True}]
        original = getattr(charseries, route)
        monkeypatch.setattr(charseries, route, lambda space, m: original(space, m) + 1)
        doc = run_json(capsys, *self.ARGS[target])
        assert doc["checks"] == [{"name": name, "passed": False}]

    def test_corrupted_generating_function_changes_outcome(self, capsys, monkeypatch):
        monkeypatch.setattr(oracles, "symmetric_product_generating_function", lambda pc, m: ONE)
        doc = run_json(capsys, *self.ARGS["sym"])
        assert doc["checks"] == [{"name": "generating-function", "passed": False}]

    def test_corrupted_closure_changes_outcome(self, capsys, monkeypatch):
        # the whole cyclic group replaced by its identity element
        def trivial_closure(gens, m):
            return 1, {CycleType.identity(m): 1}

        monkeypatch.setattr(combinat, "group_closure", trivial_closure)
        doc = run_json(capsys, *self.ARGS["cyc"])
        assert doc["checks"] == [{"name": "subgroup-averaging", "passed": False}]


def _counting(monkeypatch, module, name):
    """Wrap ``module.name`` so that each call is counted; returns the tally."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestWorkCounts:
    """Each route runs once per answer; its check reads other work."""

    @pytest.mark.parametrize("target", ["fm", "ordinary"])
    def test_one_falling_product(self, capsys, monkeypatch, target):
        calls = _counting(monkeypatch, confspace, "falling_product")
        run_json(capsys, "poincare", "--space", "cstar", "--target", target, "--m", "4")
        assert len(calls) == 1

    def test_one_generating_function(self, capsys, monkeypatch):
        calls = _counting(monkeypatch, oracles, "symmetric_product_generating_function")
        run_json(capsys, *TestProductChecks.ARGS["sym"])
        assert len(calls) == 1

    def test_cyclic_product_builds_no_series(self, capsys, monkeypatch):
        calls = _counting(monkeypatch, charseries, "power_series")
        run_json(capsys, *TestProductChecks.ARGS["cyc"])
        assert calls == []

    def test_series_builds_each_factor_once(self, monkeypatch):
        falling = _counting(monkeypatch, charseries, "falling_product")
        kernels = _counting(monkeypatch, charseries, "_divisor_kernel")
        charseries.config_series(cli.BUILTIN_SPACES["c"], 12)
        assert len(falling) <= 35  # one per (d, x) with d * x <= 12
        assert len(kernels) <= 12

    def test_unordered_route_visits_no_cycle_type(self, monkeypatch):
        calls = _counting(monkeypatch, charseries, "config_trace")
        charseries.poincare_unordered_config(cli.BUILTIN_SPACES["cstar"], 12)
        assert calls == []

    def test_universal_builds_each_rising_product_once(self, monkeypatch):
        # a rising factor is P + i*T; the closed case reads 30 products of them
        factors = []
        original = BiPoly.__mul__

        def counted(self, other):
            if isinstance(other, BiPoly) and other.coeff(1, 0) == 1:
                if all(key in ((1, 0), (0, 1)) for key, _v in other.items()):
                    factors.append(other)
            return original(self, other)

        monkeypatch.setattr(BiPoly, "__mul__", counted)
        confspace.universal_poly(30, 60, True)
        assert len(factors) == 30

    def test_cyclic_quotient_checked_past_m_8(self, capsys):
        code, out, err = run(
            capsys, "poincare", "--space", "c", "--target", "cf", "--m", "10", "--format", "plain"
        )
        assert code == 0, err
        assert "  [pass] subgroup-averaging\n" in out

    @pytest.mark.parametrize("m", [7, 12])
    def test_unordered_quotient_checked_past_m_6(self, capsys, m):
        code, out, err = run(
            capsys, "poincare", "--space", "c", "--target", "bf", "--m", str(m), "--format", "plain"
        )
        assert code == 0, err
        assert "  [pass] subgroup-averaging\n" in out


def _digit_limit(limit):
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.fixture
def digit_limit_640():
    """Lower CPython's int-to-str digit limit to its minimum for one test."""
    yield from _digit_limit(640)


@pytest.fixture
def digit_limit_4300():
    """Pin CPython's int-to-str digit limit to its default for one test."""
    yield from _digit_limit(4300)


class TestDigitLimit:
    """Results past the interpreter's int-to-str limit exit 5 in every format."""

    @pytest.mark.parametrize("fmt", ["json", "plain", "latex"])
    def test_result_past_the_limit_is_5(self, capsys, digit_limit_640, fmt):
        # the largest coefficient of the m = 320 polynomial has 664 digits
        code, out, err = run(
            capsys, "poincare", "--space", "c", "--target", "fm", "--m", "320", "--format", fmt
        )
        assert code == 5
        assert out == ""
        assert json.loads(err)["error"] == {
            "category": "cost-cap-exceeded",
            "message": "the result has integers past the int-to-str limit of 640 digits",
        }

    @pytest.mark.parametrize("fmt", ["json", "plain", "latex"])
    def test_result_within_the_limit_answers(self, capsys, digit_limit_640, fmt):
        # 614 digits at m = 300
        code, out, err = run(
            capsys, "poincare", "--space", "c", "--target", "fm", "--m", "300", "--format", fmt
        )
        assert code == 0, err
        assert out

    def test_universal_past_the_limit_refuses_before_any_product(
        self, capsys, monkeypatch, digit_limit_640
    ):
        # S(m, 2) = 2^(m-1) - 1 is a coefficient; at m = 10^9 it has 3 * 10^8 digits
        def never(*args):
            raise AssertionError("universal_poly ran")

        monkeypatch.setattr(confspace, "universal_poly", never)
        code, out, err = run(capsys, "universal", "--l", "2", "--m", "1000000000")
        assert (code, out) == (5, "")
        assert json.loads(err)["error"] == {
            "category": "cost-cap-exceeded",
            "message": "the result has integers past the int-to-str limit of 640 digits",
        }

    @pytest.mark.parametrize("closed", [[], ["--closed"]])
    def test_universal_early_refusal_is_the_render_refusal(
        self, capsys, monkeypatch, digit_limit_640, closed
    ):
        # S(3000, 2) has 903 digits, which the estimate bounds by 903
        argv = ["universal", "--l", "2", "--m", "3000", *closed]
        early = run(capsys, *argv)
        monkeypatch.setattr(limits, "check_result_digits", lambda digits: None)
        assert run(capsys, *argv) == early
        assert early[0] == 5

    @pytest.mark.parametrize("target", ["fm", "ordinary"])
    def test_config_product_past_the_limit_refuses_before_it_runs(
        self, capsys, monkeypatch, digit_limit_4300, target
    ):
        # the largest coefficient at m = 1700 has at least 4,502 digits
        def never(*args):
            raise AssertionError("falling_product ran")

        monkeypatch.setattr(confspace, "falling_product", never)
        code, out, err = run(capsys, "poincare", "--space", "c", "--target", target, "--m", "1700")
        assert (code, out) == (5, "")
        assert json.loads(err)["error"] == {
            "category": "cost-cap-exceeded",
            "message": "the result has integers past the int-to-str limit of 4300 digits",
        }

    def test_config_early_refusal_is_the_render_refusal(
        self, capsys, monkeypatch, digit_limit_4300
    ):
        argv = ["poincare", "--space", "c", "--target", "fm", "--m", "1700"]
        early = run(capsys, *argv)
        monkeypatch.setattr(limits, "check_result_digits", lambda digits: None)
        assert run(capsys, *argv) == early
        assert early[0] == 5

    @pytest.mark.parametrize("space", ["c", "cstar"])
    def test_config_product_within_the_bound_answers(self, capsys, digit_limit_4300, space):
        # the bound reads 3,900 digits at m = 1500 on c
        code, out, err = run(capsys, "poincare", "--space", space, "--target", "fm", "--m", "1500")
        assert code == 0, err
        assert json.loads(out)["result"]["coefficients"]

    @pytest.mark.parametrize("target", ["fm", "ordinary"])
    def test_config_hypothesis_before_the_digit_refusal(self, capsys, digit_limit_4300, target):
        code, _out, err = run(
            capsys, "poincare", "--space", "klein_pointed", "--target", target, "--m", "1700"
        )
        assert code == 2, err

    @pytest.mark.parametrize("name", ["c", "cstar", "r1", "r3", "c_minus_3"])
    def test_config_digit_bound_is_a_lower_bound(self, name):
        space = BUILTIN_SPACES[name]
        assert answer_digits(0, 0) == 1
        for m in (1, 2, 3, 17, 64, 250):
            poly = confspace.poincare_config(space, m)
            largest = max(value for _exp, value in poly.items())
            assert answer_digits(m, m) <= len(str(largest)), m

    @pytest.mark.parametrize("name", ["c", "cstar", "r1", "r3", "c_minus_3"])
    def test_stratum_digit_bound_is_a_lower_bound(self, name):
        space = BUILTIN_SPACES[name]
        for m, l in [(1, 1), (9, 1), (9, 2), (40, 3), (40, 39), (200, 2), (200, 7), (90, 60)]:
            poly = confspace.poincare_exactly(space, l, m)
            largest = max(value for _exp, value in poly.items())
            assert answer_digits(m, l) <= len(str(largest)), (m, l)

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
                poly = confspace.poincare_at_most(space, l, m)
                largest = max(value for _exp, value in poly.items())
                assert answer_digits(m, l, closed=True) <= len(str(largest)), (m, l)

    @pytest.mark.parametrize("closed", [False, True])
    def test_universal_digit_bound_is_a_lower_bound(self, closed):
        for m, l in [(1, 1), (9, 1), (9, 2), (40, 3), (40, 39), (200, 2), (60, 60)]:
            q = confspace.universal_poly(l, m, closed)
            largest = max(abs(value) for _exp, value in q.items())
            assert answer_digits(m, l, closed=closed) <= len(str(largest)), (m, l)

    @pytest.mark.parametrize(
        "argv",
        [
            ["poincare", "--space", "c", "--target", "delta", "--l", "2", "--m", "1000000000"],
            ["poincare", "--space", "c", "--target", "delta", "--l", "1000000000",
             "--m", "1000000000"],
            ["universal", "--l", "1000000000", "--m", "1000000000"],
            ["poincare", "--space", "c", "--target", "delta_le", "--l", "2", "--m", "1000000000"],
            ["poincare", "--space", "r1", "--target", "delta_le", "--l", "2",
             "--m", "1000000000"],
        ],
    )
    def test_strata_past_the_limit_refuse_before_any_product(
        self, capsys, monkeypatch, digit_limit_4300, argv
    ):
        def never(*args):
            raise AssertionError("the answer was built")

        for name in ("stirling_second", "falling_product", "universal_poly"):
            monkeypatch.setattr(confspace, name, never)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (5, "")
        assert json.loads(err)["error"] == {
            "category": "cost-cap-exceeded",
            "message": "the result has integers past the int-to-str limit of 4300 digits",
        }

    @pytest.mark.parametrize(
        "argv",
        [
            # S(3000, 2) has 903 digits, P_350 740 and 349! 738; the bounds read 903, 690, 690
            ["poincare", "--space", "c", "--target", "delta", "--l", "2", "--m", "3000"],
            ["poincare", "--space", "c", "--target", "delta", "--l", "350", "--m", "350"],
            ["universal", "--l", "350", "--m", "350"],
            ["poincare", "--space", "c", "--target", "delta_le", "--l", "2", "--m", "3000"],
        ],
    )
    def test_strata_early_refusal_is_the_render_refusal(
        self, capsys, monkeypatch, digit_limit_640, argv
    ):
        early = run(capsys, *argv)
        monkeypatch.setattr(limits, "check_result_digits", lambda digits: None)
        assert run(capsys, *argv) == early
        assert early[0] == 5

    def test_strata_hypothesis_before_the_digit_refusal(self, capsys, digit_limit_4300):
        code, _out, err = run(
            capsys, "poincare", "--space", "klein_pointed", "--target", "delta",
            "--l", "2", "--m", "1000000000",
        )
        assert code == 2, err

    @pytest.mark.parametrize(
        "argv",
        [
            ["poincare", "--space", "c", "--target", "delta", "--l", "1"],
            ["poincare", "--space", "c", "--target", "delta_le", "--l", "1"],
            ["universal", "--l", "1"],
            ["universal", "--l", "1", "--closed"],
        ],
    )
    def test_one_block_answers_at_a_billion(self, capsys, argv):
        # S(m, 1) = 1 is read without filling a Stirling table of m entries
        doc = run_json(capsys, *argv, "--m", "1000000000")
        assert doc["checks"] and all(check["passed"] for check in doc["checks"])

    def test_no_digit_limit_refuses_nothing(self, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)
        limits.check_result_digits(10**9)


class TestEmptySpace:
    """X = ∅ (pc = 0) is valid input; every closed form on it is 0."""

    @pytest.fixture
    def empty(self, tmp_path):
        path = tmp_path / "empty.json"
        document = {
            "name": "empty", "poincare_c": [0], "dim": 2, "i_acyclic": True, "orientable": True,
        }
        path.write_text(json.dumps(document))
        return str(path)

    @pytest.mark.parametrize(
        "argv, check",
        [
            # chi = 0, so the Euler characteristic check reads a zero factor
            # rather than multiplying m factors
            (["--target", "fm", "--m", "1000000000"], "euler-characteristic"),
            (["--target", "ordinary", "--m", "1000000000"], "euler-characteristic"),
            (["--target", "delta", "--l", "2", "--m", "3"], "universal-polynomial-evaluation"),
        ],
    )
    def test_answers_zero(self, capsys, empty, argv, check):
        code, out, err = run(capsys, "poincare", "--space", empty, *argv, "--format", "plain")
        assert code == 0, err
        assert out.endswith(f"result:\n  0\nchecks:\n  [pass] {check}\n")


def _plus_one(original):
    return lambda *args: original(*args) + 1


def _doubled(original):
    return lambda *args: original(*args) * 2


def _shifted_series(original):
    return lambda *args: original(*args).map_values(lambda _ct, value: value + 1)


def _one_element_too_many(original):
    def miscounted(gens, m):
        order, counts = original(gens, m)
        identity = CycleType.identity(m)
        return order, {**counts, identity: counts[identity] + 1}

    return miscounted


class TestCorruptedRoutes:
    """Corrupting the engine of a route turns each of its checks to FAIL, or
    ends the command with exit 4: no check compares a route with itself."""

    @pytest.mark.parametrize(
        "module, engine, corrupt, command",
        [
            (confspace, "poincare_config", _plus_one, "poincare --space cstar --target fm --m 4"),
            (confspace, "poincare_exactly", _plus_one,
             "poincare --space cstar --target delta --l 2 --m 4"),
            (confspace, "poincare_at_most", _plus_one,
             "poincare --space cstar --target delta_le --l 2 --m 4"),
            (confspace, "poincare_config_ordinary", _plus_one,
             "poincare --space c --target ordinary --m 4"),
            # a check that recomputed the product would agree with the kernel
            (confspace, "falling_product", _plus_one, "poincare --space cstar --target fm --m 4"),
            (confspace, "falling_product", _plus_one,
             "poincare --space cstar --target ordinary --m 4"),
            (charseries, "poincare_cyclic_config", _plus_one,
             "poincare --space cstar --target cf --m 4"),
            (charseries, "poincare_unordered_config", _plus_one,
             "poincare --space cstar --target bf --m 4"),
            # past m = 6 too: the check averages over classes and lists no group
            (charseries, "poincare_unordered_config", _plus_one,
             "poincare --space cstar --target bf --m 9"),
            (charseries, "poincare_symmetric_product", _plus_one,
             "poincare --space cstar --target sym --m 4"),
            (charseries, "poincare_cyclic_product", _plus_one,
             "poincare --space cstar --target cyc --m 4"),
            (confspace, "universal_poly", _doubled, "universal --l 2 --m 4"),
            (confspace, "universal_poly", _doubled,
             "poincare --space cstar --target delta_le --l 2 --m 4"),
            (charseries, "config_trace", _plus_one,
             "character --space cstar --m 4 --cycle-type 1^4"),
            (charseries, "config_trace", _plus_one, "character --space cstar --m 4 --all"),
            (charseries, "config_series", _shifted_series, "character --space cstar --m 4 --all"),
            (cli, "subgroup_class_counts", _one_element_too_many,
             "quotient --space cstar --m 4 --generators '(1 2 3 4)'"),
        ],
    )
    def test_every_check_fails_or_exit_4(self, capsys, monkeypatch, module, engine, corrupt,
                                         command):
        argv = shlex.split(command)
        clean = run_json(capsys, *argv)
        assert clean["checks"] and all(check["passed"] for check in clean["checks"])
        monkeypatch.setattr(module, engine, corrupt(getattr(module, engine)))
        code, out, err = run(capsys, *argv)
        assert "Traceback" not in err
        if code == 4:
            assert out == ""
            assert json.loads(err)["error"]["category"] == "consistency-error"
        else:
            assert code == 0, err
            assert not any(check["passed"] for check in json.loads(out)["checks"])

    def test_quotient_euler_check_reads_no_series(self, capsys, monkeypatch):
        # a free action divides the Euler characteristic by the group order
        monkeypatch.setattr(charseries, "config_series", _shifted_series(charseries.config_series))
        doc = run_json(
            capsys, "quotient", "--space", "cstar", "--m", "4", "--generators", "(1 2 3 4)"
        )
        assert doc["checks"] == [{"name": "euler-characteristic-average", "passed": False}]


class TestSelftest:
    def test_selftest_passes(self, capsys):
        doc = run_json(capsys, "selftest")
        assert doc["result"]["failed"] == 0
        assert all(c["passed"] for c in doc["checks"])

    @pytest.mark.parametrize(
        "module, engine, corrupt, names",
        [
            (confspace, "universal_poly", _doubled, {"universal-polynomial-evaluation"}),
            (charseries, "poincare_cyclic_config", _plus_one,
             {"quotient-averaging", "prime-order-divisibility"}),
            (charseries, "poincare_cyclic_product", _plus_one,
             {"symmetric-product-generating-function"}),
        ],
    )
    def test_corrupted_route_fails_its_entries(
        self, capsys, monkeypatch, module, engine, corrupt, names
    ):
        monkeypatch.setattr(module, engine, corrupt(getattr(module, engine)))
        code, out, _err = run(capsys, "selftest")
        assert code == 4
        assert {c["name"] for c in json.loads(out)["checks"] if not c["passed"]} == names

    def test_a_case_without_checks_fails(self, monkeypatch):
        c = confspace.BUILTIN_SPACES["c"]
        assert checks.cases_pass([(c, "bf", 7, None)])
        monkeypatch.setattr(checks, "poincare", lambda *args: [])
        assert not checks.cases_pass([(c, "bf", 7, None)])


class TestCapOverride:
    def test_env_var_raises_cap(self, capsys, monkeypatch):
        args = ("poincare", "--space", "c", "--target", "cf", "--m", "13")
        code, _out, _err = run(capsys, *args)
        assert code == 5
        monkeypatch.setenv("CONFCOHOM_MAX_M", "13")
        code, out, _err = run(capsys, *args)
        assert code == 0

    def test_env_var_bounded_above(self, capsys, monkeypatch):
        monkeypatch.setenv("CONFCOHOM_MAX_M", "99")
        code, _out, _err = run(
            capsys, "poincare", "--space", "c", "--target", "cf", "--m", "15"
        )
        assert code == 5

    @pytest.mark.parametrize("value", ["abc", "1.5", "-3"])
    def test_malformed_env_var_is_rejected(self, monkeypatch, value):
        from confcohom import limits

        monkeypatch.setenv("CONFCOHOM_MAX_M", value)
        with pytest.raises(InputParseError):
            limits.max_m()
        with pytest.raises(InputParseError):
            limits.max_m(limits.SET_PARTITIONS)

    @pytest.mark.parametrize("value", ["abc", "-3"])
    @pytest.mark.parametrize("target", ["cf", "fm"])
    def test_malformed_env_var_is_3(self, capsys, monkeypatch, value, target):
        monkeypatch.setenv("CONFCOHOM_MAX_M", value)
        code, out, err = run(
            capsys, "poincare", "--space", "c", "--target", target, "--m", "3"
        )
        assert code == 3
        assert out == ""
        assert "CONFCOHOM_MAX_M" in json.loads(err)["error"]["message"]

    def test_empty_env_var_counts_as_unset(self, monkeypatch):
        from confcohom import limits

        monkeypatch.setenv("CONFCOHOM_MAX_M", "")
        assert limits.max_m() == limits.DEFAULT_CYCLE_TYPE_MAX_M
        assert limits.max_m(limits.SET_PARTITIONS) == limits.DEFAULT_SET_PARTITION_MAX_M

    @pytest.mark.parametrize("value, cap, hard", [("5", 5, 12), ("14", 14, 14), ("99", 14, 14)])
    def test_env_var_sets_caps_up_or_down(self, monkeypatch, value, cap, hard):
        from confcohom import limits

        monkeypatch.setenv("CONFCOHOM_MAX_M", value)
        assert limits.max_m() == cap
        assert limits.max_m(limits.SET_PARTITIONS) == cap

    def test_env_var_zero_is_a_valid_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("CONFCOHOM_MAX_M", "0")
        code, _out, err = run(
            capsys, "poincare", "--space", "c", "--target", "cf", "--m", "3"
        )
        assert code == 5
        assert "cost-cap-exceeded" in err


# ---------------------------------------------------------------------------
# fuzzing the exit-code contract
# ---------------------------------------------------------------------------

_small = st.integers(-2, 6)
_formats = st.sampled_from(["json", "plain", "latex"])
_spaces = st.sampled_from(["c", "cstar", "r3", "c_minus_1", "klein_pointed", "nosuch", "FILE"])
_generators = st.one_of(
    st.text(alphabet="()0123456789 ,;-", max_size=16),
    st.lists(
        st.lists(st.integers(0, 7), min_size=1, max_size=4).map(
            lambda c: "(" + " ".join(map(str, c)) + ")"
        ),
        max_size=3,
    ).map(";".join),
)
_betti = st.one_of(st.integers(-1, 3), st.booleans(), st.floats(0, 2), st.text(max_size=2))
_documents = st.one_of(
    st.fixed_dictionaries(
        {"name": st.one_of(st.text(max_size=4), st.integers())},
        optional={
            "poincare_c": st.one_of(st.lists(_betti, max_size=5), st.integers()),
            "dim": st.one_of(st.integers(-1, 4), st.text(max_size=2)),
            "i_acyclic": st.one_of(st.booleans(), st.integers(0, 1)),
            "orientable": st.booleans(),
            "connected": st.one_of(st.booleans(), st.none()),
            "extra": st.integers(),
        },
    ),
    st.lists(st.integers(), max_size=3),
    st.integers(),
)


_max_m = st.sampled_from([None, "", "0", "3", "14", "99", "abc", "-1", "1.5"])


@st.composite
def _argv(draw):
    space = ["--space", draw(_spaces)]
    command = draw(
        st.sampled_from(["quotient", "poincare", "character", "universal", "stability", "raw"])
    )
    if command == "quotient":
        argv = ["quotient", *space, "--m", str(draw(_small)), "--generators", draw(_generators)]
    elif command == "poincare":
        targets = ["fm", "delta", "delta_le", "ordinary", "cf", "bf", "sym", "cyc"]
        target = draw(st.sampled_from(targets))
        argv = ["poincare", *space, "--target", target, "--m", str(draw(_small))]
        if draw(st.booleans()):
            argv += ["--l", str(draw(_small))]
    elif command == "character":
        argv = ["character", *space, "--m", str(draw(st.integers(-1, 5)))]
        if draw(st.booleans()):
            argv.append("--all")
        else:
            argv += ["--cycle-type", draw(st.text(alphabet="0123456789^,", max_size=8))]
    elif command == "universal":
        argv = ["universal", "--l", str(draw(_small)), "--m", str(draw(_small))]
        if draw(st.booleans()):
            argv.append("--closed")
    elif command == "stability":
        lo, hi = draw(_small), draw(_small)
        argv = ["stability", *space, "--i", str(draw(st.integers(-1, 3))),
                "--a", str(draw(st.integers(-1, 2))), "--range", f"{lo}..{hi}"]
    else:
        vocabulary = st.sampled_from(
            ["poincare", "quotient", "--space", "c", "--m", "3", "--target", "fm", "--all", "--l"]
        )
        argv = draw(st.lists(st.one_of(vocabulary, st.text(max_size=4)), max_size=8))
    if draw(st.booleans()):
        argv += ["--format", draw(_formats)]
    return argv


class TestFuzzExitCodes:
    """Every argv and space document ends in a documented exit code."""

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(argv=_argv(), document=_documents, max_m=_max_m)
    def test_exit_code_contract(self, tmp_path, argv, document, max_m):
        space_file = tmp_path / "space.json"
        space_file.write_text(json.dumps(document))
        argv = [str(space_file) if a == "FILE" else a for a in argv]
        out, err = StringIO(), StringIO()
        saved = os.environ.pop("CONFCOHOM_MAX_M", None)
        if max_m is not None:
            os.environ["CONFCOHOM_MAX_M"] = max_m
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        finally:
            os.environ.pop("CONFCOHOM_MAX_M", None)
            if saved is not None:
                os.environ["CONFCOHOM_MAX_M"] = saved
        assert code in (0, 2, 3, 4, 5), (argv, max_m, err.getvalue())
        assert "Traceback" not in err.getvalue()


def test_cli_import_skips_heavy_modules():
    # dataclasses (with inspect), typing and pathlib cost more at start-up
    # than the package itself; none of them may come back on the import path
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    probe = (
        "import confcohom.cli, sys; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'typing', 'pathlib') "
        "if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.strip() == "[]"

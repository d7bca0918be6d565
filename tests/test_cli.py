import importlib.util
import json
import math
import os
import re
import shlex
import subprocess
import sys
import traceback
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

from confcohom import (
    CycleType,
    LaurentPoly,
    charseries,
    checks,
    cli,
    confspace,
    groups,
    limits,
    oracles,
    strata,
)
from confcohom.cli import (
    BUILTIN_SPACES,
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
from confcohom import polyarith
from confcohom.polyarith import BiPoly


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

    def test_a_new_row_is_a_new_target(self, capsys, monkeypatch):
        # the CLI knows a target only by its row: its arguments, gate, route and check
        monkeypatch.setitem(checks.TARGETS, "fm_copy", checks.TARGETS["fm"])
        argv = ("poincare", "--space", "c", "--m", "4", "--target")
        copy, fm = run_json(capsys, *argv, "fm_copy"), run_json(capsys, *argv, "fm")
        assert copy["inputs"] == {**fm["inputs"], "target": "fm_copy"}
        assert (copy["result"], copy["checks"]) == (fm["result"], fm["checks"])
        assert [check["name"] for check in copy["checks"]] == ["euler-characteristic"]

    def test_poincare_bf(self, capsys):
        doc = run_json(capsys, "poincare", "--space", "c", "--target", "bf", "--m", "3")
        assert doc["result"]["coefficients"] == {"5": 1, "6": 1}

    def test_poincare_delta_requires_l(self, capsys):
        code, _out, err = run(
            capsys, "poincare", "--space", "c", "--target", "delta", "--m", "3"
        )
        assert code == 3
        assert "input-parse-error" in err

    @pytest.mark.parametrize("target", ["fm", "ordinary", "bf", "sym", "cf", "cyc"])
    @pytest.mark.parametrize("l", ["-5", "1", "3", "7"])
    def test_poincare_targets_without_strata_refuse_l(self, capsys, target, l):
        code, out, err = run(
            capsys, "poincare", "--space", "c", "--target", target, "--m", "3", "--l", l
        )
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == {
            "category": "input-parse-error",
            "message": f"target {target!r} takes no --l",
        }

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

    def test_character_all_has_reconstruction_check(self, capsys):
        doc = run_json(capsys, "character", "--space", "c", "--m", "3", "--all")
        assert doc["checks"] == [{"name": "power-trace-reconstruction", "passed": True}]

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

    @pytest.mark.parametrize(
        "argv, key, value",
        [
            (("character", "--cycle-type", "1^1,,2"), "cycle_type", "1^1,2^1"),
            (("quotient", "--generators", ";;(1 2)"), "order", 2),
        ],
    )
    def test_empty_tokens_are_skipped(self, capsys, argv, key, value):
        doc = run_json(capsys, *argv, "--space", "c", "--m", "3")
        assert doc["inputs"][key] == value

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


class TestHugeBettiRefusals:
    """The commands that build a trace series are weighed by the size of the
    Betti numbers; their refusals (exit 5) are rows of the refusal table,
    ``FIXED`` in tools/fuzz_cli.py.  A coefficient below 2^64 changes nothing."""

    COMMANDS = {
        "character": ["character", "--m", "12", "--all"],
        "stability": ["stability", "--i", "2", "--a", "2", "--range", "1..12"],
        "bf": ["poincare", "--target", "bf", "--m", "12"],
        "quotient": ["quotient", "--m", "12"],
    }

    @staticmethod
    def _space_file(tmp_path, betti) -> str:
        path = tmp_path / "huge.json"
        document = {
            "name": "huge", "poincare_c": betti, "dim": 2,
            "i_acyclic": True, "orientable": True, "connected": True,
        }
        path.write_text(json.dumps(document))
        return str(path)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_small_betti_numbers_answer(self, capsys, tmp_path, command):
        space = self._space_file(tmp_path, [0, 2**64 - 1, 1])
        argv = [w.replace("12", "4") for w in self.COMMANDS[command]]
        assert run(capsys, *argv, "--space", space)[0] == 0

    def test_the_hypotheses_come_first(self, capsys, tmp_path):
        space = self._space_file(tmp_path, [0, 10**4000, 10**4000])
        document = json.loads(open(space).read())
        document["orientable"] = False
        with open(space, "w") as handle:
            json.dump(document, handle)
        code, _out, err = run(capsys, *self.COMMANDS["stability"], "--space", space)
        assert code == 2 and json.loads(err)["error"]["flag"] == "orientable"


class TestExitCodes:
    def test_usage_error_is_3_not_2(self, capsys):
        # a missing required flag is a parse problem, not a hypothesis one,
        # and its refusal is the one JSON line, not argparse's usage text
        code, out, err = run(capsys, "poincare", "--space", "c", "--target", "fm")
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": {
            "category": "input-parse-error",
            "message": "confcohom poincare: the following arguments are required: --m",
        }}

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
        "argv, message",
        [
            (("quotient", "--generators", "(1 1)"), "cycles are not disjoint at 1"),
            (("quotient", "--generators", "(1 2)(2 3)"), "cycles are not disjoint at 2"),
            (("quotient", "--generators", "(1 2);(3 3)"), "cycles are not disjoint at 3"),
            (("quotient", "--generators", "(1 4)"), "cycle '1 4' out of range for m = 3"),
            (("quotient", "--generators", "(1 a)"), "bad cycle '1 a'"),
            (("character", "--cycle-type", "0^2,1^3"), "bad cycle-type token '0^2'"),
            (("character", "--cycle-type", "2^-1,1^5"), "bad cycle-type token '2^-1'"),
        ],
    )
    def test_bad_cycles_name_the_token_as_written(self, capsys, argv, message):
        code, out, err = run(capsys, *argv, "--space", "c", "--m", "3")
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

        monkeypatch.setattr(groups, "_table_products", listed)
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

        monkeypatch.setattr(groups, "_table_products", listed)
        monkeypatch.setattr(groups, "symmetric_counts", listed)
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

        monkeypatch.setattr(groups, "subgroup_class_counts", built)
        exit_code, out, err = run(
            capsys, "quotient", "--space", space, "--m", str(m), "--generators", gens
        )
        assert exit_code == code
        assert out == ""
        assert message in json.loads(err)["error"]["message"]

    def test_quotient_class_count_mismatch_is_4(self, capsys, monkeypatch):
        miscounted = _one_element_too_many(groups.subgroup_class_counts)
        monkeypatch.setattr(groups, "subgroup_class_counts", miscounted)
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
            "checks:\n  [pass] power-trace-reconstruction\n"
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
        run_json(capsys, "poincare", "--space", "cstar", "--target", "sym", "--m", "4")
        assert len(calls) == 1

    def test_cyclic_product_builds_no_series(self, capsys, monkeypatch):
        calls = _counting(monkeypatch, charseries, "power_series")
        run_json(capsys, "poincare", "--space", "cstar", "--target", "cyc", "--m", "4")
        assert calls == []

    def test_series_builds_each_factor_once(self, monkeypatch):
        passes = _counting(monkeypatch, charseries, "falling_prefixes")
        steps = _counting(monkeypatch, polyarith, "_mul_row")
        kernels = _counting(monkeypatch, charseries, "_divisor_kernel")
        charseries.config_series(cli.BUILTIN_SPACES["c"], 12)
        assert len(passes) == len(kernels) == 12  # one prefix pass per d <= 12
        assert len(steps) == 35  # one kernel step per (d, x) with d * x <= 12

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
        strata.universal_poly(30, 60, True)
        assert len(factors) == 30


class _IntDigits:
    """CPython's int-to-str digit limit as an attribute, which
    ``monkeypatch.setattr`` sets and restores after the test."""

    value = property(
        lambda self: sys.get_int_max_str_digits(),
        lambda self, digits: sys.set_int_max_str_digits(digits),
    )


@pytest.fixture
def int_digits(monkeypatch):
    """Set CPython's int-to-str digit limit until the test ends (0: none, as
    with PYTHONINTMAXSTRDIGITS=0); skip where the interpreter has no limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    limit = _IntDigits()
    return lambda digits: monkeypatch.setattr(limit, "value", digits)


@pytest.fixture
def digit_limit_640(int_digits):
    """Lower CPython's int-to-str digit limit to its minimum for one test."""
    int_digits(640)


@pytest.fixture
def digit_limit_4300(int_digits):
    """Pin CPython's int-to-str digit limit to its default for one test."""
    int_digits(4300)


@pytest.fixture
def digit_limit_off(int_digits):
    """No int-to-str digit limit, as with PYTHONINTMAXSTRDIGITS=0."""
    int_digits(0)


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

        monkeypatch.setattr(strata, "universal_poly", never)
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
        monkeypatch.setattr(limits, "answer_digits", lambda *args: 0)
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

    @pytest.mark.parametrize("m", ["1560", "1600", "1633"])
    def test_config_just_past_the_limit_refuses_before_the_product(
        self, capsys, monkeypatch, digit_limit_4300, m
    ):
        # 1559! has 4,303 digits; the floors of the cheap factorial bound
        # read 4,080 at m = 1560, so (m - 1)! is counted exactly
        def never(*args):
            raise AssertionError("falling_product ran")

        monkeypatch.setattr(confspace, "falling_product", never)
        code, out, err = run(capsys, "poincare", "--space", "c", "--target", "fm", "--m", m)
        assert (code, out) == (5, "")
        assert json.loads(err)["error"]["message"] == (
            "the result has integers past the int-to-str limit of 4300 digits"
        )

    def test_config_early_refusal_is_the_render_refusal(
        self, capsys, monkeypatch, digit_limit_4300
    ):
        argv = ["poincare", "--space", "c", "--target", "fm", "--m", "1700"]
        early = run(capsys, *argv)
        monkeypatch.setattr(limits, "answer_digits", lambda *args: 0)
        assert run(capsys, *argv) == early
        assert early[0] == 5

    @pytest.mark.parametrize("space", ["c", "cstar"])
    def test_config_product_within_the_bound_answers(self, capsys, digit_limit_4300, space):
        # the bound reads 3,900 digits at m = 1500 on c
        code, out, err = run(capsys, "poincare", "--space", space, "--target", "fm", "--m", "1500")
        assert code == 0, err
        assert json.loads(out)["result"]["coefficients"]

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

        for name in ("stirling_second", "stirling_row", "_stirling_sweep", "_stirling_differences",
                     "falling_product", "universal_poly"):
            monkeypatch.setattr(strata, name, never)
        monkeypatch.setattr(confspace, "falling_product", never)
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
        monkeypatch.setattr(limits, "answer_digits", lambda *args: 0)
        assert run(capsys, *argv) == early
        assert early[0] == 5

    @pytest.mark.parametrize("target", ["fm", "ordinary"])
    @pytest.mark.parametrize("m", ["2001", "1000000000"])
    def test_config_without_a_digit_limit_refuses_before_the_product(
        self, capsys, monkeypatch, target, m
    ):
        # PYTHONINTMAXSTRDIGITS=0, or CPython before 3.10.7: no digit bound,
        # so the falling product's m(m - 1)/2 steps are what refuses
        def never(*args):
            raise AssertionError("falling_product ran")

        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)
        monkeypatch.setattr(confspace, "falling_product", never)
        code, out, err = run(capsys, "poincare", "--space", "c", "--target", target, "--m", m)
        assert (code, out) == (5, "")
        error = json.loads(err)["error"]
        assert error["category"] == "cost-cap-exceeded"
        assert error["message"].startswith("strata work is capped at 2000000 big-integer steps")


class TestStrataWork:
    """Strata whose answers fit the digit limit, but whose Stirling sweep or
    universal polynomial would not fit in memory, exit 5 before building
    either (and so do the refusal table's rows at l = 3000 and 10^9)."""

    @pytest.mark.parametrize("target", ["delta", "delta_le"])
    @pytest.mark.parametrize("l", ["2", "3"])
    def test_empty_space_refuses_the_stirling_number_of_its_check(
        self, capsys, tmp_path, monkeypatch, target, l
    ):
        # pc = 0 answers 0 at once, but the check would read S(10^9, l) from
        # powers k^(10^9), for seconds at l = 2 and minutes at l = 3
        path = tmp_path / "empty.json"
        path.write_text('{"name": "empty", "poincare_c": [0], "dim": 2, "i_acyclic": true}')
        monkeypatch.setattr(strata, "_stirling_differences", lambda *args: pytest.fail("read"))
        code, out, err = run(
            capsys, "poincare", "--space", str(path), "--target", target,
            "--l", l, "--m", "1000000000",
        )
        assert (code, out) == (5, "")
        assert json.loads(err)["error"]["message"].startswith("strata work is capped")


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
            (strata, "poincare_exactly", _plus_one,
             "poincare --space cstar --target delta --l 2 --m 4"),
            (strata, "poincare_at_most", _plus_one,
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
            (strata, "universal_poly", _doubled, "universal --l 2 --m 4"),
            (strata, "universal_poly", _doubled,
             "poincare --space cstar --target delta_le --l 2 --m 4"),
            (charseries, "config_trace", _plus_one,
             "character --space cstar --m 4 --cycle-type 1^4"),
            (charseries, "config_series", _shifted_series, "character --space cstar --m 4 --all"),
            (groups, "subgroup_class_counts", _one_element_too_many,
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
            (strata, "universal_poly", _doubled, {"universal-polynomial-evaluation"}),
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

    def test_a_check_that_raises_a_library_error_fails(self, capsys, monkeypatch):
        def raising(*_args):
            raise ConsistencyError("raised by a stub")

        monkeypatch.setattr(strata, "universal_poly", raising)
        code, out, _err = run(capsys, "selftest")
        assert code == 4
        passed = {c["name"]: c["passed"] for c in json.loads(out)["checks"]}
        assert len(passed) == 10
        assert [name for name, ok in passed.items() if not ok] == [
            "universal-polynomial-evaluation"
        ]

    def test_a_case_without_checks_fails(self, monkeypatch):
        c = confspace.BUILTIN_SPACES["c"]
        assert checks.cases_pass([(c, "bf", 7, None)])
        row = checks.TARGETS["bf"]
        unchecked = checks.Target(
            row.route, lambda *args: [], row.gate, row.requires, row.takes_l, row.least_m
        )
        monkeypatch.setitem(checks.TARGETS, "bf", unchecked)
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

    @pytest.mark.parametrize("value, cap, hard", [("5", 5, 12), ("14", 14, 14), ("99", 14, 14)])
    def test_env_var_sets_caps_up_or_down(self, monkeypatch, value, cap, hard):
        # the cap on m moves both ways; the set-partition oracle's own bound,
        # m = 10, does not move up with it
        from confcohom import limits, oracles

        monkeypatch.setenv("CONFCOHOM_MAX_M", value)
        assert limits.max_m() == cap
        with pytest.raises(CostCapExceeded):
            oracles.set_partitions(11, 3)

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


def _load_fuzz():
    """tools/fuzz_cli.py, which holds the contract's table, grammar and verdict."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "fuzz_cli", os.path.join(root, "tools", "fuzz_cli.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


fuzz = _load_fuzz()


def _never(*_args):
    raise AssertionError("a product was taken")


#: Every polynomial product and Stirling sweep: a refusal comes before all of them.
_PRODUCTS = [
    (LaurentPoly, "__mul__"), (LaurentPoly, "__rmul__"), (LaurentPoly, "__pow__"),
    (BiPoly, "__mul__"), (BiPoly, "__rmul__"), (polyarith, "_falling_rows"),
    (strata, "_stirling_sweep"), (strata, "_stirling_differences"),
]


class TestFuzzExitCodes:
    """The CLI contract of tools/fuzz_cli.py, in process: its ``verdict``
    judges each row of its table ``FIXED``, against the row's exit code or
    check, and every draw of its one grammar ``draw``.  CI runs the table and
    seeds 0..199 as processes in 1 GiB; these are seeds 200..499."""

    SEEDS = range(200, 500)

    @staticmethod
    def _environ(monkeypatch, int_digits, env):
        """Give this process the environment of one call of the tool."""
        if "CONFCOHOM_MAX_M" in env:
            monkeypatch.setenv("CONFCOHOM_MAX_M", env["CONFCOHOM_MAX_M"])
        else:
            monkeypatch.delenv("CONFCOHOM_MAX_M", raising=False)
        int_digits(int(env.get("PYTHONINTMAXSTRDIGITS", 4300)))

    @staticmethod
    def _verdict(space_file, argv, document, expect):
        """Run one call in process, an exception ending it as the interpreter
        would (exit 1, its traceback on stderr); return the tool's verdict."""
        space_file.write_text(json.dumps(document))
        argv = [str(space_file) if a == "FILE" else a for a in argv]
        out, err = StringIO(), StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        except Exception:
            code = 1
            err.write(traceback.format_exc())
        return fuzz.verdict(code, out.getvalue(), err.getvalue(), expect)

    @pytest.mark.parametrize(
        "argv, document, env, expect", fuzz.FIXED, ids=[f"row {i}" for i in range(len(fuzz.FIXED))]
    )
    def test_fixed_rows(self, tmp_path, monkeypatch, int_digits, argv, document, env, expect):
        self._environ(monkeypatch, int_digits, env)
        for owner, name in _PRODUCTS if expect == 5 else []:
            monkeypatch.setattr(owner, name, _never)
        assert self._verdict(tmp_path / "space.json", argv, document, expect) is None

    def test_exit_code_contract(self, tmp_path, monkeypatch, int_digits):
        failures = []
        for seed in self.SEEDS:
            argv, document, env = fuzz.draw(seed)
            self._environ(monkeypatch, int_digits, env)
            failure = self._verdict(tmp_path / "space.json", argv, document, None)
            if failure:
                failures.append((seed, env, argv[:12], failure))
        assert not failures

    @staticmethod
    def _kind(document) -> str:
        if not isinstance(document, dict):
            return "not an object"
        return document["name"] if document["name"] in ("huge", "long") else "fuzzed"

    def test_the_grammar_does_not_narrow(self):
        draws = [fuzz.draw(seed) for seed in self.SEEDS]
        argvs = [argv for argv, _document, _env in draws]

        def after(flag):
            return {argv[i + 1] for argv in argvs for i, w in enumerate(argv[:-1]) if w == flag}

        commands = {"quotient", "poincare", "character", "universal", "stability"}
        assert {argv[0] for argv in argvs if argv} >= commands
        assert after("--target") >= set(checks.TARGETS)
        assert after("--format") >= {"json", "plain", "latex"}
        assert any("--all" in argv for argv in argvs)
        assert any("--cycle-type" in argv for argv in argvs)
        documents = [document for _argv, document, _env in draws]
        assert {self._kind(d) for d in documents} == {"huge", "long", "fuzzed", "not an object"}
        huge = [d["poincare_c"] for d in documents if self._kind(d) == "huge"]
        assert any(max(betti) >= 10**1000 for betti in huge)
        long = [d["poincare_c"] for d in documents if self._kind(d) == "long"]
        assert {len(betti) - 1 for betti in long} == {50, 200}
        assert {sum(betti) for betti in long} == {2, 50, 200}  # T + T^dim, and all ones
        envs = [env for _argv, _document, env in draws]
        max_m = {None, "", "0", "3", "14", "99", "abc", "-1", "1.5"}
        assert {env.get("CONFCOHOM_MAX_M") for env in envs} == max_m
        assert {env.get("PYTHONINTMAXSTRDIGITS") for env in envs} == {None, "0"}


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

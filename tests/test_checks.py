"""No check is a constant: each one turns to FAIL when a function that only
the check reads is corrupted, while the route it checks is left alone."""

import json
import shlex

import pytest

from confcohom import CycleType, LaurentPoly, charseries, combinat, confspace, oracles
from test_cli import _doubled, _plus_one, _shifted_series
from test_cli_corpus import COMMANDS, run_line, write_space_files


def _identity_only(_original):
    return lambda gens, m: (1, {CycleType.identity(m): 1})


# check name, command that emits it, and a function only the check reads;
# TestProductChecks in test_cli.py corrupts the closure for ``cyc``
CORRUPTIONS = [
    ("euler-characteristic", "poincare --space cstar --target fm --m 4",
     confspace, "euler_char_config", _plus_one),
    ("euler-characteristic", "poincare --space c --target ordinary --m 4",
     confspace, "euler_char_config", _plus_one),
    ("universal-polynomial-evaluation", "poincare --space cstar --target delta --l 2 --m 4",
     confspace, "universal_poly", _doubled),
    ("subgroup-averaging", "poincare --space cstar --target bf --m 4",
     charseries, "config_series", _shifted_series),
    ("subgroup-averaging", "poincare --space cstar --target cf --m 4",
     combinat, "group_closure", _identity_only),
    ("power-trace-reconstruction", "poincare --space cstar --target bf --m 4",
     charseries, "power_series", _shifted_series),
    ("power-trace-reconstruction", "poincare --space cstar --target cf --m 4",
     charseries, "power_series", _shifted_series),
    ("generating-function", "poincare --space cstar --target sym --m 4",
     oracles, "symmetric_product_generating_function", _plus_one),
    ("oracle-triangle", "character --space cstar --m 4 --all",
     oracles, "reconstruct_config_series", _shifted_series),
    ("identity-entry-is-poincare", "character --space cstar --m 4 --cycle-type 1^4",
     confspace, "poincare_config", _plus_one),
    ("evaluates-on-reference-space", "universal --l 2 --m 4",
     confspace, "poincare_exactly", _plus_one),
    ("evaluates-on-reference-space", "universal --l 2 --m 4 --closed",
     confspace, "poincare_at_most", _plus_one),
    ("euler-characteristic-average", "quotient --space cstar --m 4 --generators '(1 2 3 4)'",
     confspace, "euler_char_config", _plus_one),
]

CHECKED_COMMANDS = ("poincare", "character", "universal", "quotient")


def outcome(command: str, name: str) -> bool:
    """Whether the check ``name`` of ``command`` passed."""
    code, out, err = run_line(command)
    assert code == 0, err
    (passed,) = [entry["passed"] for entry in json.loads(out)["checks"] if entry["name"] == name]
    return passed


@pytest.mark.parametrize(
    "name, command, module, function, corrupt",
    CORRUPTIONS,
    ids=[f"{row[0]}: {row[1]}" for row in CORRUPTIONS],
)
def test_corrupting_what_only_the_check_reads_fails_it(
    monkeypatch, name, command, module, function, corrupt
):
    assert outcome(command, name)
    monkeypatch.setattr(module, function, corrupt(getattr(module, function)))
    assert not outcome(command, name)


def test_every_check_name_the_corpus_emits_is_corrupted(tmp_path, monkeypatch):
    monkeypatch.delenv("CONFCOHOM_MAX_M", raising=False)
    write_space_files(str(tmp_path))
    monkeypatch.chdir(tmp_path)
    emitted = set()
    for command in COMMANDS:
        # the first word that sets no environment variable names the command
        if next(w for w in shlex.split(command) if "=" not in w) not in CHECKED_COMMANDS:
            continue
        if "--format" not in command:
            command += " --format json"
        code, out, _err = run_line(command)
        if code == 0:
            emitted |= {entry["name"] for entry in json.loads(out)["checks"]}
    assert emitted == {row[0] for row in CORRUPTIONS}


def test_a_wrong_divisor_kernel_fails_only_the_kernel_free_check(monkeypatch):
    # d * T^d added to B_2: both quotient routes and subgroup-averaging read
    # the kernel and agree with each other; the power-trace rebuild does not
    original = charseries._divisor_kernel

    def wrong(space, d):
        return original(space, d) + (LaurentPoly.term(d, d) if d == 2 else 0)

    monkeypatch.setattr(charseries, "_divisor_kernel", wrong)
    command = "poincare --space cstar --target bf --m 4"
    assert outcome(command, "subgroup-averaging")
    assert not outcome(command, "power-trace-reconstruction")

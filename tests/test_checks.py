"""No check is a constant: each one turns to FAIL when a function that only
the check reads is corrupted, while the route it checks is left alone."""

import json
import shlex

import pytest

from confcohom import CycleType, LaurentPoly, charseries, confspace, groups, oracles, strata
from conftest import puncture
from test_cli import _doubled, _plus_one, _shifted_series
from test_cli_corpus import COMMANDS, run_line, write_space_files


def _identity_only(_original):
    return lambda gens, m: (1, {CycleType.identity(m): 1})


def _one_more_three_point_two_block(original):
    # one more stable partition in every table of 3 points into 2 blocks
    def miscounted(ctype, blocks):
        pairs = original(ctype, blocks)
        if (ctype.m, blocks) != (3, 2) or not pairs:
            return pairs
        (beta, count), *rest = pairs
        return ((beta, count + 1), *rest)

    return miscounted


def _powers_of_a_punctured_space(original):
    # the cartesian-power traces of X minus a point: a true character, so
    # every average stays integral, but of another space
    return lambda space, m: original(puncture(space, 1), m)


def _last_entry_plus_one(original):
    # S(m, l) + 1 in the row of forward differences: the open stratum's entry
    return lambda *args: (lambda row: (*row[:-1], row[-1] + 1))(original(*args))


def _every_class_doubled(original):
    # twice a character is a character, so the table still decomposes
    return lambda *args: {ct: 2 * value for ct, value in original(*args).items()}


# check name, command that emits it, and a function only the check reads.
# The stability table's check reads no series, so its row corrupts the one
# coefficient that only the table's route reads.
CORRUPTIONS = [
    ("euler-characteristic", "poincare --space cstar --target fm --m 4",
     confspace, "euler_char_config", _plus_one),
    ("euler-characteristic", "poincare --space c --target ordinary --m 4",
     confspace, "euler_char_config", _plus_one),
    ("universal-polynomial-evaluation", "poincare --space cstar --target delta --l 2 --m 4",
     strata, "universal_poly", _doubled),
    ("universal-polynomial-evaluation", "poincare --space cstar --target delta --l 2 --m 4",
     strata, "_stirling_differences", _last_entry_plus_one),
    ("universal-polynomial-evaluation", "poincare --space cstar --target delta_le --l 2 --m 4",
     strata, "universal_poly", _doubled),
    ("subgroup-averaging", "poincare --space cstar --target bf --m 4",
     charseries, "config_series", _shifted_series),
    ("subgroup-averaging", "poincare --space cstar --target cf --m 4",
     groups, "subgroup_class_counts", _identity_only),
    ("subgroup-averaging", "poincare --space cstar --target cyc --m 4",
     groups, "subgroup_class_counts", _identity_only),
    ("power-trace-reconstruction", "poincare --space cstar --target bf --m 4",
     charseries, "_power_table", _powers_of_a_punctured_space),
    ("power-trace-reconstruction", "poincare --space cstar --target cf --m 4",
     charseries, "_power_table", _powers_of_a_punctured_space),
    ("power-trace-reconstruction", "poincare --space cstar --target bf --m 4",
     charseries, "reconstruct_config_series", _shifted_series),
    ("power-trace-reconstruction", "poincare --space cstar --target bf --m 4",
     charseries, "_stable_block_counts", _one_more_three_point_two_block),
    ("generating-function", "poincare --space cstar --target sym --m 4",
     oracles, "symmetric_product_generating_function", _plus_one),
    ("oracle-triangle", "character --space cstar --m 4 --all",
     charseries, "reconstruct_config_series", _shifted_series),
    ("identity-entry-is-poincare", "character --space cstar --m 4 --cycle-type 1^4",
     confspace, "poincare_config", _plus_one),
    ("evaluates-on-reference-space", "universal --l 2 --m 4",
     strata, "poincare_exactly", _plus_one),
    ("evaluates-on-reference-space", "universal --l 2 --m 4 --closed",
     strata, "poincare_at_most", _plus_one),
    ("evaluates-on-reference-space", "universal --l 2 --m 4",
     strata, "stirling_second", _plus_one),
    ("euler-characteristic-average", "quotient --space cstar --m 4 --generators '(1 2 3 4)'",
     confspace, "euler_char_config", _plus_one),
    ("betti-against-stratum-polynomial", "stability --space cstar --i 1 --a 1 --range 2..7",
     charseries, "_exactly_coefficients", _every_class_doubled),
]

CHECKED_COMMANDS = ("poincare", "character", "universal", "quotient", "stability")


def _is_verdict(name: str) -> bool:
    """A stability verdict observes the table; it compares no two routes."""
    return name.startswith(("monotone-from-", "constant-from-"))


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


def _checked(command: str) -> str:
    """The command a corpus line runs, and for ``poincare`` its target: what
    a check name is emitted by."""
    words = shlex.split(command)
    # the first word that sets no environment variable names the command
    words = words[next(i for i, w in enumerate(words) if "=" not in w):]
    return f"poincare {words[words.index('--target') + 1]}" if words[0] == "poincare" else words[0]


def test_every_check_name_the_corpus_emits_is_corrupted(tmp_path, monkeypatch):
    # per target: a row wired to another family's check emits names no row corrupts
    monkeypatch.delenv("CONFCOHOM_MAX_M", raising=False)
    write_space_files(str(tmp_path))
    monkeypatch.chdir(tmp_path)
    emitted = set()
    for command in COMMANDS:
        if _checked(command).split()[0] not in CHECKED_COMMANDS:
            continue
        if "--format" not in command:
            command += " --format json"
        code, out, _err = run_line(command)
        if code == 0:
            emitted |= {
                (_checked(command), entry["name"]) for entry in json.loads(out)["checks"]
                if not _is_verdict(entry["name"])
            }
    assert emitted == {(_checked(row[1]), row[0]) for row in CORRUPTIONS}


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


@pytest.mark.parametrize(
    "command, name",
    [
        ("poincare --space cstar --target bf --m 4", "subgroup-averaging"),
        ("poincare --space cstar --target sym --m 4", "generating-function"),
    ],
)
def test_a_wrong_recurrence_fails_both_quotients(monkeypatch, command, name):
    # bf and sym share the exponential-formula recurrence; their checks read none
    original = charseries._newton

    def wrong(power_sums):
        return [g + 1 if n else g for n, g in enumerate(original(power_sums))]

    assert outcome(command, name)
    monkeypatch.setattr(charseries, "_newton", wrong)
    assert not outcome(command, name)


@pytest.mark.parametrize("target", ["bf", "cf"])
def test_a_wrong_block_count_fails_only_the_reconstruction(monkeypatch, target):
    # induce_blocks reads the counts by name, so the lru cache behind the
    # name cannot hide the corruption; the quotient routes never induce
    command = f"poincare --space cstar --target {target} --m 4"
    corrupted = _one_more_three_point_two_block(charseries._stable_block_counts)
    monkeypatch.setattr(charseries, "_stable_block_counts", corrupted)
    assert outcome(command, "subgroup-averaging")
    assert not outcome(command, "power-trace-reconstruction")


@pytest.mark.parametrize(
    "command, name",
    [
        ("poincare --space cstar --target delta --l 3 --m 5", "universal-polynomial-evaluation"),
        ("poincare --space cstar --target delta_le --l 3 --m 5", "universal-polynomial-evaluation"),
        ("universal --l 3 --m 5", "evaluates-on-reference-space"),
    ],
)
def test_a_wrong_stirling_table_entry_fails_the_strata_checks(monkeypatch, command, name):
    # S(5, 3) + 1 read from the table, as one entry or in a row: the strata
    # routes answer wrongly, and the explicit count that universal_poly reads
    # tells them apart
    entry, row = strata.stirling_second, strata.stirling_row

    def wrong(i, j):
        return entry(i, j) + ((i, j) == (5, 3))

    def wrong_row(i, j):
        return tuple(s + ((i, c) == (5, 3)) for c, s in enumerate(row(i, j), start=1))

    assert outcome(command, name)
    monkeypatch.setattr(strata, "stirling_second", wrong)
    monkeypatch.setattr(strata, "stirling_row", wrong_row)
    assert not outcome(command, name)

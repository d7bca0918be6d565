"""Hold the CLI's contract: a fixed table of calls, then drawn ones.

Every call runs as ``python -m confcohom.cli`` in its own process, under an
address-space limit of 1 GiB (``ulimit -v 1048576``) and a 5 s timeout.
``verdict`` is the contract, written once, and judges every call:

* a documented exit code 0/2/3/4/5, and no traceback;
* a refusal writes nothing to stdout and one JSON line
  ``{"error": {category, message[, flag]}}`` to stderr: the category of its
  exit code, and a flag iff it exits 2;
* an answer writes nothing to stderr, and every check it carries passed.

A row of ``FIXED`` also names what it must end in: an exit code, a check
that its answer carries, or the hypothesis that its refusal names.  Its
rows are the refusals of every gated command and the answers and refusals
at m = 10^9 and on Betti numbers that are huge (10^1000, 10^4000) or long
(200 of them, or T + T^200); and the checked answers at the caps (m = 12,
``CONFCOHOM_MAX_M=14``, the strata at l = 300 and at l = m = 1000, groups
past the closure cap).

``draw(seed)`` is the one grammar of the contract: commands, targets and
formats; built-in spaces and space files, well-formed with huge or long
Betti numbers, fuzzed field by field, or not an object; sizes from -2..6
and {12, 13, 14, 15, 1000, 10^9}; text from the grammar's alphabets and
from all of Unicode, but for the surrogates and, in argv, NUL, which no
process can receive; ``CONFCOHOM_MAX_M``; and the int-to-str limit,
default or off (``PYTHONINTMAXSTRDIGITS=0``).  ``TestFuzzExitCodes`` in
``tests/test_cli.py`` runs the table and seeds 200..499 in process, through
the same ``verdict``.  No draw is skipped: every call that the limits
admit answers within the timeout and the address space.

Draw i comes from ``random.Random(i)``, so a failure is replayed by its
seed.  Run from anywhere, with no dependency beyond the standard library:

    python tools/fuzz_cli.py                 # the table, then seeds 0..199
    python tools/fuzz_cli.py --count 0       # the table only
    python tools/fuzz_cli.py --first 17 --count 1 --verbose

It prints one line per failing call and exits 1 if any call failed.
"""

import argparse
import json
import os
import random
import re
import resource
import shlex
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from confcohom import checks  # noqa: E402

ADDRESS_SPACE = 1 << 30  # bytes, as ulimit -v 1048576
TIMEOUT_S = 5
# the README's table, written out so that the verdict judges confcohom.errors
CATEGORIES = {2: "hypothesis-violation", 3: "input-parse-error", 4: "consistency-error",
              5: "cost-cap-exceeded"}
EXIT_CODES = (0, *CATEGORIES)
DIGITS = "PYTHONINTMAXSTRDIGITS"
NO_DIGIT_LIMIT = {DIGITS: "0"}

LARGE = [12, 13, 14, 15, 1000, 10**9]  # the caps and far past them
HUGE = [10**1000, 10**4000]
LONG = [50, 200]  # the dim of a long space file
SPACES = ["c", "cstar", "r3", "c_minus_1", "klein_pointed", "nosuch", "FILE"]
TARGETS = list(checks.TARGETS)  # each poincare target, as the CLI offers them
MAX_M = [None, "", "0", "3", "14", "99", "abc", "-1", "1.5"]
VOCABULARY = ["poincare", "quotient", "--space", "c", "--m", "3", "--target", "fm", "--all", "--l"]


def _space(name, betti, dim=2, **flags):
    return {"name": name, "poincare_c": betti, "dim": dim, "i_acyclic": True, **flags}


def _long(betti):
    return _space("long", betti, len(betti) - 1, orientable=True, connected=True)


_EMPTY = _space("empty", [0])
_HUNDRED = _space("huge", [0, 10**100, 1])
_HUGE_TOP = _space("huge", [0, 0, 10**1000])
_HUGE_LOW = _space("huge", [0, 10**1000, 1])
_HUGE_SERIES = _space("huge", [0, 10**4000, 10**4000], orientable=True, connected=True)
_ONES = _long([0] + [1] * 200)
_GAPPED = _long([0, 1] + [0] * 198 + [1])


def _rows(command, expect, document=None, envs=({},)):
    return [(shlex.split(command), document, env, expect) for env in envs]


_B = 10**9
_BOTH = ({DIGITS: "4300"}, NO_DIGIT_LIMIT)
_AT_14 = [{"CONFCOHOM_MAX_M": "14"}]
_STRATA, _REFERENCE = "universal-polynomial-evaluation", "evaluates-on-reference-space"

#: (argv, space document for ``--space FILE`` or None, environment, and what
#: the call must end in: an exit code, or the name of a check that its
#: answer carries, passed, or of the hypothesis that its refusal names)
FIXED = [
    # the hypothesis comes first, then the one limits gate of each command;
    # sym and cyc need none
    *_rows(f"quotient --space klein_pointed --m {_B} --generators '(1 2)'", "i_acyclic"),
    *_rows(f"character --space klein_pointed --m {_B} --cycle-type 1^{_B}", "i_acyclic"),
    *_rows(f"character --space klein_pointed --m {_B} --all", "i_acyclic"),
    *_rows(f"poincare --space klein_pointed --target bf --m {_B}", "i_acyclic"),
    *_rows(f"poincare --space klein_pointed --target fm --m {_B}", "i_acyclic"),
    *_rows(f"poincare --space klein_pointed --target delta --l 2 --m {_B}", "i_acyclic"),
    *_rows("poincare --space klein_pointed --target fm --m 1700", "i_acyclic", envs=_BOTH),
    *_rows("poincare --space klein_pointed --target ordinary --m 1700", "i_acyclic", envs=_BOTH),
    *_rows(f"stability --space klein_pointed --i 1 --range 1..{_B}", "i_acyclic"),
    *_rows("poincare --space klein_pointed --target fm --m 3", "i_acyclic"),
    *_rows("poincare --space klein_pointed --target delta --l 2 --m 2", "i_acyclic"),
    *_rows("poincare --space klein_pointed --target delta_le --l 2 --m 2", "i_acyclic"),
    *_rows("poincare --space klein_pointed --target ordinary --m 2", "i_acyclic"),
    *_rows("poincare --space klein_pointed --target cf --m 2", "i_acyclic"),
    *_rows("poincare --space klein_pointed --target bf --m 2", "i_acyclic"),
    *_rows("character --space klein_pointed --m 2 --all", "i_acyclic"),
    *_rows("quotient --space klein_pointed --m 2", "i_acyclic"),
    *_rows("stability --space klein_pointed --i 0 --a 0 --range 1..3", "i_acyclic"),
    *_rows("poincare --space klein_pointed --target sym --m 2", 0),
    *_rows("poincare --space klein_pointed --target cyc --m 2", 0),
    *_rows("poincare --space no_such_space --target fm --m 3", 3),
    # the hypothesis and the cycle-type cap come before anything whose size
    # grows with m: a permutation, a multiplicity vector or a list of m values
    *_rows("poincare --space c --target bf --m 200", 5),
    *_rows("character --space c --m 13 --all", 5),
    *_rows(f"quotient --space c --m {_B} --generators '(1 2)'", 5),
    *_rows(f"character --space c --m {_B} --cycle-type 1^{_B}", 5),
    *_rows(f"stability --space c --i 1 --range 1..{_B}", 5),
    *_rows(f"universal --l 2 --m {_B}", 5),
    *_rows(f"poincare --space c --target fm --m {_B}", 5),
    *_rows(f"poincare --space c --target ordinary --m {_B}", 5),
    *_rows(f"poincare --space c --target delta --l 2 --m {_B}", 5),
    *_rows(f"poincare --space c --target delta --l {_B} --m {_B}", 5),
    *_rows(f"poincare --space c --target delta_le --l 2 --m {_B}", 5),
    *_rows(f"poincare --space r1 --target delta_le --l 2 --m {_B}", 5),
    *_rows(f"universal --l {_B} --m {_B}", 5),
    # answers within the digit limit whose Stirling sweep or universal
    # polynomial would not fit: refused by the strata work estimate
    *_rows(f"poincare --space c --target delta_le --l {_B} --m {_B}", 5),
    *_rows("universal --l 3000 --m 3000 --closed", 5),
    *_rows(f"universal --l {_B} --m {_B} --closed", 5),
    # with no int-to-str limit the digit bound refuses nothing, and the
    # falling product's m(m - 1)/2 steps are what the estimate refuses
    *_rows(f"poincare --space c --target fm --m {_B}", 5, envs=[NO_DIGIT_LIMIT]),
    *_rows(f"poincare --space c --target ordinary --m {_B}", 5, envs=[NO_DIGIT_LIMIT]),
    # S(m, 1) = 1 needs no Stirling table of m entries
    *_rows(f"poincare --space c --target delta --l 1 --m {_B}", _STRATA),
    *_rows(f"poincare --space c --target delta_le --l 1 --m {_B}", _STRATA),
    *_rows(f"universal --l 1 --m {_B}", _REFERENCE),
    *_rows(f"universal --l 1 --m {_B} --closed", _REFERENCE),
    # the empty space answers 0 at once, and so does its Euler characteristic;
    # its strata's check reads S(m, l) from powers k^m, so l = 2 is refused,
    # and so is the universal polynomial of l = 10^9
    *_rows(f"poincare --space FILE --target fm --m {_B}", 0, _EMPTY),
    *_rows(f"poincare --space FILE --target delta --l 2 --m {_B}", 5, _EMPTY),
    *_rows(f"poincare --space FILE --target delta_le --l 2 --m {_B}", 5, _EMPTY),
    *_rows(f"poincare --space FILE --target delta_le --l {_B} --m {_B}", 5, _EMPTY),
    # Betti numbers of a hundred digits answer small strata; of a thousand,
    # answers of a million digits are refused from pc's coefficients, with or
    # without an int-to-str limit
    *_rows("poincare --space FILE --target fm --m 3", "euler-characteristic", _HUNDRED, _BOTH),
    *_rows("poincare --space FILE --target delta_le --l 2 --m 5", _STRATA, _HUNDRED, _BOTH),
    *_rows("poincare --space FILE --target fm --m 1500", 5, _HUGE_TOP, _BOTH),
    *_rows("poincare --space FILE --target fm --m 1500", 5, _HUGE_LOW, _BOTH),
    *_rows("poincare --space FILE --target delta_le --l 300 --m 600", 5, _HUGE_LOW, _BOTH),
    # Betti numbers of 4,001 digits: the commands that build a trace series
    # are weighed by them and refused before any series
    *_rows("character --space FILE --m 12 --all", 5, _HUGE_SERIES, _BOTH),
    *_rows("stability --space FILE --i 2 --a 2 --range 1..12", 5, _HUGE_SERIES, _BOTH),
    *_rows("poincare --space FILE --target bf --m 12", 5, _HUGE_SERIES, _BOTH),
    *_rows("quotient --space FILE --m 12", 5, _HUGE_SERIES, _BOTH),
    # 200 Betti numbers, or two 199 degrees apart: the pc weight reads the
    # shape of the row pc + kT, so these exit 5 where they took 2 s to past
    # 20 s
    *_rows("character --space FILE --m 12 --all", 5, _ONES, _BOTH),
    *_rows("poincare --space FILE --target bf --m 12", 5, _ONES, _BOTH),
    *_rows("stability --space FILE --i 2 --a 1 --range 1..12", 5, _ONES, _BOTH),
    *_rows("quotient --space FILE --m 10", 5, _ONES, _BOTH),
    *_rows("poincare --space FILE --target sym --m 12", 5, _ONES, _BOTH),
    *_rows("poincare --space FILE --target fm --m 200", 5, _ONES, _BOTH),
    *_rows("poincare --space FILE --target delta_le --l 300 --m 600", 5, _ONES, _BOTH),
    *_rows("poincare --space FILE --target fm --m 1500", 5, _GAPPED, _BOTH),
    # checked answers at the caps: the quotients' averages past m = 6 and at
    # 12, the tables' Betti numbers at the ceiling 14, the two rebuilds at 6,
    # and the strata at l = 300 and at l = m = 1000 within the timeout: each
    # answer of one Horner, over pc + kT or over P + kT, checked by the other
    *_rows("poincare --space c --target cf --m 10 --format plain", "subgroup-averaging"),
    *_rows("poincare --space c --target cf --m 12 --format plain", "subgroup-averaging"),
    *_rows("poincare --space c --target bf --m 7 --format plain", "subgroup-averaging"),
    *_rows("poincare --space c --target bf --m 12 --format plain", "subgroup-averaging"),
    *_rows("stability --space c --i 2 --a 1 --range 1..14 --format plain",
           "betti-against-stratum-polynomial", envs=_AT_14),
    *_rows("stability --space r3 --i 2 --a 3 --range 1..14 --format plain",
           "betti-against-stratum-polynomial", envs=_AT_14),
    # c(m, m - 2) = (3m - 1) C(m, 3) / 4 has degree 4, which m = 8..12 cannot show
    *_rows("stability --space c --i 2 --range 1..12 --format plain", 0),
    *_rows("character --space c --m 6 --all --format plain", "power-trace-reconstruction"),
    *_rows("poincare --space cstar --target cf --m 6 --format plain",
           "power-trace-reconstruction"),
    *_rows("poincare --space cstar --target delta_le --l 300 --m 600 --format plain", _STRATA),
    *_rows("poincare --space cstar --target delta_le --l 1000 --m 1000", _STRATA),
    *_rows("universal --l 1000 --m 1000 --closed", _REFERENCE),
    # S_8 fixing a point is walked from its Knuth table, S_12 and A_11 known
    # by their orders, and S_11 fixing a point of 12 refused from its order
    # 11!; chi(Conf_m) = (-1)^m m! on c_minus_2, so no average is 0 == 0
    *_rows("quotient --space c_minus_2 --m 9 --generators '(1 2);(1 2 3 4 5 6 7 8)'"
           " --format plain", "euler-characteristic-average"),
    *_rows("quotient --space c_minus_2 --m 12 --generators '(1 2);(1 2 3 4 5 6 7 8 9 10 11 12)'"
           " --format plain", "euler-characteristic-average"),
    *_rows("quotient --space c_minus_2 --m 12 --generators '(1 2);(1 2 3 4 5 6 7 8 9 10 11)'", 5),
    *_rows("quotient --space c_minus_2 --m 11 --generators '(1 2 3);(1 2 3 4 5 6 7 8 9 10 11)'"
           " --format plain", "euler-characteristic-average"),
]


def _char(rng, argv):
    """One character of all of Unicode but the surrogates and, in argv, NUL."""
    while True:
        code = rng.randrange(1 if argv else 0, 128 if rng.random() < 0.5 else 0x110000)
        if not 0xD800 <= code < 0xE000:
            return chr(code)


def _text(rng, longest, alphabet, argv=False):
    """Up to ``longest`` characters of ``alphabet`` or, half the time, of all
    of Unicode."""
    if rng.random() < 0.5:
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, longest)))
    return "".join(_char(rng, argv) for _ in range(rng.randint(0, longest)))


def _integer(rng):
    return rng.randint(-9, 9) if rng.random() < 0.8 else rng.randint(-(2**70), 2**70)


def _size(rng):
    return rng.randint(-2, 6) if rng.random() < 0.5 else rng.choice(LARGE)


def _betti(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return rng.randint(-1, 3)
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.uniform(0, 2)
    if kind == 3:
        return _text(rng, 2, "a1 ")
    return rng.choice(HUGE)


def _document(rng):
    """A space document: well-formed with huge or long Betti numbers, fuzzed
    field by field, or not an object at all."""
    kind = rng.randrange(5)
    if kind < 2:
        if kind == 0:
            betti = [0] + [rng.choice([0, 1, 2, *HUGE]) for _ in range(rng.randint(1, 3))]
        else:
            dim = rng.choice(LONG)
            betti = [0] + [1] * dim if rng.random() < 0.5 else [0, 1] + [0] * (dim - 2) + [1]
        name = ("huge", "long")[kind]
        flags = {"orientable": rng.random() < 0.5, "connected": rng.random() < 0.5}
        return _space(name, betti, len(betti) - 1, **flags)
    if kind == 2:
        document = {"name": rng.choice([_text(rng, 4, "xy"), _integer(rng)])}
        optional = {
            "poincare_c": lambda: ([_betti(rng) for _ in range(rng.randint(0, 5))]
                                   if rng.random() < 0.8 else _integer(rng)),
            "dim": lambda: rng.randint(-1, 4) if rng.random() < 0.8 else _text(rng, 2, "1a"),
            "i_acyclic": lambda: rng.random() < 0.5 if rng.random() < 0.5 else rng.randint(0, 1),
            "orientable": lambda: rng.random() < 0.5,
            "connected": lambda: rng.choice([True, False, None]),
            "extra": lambda: _integer(rng),
        }
        for key, value in optional.items():
            if rng.random() < 0.7:
                document[key] = value()
        return document
    if kind == 3:
        return [_integer(rng) for _ in range(rng.randint(0, 3))]
    return _integer(rng)


def _generators(rng):
    if rng.random() < 0.5:
        return _text(rng, 16, "()0123456789 ,;-", argv=True)
    cycles = [[rng.randint(0, 7) for _ in range(rng.randint(1, 4))] for _ in range(rng.randint(0, 3))]
    return ";".join("(" + " ".join(map(str, c)) + ")" for c in cycles)


def _argv(rng):
    space = ["--space", rng.choice(SPACES)]
    command = rng.choice(["quotient", "poincare", "character", "universal", "stability", "raw"])
    if command == "quotient":
        argv = ["quotient", *space, "--m", str(_size(rng)), "--generators", _generators(rng)]
    elif command == "poincare":
        argv = ["poincare", *space, "--target", rng.choice(TARGETS), "--m", str(_size(rng))]
        if rng.random() < 0.5:
            argv += ["--l", str(_size(rng))]
    elif command == "character":
        argv = ["character", *space, "--m", str(_size(rng))]
        if rng.random() < 0.5:
            argv.append("--all")
        else:
            argv += ["--cycle-type", _text(rng, 8, "0123456789^,", argv=True)]
    elif command == "universal":
        argv = ["universal", "--l", str(_size(rng)), "--m", str(_size(rng))]
        if rng.random() < 0.5:
            argv.append("--closed")
    elif command == "stability":
        i = rng.randint(-1, 3) if rng.random() < 0.5 else rng.choice(LARGE)
        a = rng.randint(-1, 2) if rng.random() < 0.5 else rng.choice(LARGE)
        argv = ["stability", *space, "--i", str(i), "--a", str(a),
                "--range", f"{_size(rng)}..{_size(rng)}"]
    else:
        argv = [rng.choice(VOCABULARY) if rng.random() < 0.5 else _text(rng, 4, "-ml3", argv=True)
                for _ in range(rng.randint(0, 8))]
    if rng.random() < 0.5:
        argv += ["--format", rng.choice(["json", "plain", "latex"])]
    return argv


def draw(seed):
    """The argv, space document and environment of draw ``seed``."""
    rng = random.Random(seed)
    argv, document = _argv(rng), _document(rng)
    env = {}
    max_m = rng.choice(MAX_M)
    if max_m is not None:
        env["CONFCOHOM_MAX_M"] = max_m
    if rng.random() < 0.5:
        env.update(NO_DIGIT_LIMIT)
    return argv, document, env


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


_CHECK_LINE = re.compile(r"^  \[(pass|FAIL)\] (.*)$", re.MULTILINE)


def verdict(code, stdout, stderr, expect=None):
    """How one call with exit ``code``, ``stdout`` and ``stderr`` broke the
    contract, or None.  ``expect`` is None for any documented exit, an exit
    code, or a name that the call must carry: a check of its answer, passed,
    or the hypothesis that its refusal names.  A failing selftest, exit 4
    after its document, fails here as a refusal that wrote to stdout."""
    tail = stderr.strip()[-300:]
    if "Traceback" in stderr or code not in EXIT_CODES:
        return f"exit {code}: {tail}"
    if isinstance(expect, int) and code != expect:
        return f"exit {code}, not {expect}: {tail}"
    if code == 0:
        checks = _checks(stdout)
        failed = [name for name, passed in checks if not passed]
        if stderr or failed:
            return f"an answer with failed checks {failed} and stderr {tail!r}"
        names = {name for name, _ in checks}
    else:
        error = _error(stderr)
        keys = {"category", "message", "flag"} if code == 2 else {"category", "message"}
        if stdout or not isinstance(error, dict) or set(error) != keys or (
            error["category"] != CATEGORIES[code]
        ):
            return f"exit {code} with stdout {stdout[:100]!r}, not one JSON error: {tail}"
        names = {error.get("flag")}
    if isinstance(expect, str) and expect not in names:
        return f"exit {code} without {expect!r}: {sorted(map(str, names))}"
    return None


def _checks(stdout):
    """The (name, passed) pairs of an answer's checks, in JSON, plain or LaTeX."""
    if stdout.startswith("{"):  # integers left as text: they may pass the digit limit
        entries = json.loads(stdout, parse_int=str)["checks"]
        return [(entry["name"], entry["passed"] is True) for entry in entries]
    shown = stdout.partition("\nchecks:\n")[2]
    return [(name, mark == "pass") for mark, name in _CHECK_LINE.findall(shown)]


def _error(stderr):
    """The payload of a refusal's one JSON line on stderr, or None."""
    try:
        (line,) = stderr.splitlines()
        return json.loads(line)["error"]
    except (ValueError, TypeError, KeyError):
        return None


def _failure(argv, document, extra, expect, workdir):
    """Run one call as its own process; say how it broke the contract, or None."""
    path = os.path.join(workdir, "space.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    argv = [path if a == "FILE" else a for a in argv]
    env = {k: v for k, v in os.environ.items() if k not in ("CONFCOHOM_MAX_M", DIGITS)}
    env.update(extra, PYTHONPATH=SRC)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "confcohom.cli", *argv], env=env, cwd=workdir,
            capture_output=True, text=True, timeout=TIMEOUT_S, preexec_fn=_limit_address_space,
        )
    except subprocess.TimeoutExpired:
        return f"no exit within {TIMEOUT_S} s"
    return verdict(done.returncode, done.stdout, done.stderr, expect)


def run(first=0, count=200, verbose=False):
    """Run every row of FIXED, then draws ``first`` .. ``first + count - 1``;
    print one line per failing call (every call when ``verbose``) and a
    summary, and return the number of failures."""
    calls = [(f"row {i}", *row) for i, row in enumerate(FIXED)]
    calls += [(f"seed {seed}", *draw(seed), None) for seed in range(first, first + count)]
    failures = 0
    with tempfile.TemporaryDirectory() as workdir:
        for label, argv, document, env, expect in calls:
            failure = _failure(argv, document, env, expect, workdir)
            if failure or verbose:
                print(f"{label}: {env} {argv[:12]}: {failure or 'ok'}", flush=True)
            failures += failure is not None
    print(f"{len(FIXED)} rows and {count} draws: {failures} failed")
    return failures


def main(args=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=0, help="the first seed")
    parser.add_argument("--count", type=int, default=200, help="how many seeds")
    parser.add_argument("--verbose", action="store_true", help="print every call")
    options = parser.parse_args(args)
    return 1 if run(options.first, options.count, options.verbose) else 0


if __name__ == "__main__":
    sys.exit(main())

"""Draw CLI calls and run each in its own process, in 1 GiB of address space.

Each draw runs as ``python -m confcohom.cli`` under an address-space limit
of 1 GiB (``ulimit -v 1048576``) and a 5 s timeout.  It must end in one of
the documented exit codes 0/2/3/4/5, with no traceback on stderr and no
timeout.  The grammar is that of ``TestFuzzExitCodes`` in
``tests/test_cli.py``: commands, targets and formats; built-in spaces and
space files, valid or malformed, some with Betti numbers of 10^1000 and
10^4000; sizes from -2..6 and {12, 13, 14, 15, 1000, 10^9};
``CONFCOHOM_MAX_M``; and the int-to-str limit, default or off
(``PYTHONINTMAXSTRDIGITS=0``).  Like that test, it skips only the draws that
``limits.check_closed_form`` admits with more than 10^5 big-integer steps:
they would answer, but slowly.

Draw i comes from ``random.Random(i)``, so a failure is replayed by its
seed.  Run from anywhere, with no dependency beyond the standard library:

    python tools/fuzz_cli.py                 # seeds 0..199
    python tools/fuzz_cli.py --first 17 --count 1 --verbose

It prints one line per failing draw and exits 1 if any draw failed.
"""

import argparse
import json
import os
import random
import resource
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from confcohom import BUILTIN_SPACES, limits  # noqa: E402
from confcohom.cli import space_from_document  # noqa: E402
from confcohom.errors import ConfcohomError, CostCapExceeded  # noqa: E402

ADDRESS_SPACE = 1 << 30  # bytes, as ulimit -v 1048576
TIMEOUT_S = 5
EXIT_CODES = (0, 2, 3, 4, 5)
SLOW_STEPS = 10**5

LARGE = [12, 13, 14, 15, 1000, 10**9]  # the caps and far past them
HUGE = [10**1000, 10**4000]
SPACES = ["c", "cstar", "r3", "c_minus_1", "klein_pointed", "nosuch", "FILE"]
TARGETS = ["fm", "delta", "delta_le", "ordinary", "cf", "bf", "sym", "cyc"]
MAX_M = [None, "", "0", "3", "14", "99", "abc", "-1", "1.5"]
VOCABULARY = ["poincare", "quotient", "--space", "c", "--m", "3", "--target", "fm", "--all", "--l"]


def _text(rng, alphabet, longest):
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, longest)))


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
        return _text(rng, "a1 ", 2)
    return rng.choice(HUGE)


def _document(rng):
    """A space document: well-formed with huge Betti numbers, fuzzed field
    by field, or not an object at all."""
    kind = rng.randrange(4)
    if kind == 0:
        betti = [0] + [rng.choice([0, 1, 2, *HUGE]) for _ in range(rng.randint(1, 3))]
        return {"name": "drawn", "poincare_c": betti, "dim": len(betti) - 1,
                "i_acyclic": True, "orientable": rng.random() < 0.5}
    if kind == 1:
        document = {"name": rng.choice([_text(rng, "xy", 4), rng.randint(-9, 9)])}
        optional = {
            "poincare_c": lambda: ([_betti(rng) for _ in range(rng.randint(0, 5))]
                                   if rng.random() < 0.8 else rng.randint(-9, 9)),
            "dim": lambda: rng.randint(-1, 4) if rng.random() < 0.8 else _text(rng, "1a", 2),
            "i_acyclic": lambda: rng.random() < 0.5 if rng.random() < 0.5 else rng.randint(0, 1),
            "orientable": lambda: rng.random() < 0.5,
            "connected": lambda: rng.choice([True, False, None]),
            "extra": lambda: rng.randint(-9, 9),
        }
        for key, value in optional.items():
            if rng.random() < 0.7:
                document[key] = value()
        return document
    if kind == 2:
        return [rng.randint(-9, 9) for _ in range(rng.randint(0, 3))]
    return rng.randint(-9, 9)


def _generators(rng):
    if rng.random() < 0.5:
        return _text(rng, "()0123456789 ,;-", 16)
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
            argv += ["--cycle-type", _text(rng, "0123456789^,", 8)]
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
        argv = [rng.choice(VOCABULARY) if rng.random() < 0.5 else _text(rng, "-ml3", 4)
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
        env["PYTHONINTMAXSTRDIGITS"] = "0"
    return argv, document, env


def _admitted(target, m, l, pc, budget):
    saved = limits.STRATA_WORK_BUDGET
    limits.STRATA_WORK_BUDGET = budget
    try:
        limits.check_closed_form(target, m, l, pc)
    except CostCapExceeded:
        return False
    finally:
        limits.STRATA_WORK_BUDGET = saved
    return True


def costly(argv, document, no_digit_limit):
    """Whether the closed-form estimate admits ``argv`` on its space with
    more than 10^5 big-integer steps: a draw that would answer, but slowly."""
    try:
        m = int(argv[argv.index("--m") + 1])
        l = int(argv[argv.index("--l") + 1]) if "--l" in argv else None
        target = argv[argv.index("--target") + 1] if argv[0] == "poincare" else None
    except (ValueError, IndexError):
        return False  # refused by argparse, or a raw draw
    if argv[0] == "universal":
        target, pc = "delta_le" if "--closed" in argv else "delta", None
    elif target in ("fm", "ordinary", "delta", "delta_le"):
        name = argv[argv.index("--space") + 1]
        try:
            space = BUILTIN_SPACES[name] if name != "FILE" else space_from_document(document)
        except (KeyError, ConfcohomError):
            return False  # an unknown or malformed space is refused first
        pc = space.pc
    else:
        return False
    if target in ("fm", "ordinary"):
        if m < 0:
            return False
    elif l is None or not 1 <= l <= m:
        return False
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0 if no_digit_limit else 4300)
    try:
        return _admitted(target, m, l, pc, limits.STRATA_WORK_BUDGET) and not _admitted(
            target, m, l, pc, SLOW_STEPS
        )
    finally:
        sys.set_int_max_str_digits(saved)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run(seed, workdir):
    """Run draw ``seed``; return (argv, env, failure or None), or None when skipped."""
    argv, document, extra = draw(seed)
    if costly(argv, document, extra.get("PYTHONINTMAXSTRDIGITS") == "0"):
        return None
    path = os.path.join(workdir, "space.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    argv = [path if a == "FILE" else a for a in argv]
    env = {k: v for k, v in os.environ.items()
           if k not in ("CONFCOHOM_MAX_M", "PYTHONINTMAXSTRDIGITS")}
    env.update(extra, PYTHONPATH=SRC)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "confcohom.cli", *argv], env=env, cwd=workdir,
            capture_output=True, text=True, timeout=TIMEOUT_S, preexec_fn=_limit_address_space,
        )
    except subprocess.TimeoutExpired:
        return argv, extra, f"no exit within {TIMEOUT_S} s"
    if done.returncode not in EXIT_CODES:
        return argv, extra, f"exit {done.returncode}: {done.stderr.strip()[-300:]}"
    if "Traceback" in done.stderr:
        return argv, extra, f"traceback with exit {done.returncode}"
    return argv, extra, None


def main(args=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=0, help="the first seed")
    parser.add_argument("--count", type=int, default=200, help="how many seeds")
    parser.add_argument("--verbose", action="store_true", help="print every draw")
    options = parser.parse_args(args)
    failures = skipped = 0
    with tempfile.TemporaryDirectory() as workdir:
        for seed in range(options.first, options.first + options.count):
            outcome = run(seed, workdir)
            if outcome is None:
                skipped += 1
                continue
            argv, env, failure = outcome
            if failure or options.verbose:
                print(f"seed {seed}: {env} {argv[:12]}: {failure or 'ok'}", flush=True)
            failures += failure is not None
    print(f"{options.count} draws, {skipped} skipped as slow, {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

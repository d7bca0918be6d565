"""What a fresh interpreter compiles: the lazy package namespace, and the
modules that each CLI command loads, refusals included; and how the process
entry ends a call.

The CLI runs as one short process per call, from a source checkout with no
bytecode cache, so every module it imports is compiled on every call.  The
probes run in fresh interpreters under ``-W error``; a scan of the import
statements pins the layering that makes the probes hold.
"""

import ast
import gc
import importlib
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

import confcohom
from confcohom import checks
from confcohom.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = Path(confcohom.__file__).parent

# home module -> the public names it binds, as the package's explicit
# imports bound them before its namespace became lazy
HOMES = {
    "errors": "ConfcohomError ConsistencyError CostCapExceeded HypothesisViolation "
    "InputParseError",
    "polyarith": "BiPoly LaurentPoly falling_product",
    "combinat": "CycleType all_cycle_types",
    "groups": "Permutation",
    "confspace": "BUILTIN_SPACES SpaceSpec euler_char_config poincare_config "
    "poincare_config_ordinary",
    "strata": "poincare_at_most poincare_exactly stirling_first_signed stirling_second "
    "universal_poly",
    "charseries": "TraceSeries config_series config_trace exactly_series induce_blocks "
    "poincare_cyclic_config poincare_cyclic_product poincare_symmetric_product "
    "poincare_unordered_config power_trace quotient_poincare reconstruct_config_series",
    "oracles": "SetPartition at_most_trace exactly_trace group_closure set_partitions "
    "stable_partitions tensor_trace_oracle",
    "repstab": "ConstancyReport MultiplicityTable StabilityReport decompose_series "
    "stability_report symmetric_group_character unordered_betti_constancy",
}

# names that left the public surface: deleted outright, or kept in their
# home module for its own callers only
DELETED = {
    "combinat": ("stirling_first_unsigned",),
    "confspace": ("borel_moore_betti_config",),
    "repstab": ("unpad_shape",),
}
DELETED_METHODS = {
    "CycleType": ("fixed_points", "x"),
    "BiPoly": ("from_exp_map",),
    "LaurentPoly": ("const", "from_exp_map", "invert_var"),
    "Permutation": ("sign",),
    "SetPartition": ("block_sizes",),
}
UNEXPORTED = {
    "combinat": "divisors euler_phi mobius partitions stable_block_counts symmetric_counts",
    "groups": "representative subgroup_class_counts",
    "confspace": "require require_stability_hypotheses",
    "strata": "stirling_row",
    "charseries": "power_series",
    "repstab": "borel_moore_series irrep_dimension pad_core",
}

# old home -> new home, and the names that moved there along the layers' seams
MOVED = [
    ("combinat", "groups", "Permutation _checked_generators _compose _cycle_mult _group_table "
     "_inverse _table_products representative subgroup_class_counts"),
    ("combinat", "strata", "_falling_factorial _stirling_differences _stirling_sweep "
     "stirling_first_signed stirling_row stirling_second"),
    ("confspace", "strata", "_check_strata poincare_at_most poincare_exactly universal_poly"),
    ("repstab", "confspace", "require_stability_hypotheses"),
]

# Prints the confcohom submodules loaded by the time the code before it ends.
LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('confcohom.'))))"


def call(*argv: str, **kwargs) -> subprocess.CompletedProcess:
    """``python *argv`` in a fresh interpreter on the source tree, with no
    bytecode cache, its output captured."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONDONTWRITEBYTECODE="1")
    env.pop("CONFCOHOM_MAX_M", None)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, **kwargs
    )


def fresh(code: str, *argv: str) -> str:
    """Stdout of ``code`` run by a fresh interpreter on the source tree."""
    return call("-W", "error", "-c", code, *argv, check=True).stdout


def loaded_by(*argv: str, code: int = 0) -> set[str]:
    """The confcohom submodules that a CLI call exiting with ``code`` loads."""
    program = (
        "import json, sys\nfrom confcohom.cli import main\n"
        f"if main(sys.argv[1:]) != {code}:\n    sys.exit('unexpected exit code')\n{LOADED}"
    )
    return set(json.loads(fresh(program, *argv).splitlines()[-1]))


class TestLazyNamespace:
    def test_bare_import_loads_no_submodule(self):
        code = (
            "import json, sys, confcohom\n"
            "if not set(confcohom.__all__) <= set(dir(confcohom)):\n"
            "    sys.exit('dir() misses public names')\n" + LOADED
        )
        assert json.loads(fresh(code)) == []

    def test_submodule_resolves_after_bare_import(self):
        code = "import confcohom\nprint(confcohom.repstab.__name__)"
        assert fresh(code).strip() == "confcohom.repstab"

    def test_first_public_name_loads_every_public_module(self):
        code = f"import json, sys, confcohom\nconfcohom.BiPoly\n{LOADED}"
        loaded = set(json.loads(fresh(code)))
        assert {f"confcohom.{home}" for home in HOMES} <= loaded
        assert "confcohom.cli" not in loaded

    def test_each_name_is_bound_from_its_home(self):
        pinned = sorted(name for names in HOMES.values() for name in names.split())
        assert pinned == confcohom.__all__
        for home, names in HOMES.items():
            module = importlib.import_module(f"confcohom.{home}")
            for name in names.split():
                obj = getattr(module, name)
                assert getattr(confcohom, name) is obj, name
                assert getattr(obj, "__module__", module.__name__) == module.__name__, name

    @pytest.mark.parametrize(("old", "new", "names"), MOVED, ids=[f"{o}->{n}" for o, n, _ in MOVED])
    def test_moved_names_have_one_home(self, old, new, names):
        before, after = (importlib.import_module(f"confcohom.{m}") for m in (old, new))
        for name in names.split():
            obj = getattr(after, name)
            assert obj.__module__ == after.__name__, name
            assert getattr(before, name, obj) is obj, name  # gone, or imported: never a copy

    def test_removed_names_are_gone(self):
        for home, names in DELETED.items():
            module = importlib.import_module(f"confcohom.{home}")
            for name in names:
                assert not hasattr(module, name), name
                assert not hasattr(confcohom, name), name
        for cls, names in DELETED_METHODS.items():
            for name in names:
                assert not hasattr(getattr(confcohom, cls), name), (cls, name)
        for home, names in UNEXPORTED.items():
            module = importlib.import_module(f"confcohom.{home}")
            for name in names.split():
                assert hasattr(module, name), name
                assert name not in confcohom.__all__
                assert not hasattr(confcohom, name), name

    def test_star_import_and_dir_cover_all(self):
        namespace: dict = {}
        exec("from confcohom import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(confcohom.__all__)
        assert set(confcohom.__all__) <= set(dir(confcohom))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            confcohom.no_such_name  # noqa: B018
        assert not hasattr(confcohom, "no_such_name")

    def test_cli_as_main_warns_nothing(self):
        # runpy warns when the package has imported confcohom.cli before
        # running it as __main__; -W error turns that into a failure, on
        # every row of COMMANDS and REFUSALS, as each compiles its own layers
        failed = []
        for argv, code in [(argv, 0) for argv, _, _ in COMMANDS] + REFUSALS:
            done = call("-W", "error", "-m", "confcohom.cli", *argv)
            if done.returncode != code or (code == 0 and done.stderr):
                failed.append((" ".join(argv), done.returncode, done.stderr))
        assert not failed


HEAVY = {"confcohom.charseries", "confcohom.oracles", "confcohom.repstab"}
NO_ORACLES = {"confcohom.oracles", "confcohom.repstab"}
LAYERS = {"confcohom.combinat", "confcohom.groups", "confcohom.strata"}
STRATA = {"confcohom.strata"}
GROUPS = {"confcohom.groups"}
POINTS = ("--space", "c", "--m", "4")
PAIRS = (*POINTS, "--l", "2")  # only delta and delta_le take --l


# argv, modules it must load, modules it must not load
COMMANDS = [
    (("poincare", "--target", "fm", *POINTS), set(), HEAVY | LAYERS),
    (("poincare", "--target", "ordinary", *POINTS), set(), HEAVY | LAYERS),
    (("poincare", "--target", "delta", *PAIRS), STRATA, HEAVY | LAYERS - STRATA),
    (("poincare", "--target", "delta_le", *PAIRS), STRATA, HEAVY | LAYERS - STRATA),
    (("universal", "--l", "2", "--m", "4"), STRATA, HEAVY | LAYERS - STRATA),
    (("character", "--space", "c", "--m", "4", "--cycle-type", "1^2,2"), set(),
     NO_ORACLES | GROUPS | STRATA),
    (("character", "--space", "c", "--m", "4", "--all"),
     {"confcohom.combinat", "confcohom.charseries"}, NO_ORACLES | GROUPS | STRATA),
    (("quotient", "--space", "c", "--m", "4", "--generators", "(1 2 3 4)"), GROUPS,
     NO_ORACLES | STRATA),
    (("poincare", "--target", "cf", *POINTS), GROUPS, NO_ORACLES | STRATA),
    (("poincare", "--target", "bf", *POINTS), set(), NO_ORACLES | GROUPS | STRATA),
    (("poincare", "--target", "sym", *POINTS), {"confcohom.oracles"},
     {"confcohom.repstab"} | GROUPS | STRATA),
    (("poincare", "--target", "cyc", *POINTS), GROUPS, NO_ORACLES | STRATA),
    (("stability", "--space", "c", "--i", "1", "--range", "1..5"), STRATA,
     {"confcohom.oracles"} | GROUPS),
]


@pytest.mark.parametrize(
    ("argv", "present", "absent"), COMMANDS, ids=[" ".join(a) for a, _, _ in COMMANDS]
)
def test_command_loads_only_what_it_runs(argv, present, absent):
    loaded = loaded_by(*argv)
    assert {"confcohom.cli"} | present <= loaded
    assert not loaded & (absent | {"confcohom.selftest"})


def test_every_target_has_its_pin():
    # a target added to the table ships with the modules it may load
    pinned = [argv[2] for argv, _, _ in COMMANDS if argv[0] == "poincare"]
    assert sorted(pinned) == sorted(checks.TARGETS)


# A hypothesis (exit 2) or a cap (exit 5) refuses before any layer it gates is compiled.
REFUSALS = [
    (("character", "--space", "klein_pointed", "--m", "4", "--all"), 2),
    (("character", "--space", "klein_pointed", "--m", "4", "--cycle-type", "1^4"), 2),
    (("character", "--space", "c", "--m", "13", "--all"), 5),
    (("character", "--space", "c", "--m", "13", "--cycle-type", "1^13"), 5),
    (("stability", "--space", "klein_pointed", "--i", "1", "--range", "1..4"), 2),
    (("stability", "--space", "r1", "--i", "1", "--range", "1..4"), 2),
    (("stability", "--space", "c", "--i", "1", "--range", "1..13"), 5),
]


@pytest.mark.parametrize(("argv", "code"), REFUSALS, ids=[" ".join(a) for a, _ in REFUSALS])
def test_refusal_loads_no_layer_it_refuses(argv, code):
    loaded = loaded_by(*argv, code=code)
    assert "confcohom.cli" in loaded
    assert not loaded & (HEAVY | LAYERS)


def test_only_selftest_loads_the_battery():
    assert "confcohom.selftest" in loaded_by("selftest")


def _imports(module: str, top_level: bool = False) -> set[str]:
    """The confcohom modules that ``module`` imports, anywhere in its source
    or only in its module-level statements."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    nodes = tree.body if top_level else ast.walk(tree)
    found = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name.removeprefix("confcohom.") for alias in node.names}
    return found


@pytest.mark.parametrize(
    ("module", "top_level", "forbidden"),
    [
        ("combinat", False, {"groups", "strata"}),
        ("confspace", False, {"strata"}),
        ("confspace", True, {"combinat", "groups", "strata"}),
        ("cli", True, {"combinat", "groups", "strata"}),
        ("checks", True, {"combinat", "groups", "strata"}),
    ],
)
def test_layering(module, top_level, forbidden):
    imported = _imports(module, top_level)
    assert imported  # the scan reads relative imports
    assert not imported & forbidden


# The process entry, run as ``-m`` and as a call of ``console_main``, answers
# as ``main`` does in-process: one row per command, and a refusal of each class
# the gates raise.  With the rows of COMMANDS they cover every call of CI's
# start-up step.
ENTRY = "import sys\nfrom confcohom.cli import console_main\nsys.exit(console_main())"
PARITY = [
    (("poincare", "--target", "delta", *PAIRS, "--format", "latex"), 0),
    (("character", "--space", "c", "--m", "4", "--all"), 0),
    (("universal", "--l", "2", "--m", "4", "--closed", "--format", "plain"), 0),
    (("quotient", "--space", "c", "--m", "4", "--generators", "(1 2);(3 4)"), 0),
    (("stability", "--space", "cstar", "--i", "1", "--range", "1..5"), 0),
    (("selftest",), 0),
    (("stability", "--space", "klein_pointed", "--i", "1", "--range", "1..4"), 2),
    (("poincare", "--space", "nowhere", "--target", "fm", "--m", "4"), 3),
    (("character", "--space", "c", "--m", "13", "--all"), 5),
]


@pytest.mark.parametrize(("argv", "code"), PARITY, ids=[" ".join(a) for a, _ in PARITY])
def test_process_entry_answers_as_main(argv, code, monkeypatch):
    monkeypatch.delenv("CONFCOHOM_MAX_M", raising=False)
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert main(list(argv)) == code
    for launch in (("-m", "confcohom.cli"), ("-c", ENTRY)):
        done = call("-W", "error", *launch, *argv)
        assert (done.returncode, done.stdout, done.stderr) == (code, out.getvalue(), err.getvalue())


def test_main_never_freezes(capsys):
    # tests, the byte corpus and the benchmark call main many times in one
    # process, where a frozen heap would never be collected
    assert main(["universal", "--l", "1", "--m", "1"]) == 0
    assert gc.get_freeze_count() == 0


def test_a_profiled_call_prints_its_stats():
    # the freeze leaves the interpreter's own ending, atexit handlers included, in place
    done = call("-m", "cProfile", "-m", "confcohom.cli", "universal", "--l", "1", "--m", "1")
    assert done.returncode == 0, done.stderr
    assert '"command": "universal"' in done.stdout
    assert "function calls" in done.stdout and "Ordered by:" in done.stdout


def _close(fd):
    return lambda: os.close(fd)


def _read_only(fd):
    # as a shell wrapper leaves its script on a descriptor that the caller closed
    return lambda: os.dup2(os.open(os.devnull, os.O_RDONLY), fd)


@pytest.mark.parametrize(
    ("argv", "preexec", "code"),
    [
        (("poincare", "--space", "c", "--target", "fm", "--m", "30"), _close(1), 0),
        (("poincare", "--space", "klein_pointed", "--target", "fm", "--m", "3"), _close(2), 2),
        (("poincare", "--space", "klein_pointed", "--target", "fm", "--m", "3"),
         _read_only(2), 2),
    ],
    ids=["stdout closed", "stderr closed", "stderr read-only"],
)
def test_a_closed_stream_keeps_the_exit(argv, preexec, code):
    done = call("-m", "confcohom.cli", *argv, preexec_fn=preexec)
    assert (done.returncode, done.stdout, done.stderr) == (code, "", "")

"""What a fresh interpreter compiles: the lazy package namespace, and the
modules that each CLI command loads.

The CLI runs as one short process per call, from a source checkout with no
bytecode cache, so every module it imports is compiled on every call.  The
probes run in fresh interpreters under ``-W error``.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import confcohom

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# home module -> the public names it binds, as the package's explicit
# imports bound them before its namespace became lazy
HOMES = {
    "errors": "ConfcohomError ConsistencyError CostCapExceeded HypothesisViolation "
    "InputParseError",
    "polyarith": "BiPoly LaurentPoly falling_product",
    "combinat": "CycleType Permutation all_cycle_types group_closure stirling_first_signed "
    "stirling_second",
    "confspace": "BUILTIN_SPACES SpaceSpec euler_char_config poincare_at_most poincare_config "
    "poincare_config_ordinary poincare_exactly universal_poly",
    "charseries": "TraceSeries config_series config_trace exactly_series induce_blocks "
    "poincare_cyclic_config poincare_cyclic_product poincare_symmetric_product "
    "poincare_unordered_config power_trace quotient_poincare reconstruct_config_series",
    "oracles": "SetPartition at_most_trace exactly_trace set_partitions stable_partitions "
    "tensor_trace_oracle",
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
    "combinat": "divisors euler_phi mobius partitions representative stable_block_counts "
    "subgroup_class_counts",
    "charseries": "power_series",
    "repstab": "borel_moore_series irrep_dimension pad_core",
}

# Prints the confcohom submodules loaded by the time the code before it ends.
LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('confcohom.'))))"


def fresh(code: str, *argv: str) -> str:
    """Stdout of ``code`` run by a fresh interpreter on the source tree."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONDONTWRITEBYTECODE="1")
    env.pop("CONFCOHOM_MAX_M", None)
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", code, *argv],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return done.stdout


def loaded_by(*argv: str) -> set[str]:
    """The confcohom submodules that a successful CLI call loads."""
    code = (
        "import json, sys\nfrom confcohom.cli import main\n"
        f"if main(sys.argv[1:]):\n    sys.exit('the command failed')\n{LOADED}"
    )
    return set(json.loads(fresh(code, *argv).splitlines()[-1]))


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
                assert getattr(confcohom, name) is getattr(module, name), name

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
        # running it as __main__; -W error turns that into a failure
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = ["-W", "error", "-m", "confcohom.cli", "universal", "--l", "1", "--m", "1"]
        done = subprocess.run(
            [sys.executable, *argv],
            capture_output=True,
            text=True,
            env=env,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""


HEAVY = {"confcohom.charseries", "confcohom.oracles", "confcohom.repstab"}
NO_ORACLES = {"confcohom.oracles", "confcohom.repstab"}
CLOSED_FORMS = ("--space", "c", "--m", "4", "--l", "2")


COMMANDS = [
    (("poincare", "--target", "fm", *CLOSED_FORMS), HEAVY),
    (("poincare", "--target", "delta", *CLOSED_FORMS), HEAVY),
    (("poincare", "--target", "delta_le", *CLOSED_FORMS), HEAVY),
    (("poincare", "--target", "ordinary", *CLOSED_FORMS), HEAVY),
    (("universal", "--l", "2", "--m", "4"), HEAVY),
    (("character", "--space", "c", "--m", "4", "--cycle-type", "1^2,2"), NO_ORACLES),
    (("quotient", "--space", "c", "--m", "4", "--generators", "(1 2 3 4)"), NO_ORACLES),
    (("poincare", "--target", "cf", *CLOSED_FORMS), NO_ORACLES),
    (("poincare", "--target", "bf", *CLOSED_FORMS), NO_ORACLES),
    (("poincare", "--target", "cyc", *CLOSED_FORMS), NO_ORACLES),
    (("stability", "--space", "c", "--i", "1", "--range", "1..5"), {"confcohom.oracles"}),
]


@pytest.mark.parametrize(("argv", "absent"), COMMANDS, ids=[" ".join(a) for a, _ in COMMANDS])
def test_command_loads_only_what_it_runs(argv, absent):
    loaded = loaded_by(*argv)
    assert "confcohom.cli" in loaded
    assert not loaded & (absent | {"confcohom.selftest"})


def test_only_selftest_loads_the_battery():
    assert "confcohom.selftest" in loaded_by("selftest")

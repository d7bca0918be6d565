"""Where the brute-force oracles live, how they reach the layers they check,
and the set-partition cap that bounds them."""

import ast
import importlib
from pathlib import Path

import pytest

import confcohom
from confcohom import BUILTIN_SPACES, CostCapExceeded, Permutation, charseries, oracles

MOVED = (
    "SetPartition",
    "set_partitions",
    "stable_partitions",
    "exactly_trace",
    "at_most_trace",
    "tensor_trace_oracle",
    "symmetric_product_generating_function",
)
PRODUCTION = ("polyarith", "combinat", "groups", "confspace", "strata", "charseries", "repstab",
              "limits", "record", "errors")
SRC = Path(confcohom.__file__).parent


def _imports(module: str):
    """(target, name) for each import in ``module``, package prefix dropped:
    ``from .x import y`` yields ("x", "y"); ``from . import x`` and
    ``import confcohom.x`` yield ("x", None)."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            pairs = [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            pairs = [(alias.name, None) for alias in node.names]
        else:
            continue
        yield from ((target.removeprefix("confcohom."), name) for target, name in pairs)


@pytest.mark.parametrize("name", MOVED)
def test_oracle_lives_in_oracles(name):
    assert getattr(oracles, name).__module__ == "confcohom.oracles"
    if name in confcohom.__all__:
        assert getattr(confcohom, name) is getattr(oracles, name)


@pytest.mark.parametrize("module", PRODUCTION)
def test_no_production_module_imports_oracles(module):
    assert "oracles" not in {target for target, _name in _imports(module)}


def test_oracles_bind_no_layer_function():
    # Monkeypatches and the benchmark tracer rebind module attributes; a
    # function bound here by name would escape both.
    for target, name in _imports("oracles"):
        if name is not None and (SRC / f"{target}.py").exists():
            layer = importlib.import_module(f"confcohom.{target}")
            assert isinstance(getattr(layer, name), type), (target, name)


def test_reconstruction_induces_through_the_module(monkeypatch):
    calls = []
    original = charseries.induce_blocks

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(charseries, "induce_blocks", counted)
    plane = BUILTIN_SPACES["c"]
    assert charseries.reconstruct_config_series(plane, 5) == charseries.config_series(plane, 5)
    assert calls


def test_chain_reconstruction_is_gone():
    # the power-trace relation has one solver, in charseries
    assert not hasattr(oracles, "induce_alternating")
    assert not hasattr(oracles, "reconstruct_config_series")
    assert "induce_alternating" not in confcohom.__all__
    assert confcohom.reconstruct_config_series is charseries.reconstruct_config_series


def test_lowered_cap_refuses_a_warm_cache(monkeypatch):
    monkeypatch.delenv("CONFCOHOM_MAX_M", raising=False)
    assert len(oracles.set_partitions(6, 2)) == 31
    monkeypatch.setenv("CONFCOHOM_MAX_M", "5")
    with pytest.raises(CostCapExceeded):
        oracles.set_partitions(6, 2)
    with pytest.raises(CostCapExceeded):
        oracles.exactly_trace(BUILTIN_SPACES["c"], 2, 6, Permutation.identity(6))

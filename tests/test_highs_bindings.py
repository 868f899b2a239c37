"""lpmilp solves on scipy's bundled HiGHS bindings, a private module that
a scipy release may move.  This test reads lpmilp's source rather than
importing it, so a missing name fails here with that name, not as an
import error of every module."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

CORE = "scipy.optimize._highspy._core"
LPMILP = Path(importlib.util.find_spec("ddro.lpmilp").origin)


# lpmilp's local names for HiGHS objects, and how to make one to check
# the fields lpmilp reads or writes on it
INSTANCES = {
    "highs": lambda core: core._Highs(),
    "lp": lambda core: core.HighsLp(),
    "matrix": lambda core: core.HighsLp().a_matrix_,
    "info": lambda core: core._Highs().getInfo(),
    "sol": lambda core: core._Highs().getSolution(),
}


def _used_names():
    """(names imported from CORE, {name: attributes lpmilp uses on it})
    for the imported names and the local names of INSTANCES."""
    tree = ast.parse(LPMILP.read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == CORE
                for alias in node.names]
    attrs = {name: set() for name in [*imported, *INSTANCES]}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in attrs):
            attrs[node.value.id].add(node.attr)
    return imported, attrs


def test_lpmilp_binding_names_exist_in_scipy():
    imported, attrs = _used_names()
    assert "_Highs" in imported, "lpmilp no longer imports _Highs from " + CORE
    try:
        core = importlib.import_module(CORE)
    except ImportError as exc:
        pytest.fail(f"{CORE} is gone from this scipy: {exc}")
    for name in imported:
        assert hasattr(core, name), f"{CORE}.{name} is missing"
    objects = {name: getattr(core, name) for name in imported}
    objects.update((name, make(core)) for name, make in INSTANCES.items())
    for name, obj in objects.items():
        for attr in sorted(attrs[name]):
            assert hasattr(obj, attr), f"{CORE}: {name}.{attr} is missing"

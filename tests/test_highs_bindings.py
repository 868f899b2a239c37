"""lpmilp solves on scipy's bundled HiGHS bindings, a private module that
a scipy release may move.  This test reads lpmilp's source rather than
importing it, so a missing name fails here with that name, not as an
import error of every module."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

CORE = "scipy.optimize._highspy._core"
LPMILP = Path(importlib.util.find_spec("ddro.lpmilp").origin)


# lpmilp's local names for HiGHS objects, and how to make one to check
# the fields lpmilp reads or writes on it
INSTANCES = {
    "highs": lambda core: core._Highs(),
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


def test_array_overloads_take_int32_csr():
    # lpmilp passes models through passModel's array overload and appends
    # cut rows with addRows, both with int32 CSR arrays; a scipy release
    # that changes either signature fails here by name, not mid-solve
    core = importlib.import_module(CORE)
    highs = core._Highs()
    assert highs.setOptionValue("output_flag", False) == core.HighsStatus.kOk
    i32 = lambda *v: np.array(v, dtype=np.int32)
    # minimize -x - y subject to x + 2y <= 4, 0 <= x, y <= 3
    status = highs.passModel(2, 1, 2, int(core.MatrixFormat.kRowwise),
                             int(core.ObjSense.kMinimize), 0.0,
                             np.array([-1.0, -1.0]), np.zeros(2), np.full(2, 3.0),
                             np.array([-np.inf]), np.array([4.0]),
                             i32(0, 2), i32(0, 1), np.array([1.0, 2.0]), i32(0, 0))
    assert status == core.HighsStatus.kOk, "passModel's array overload failed"
    lp = highs.getLp()
    assert (lp.num_col_, lp.num_row_) == (2, 1)
    assert highs.run() == core.HighsStatus.kOk
    assert highs.getInfo().objective_function_value == pytest.approx(-3.5)
    # x + y <= 3 cuts the optimum (3, 0.5) off
    status = highs.addRows(1, np.array([-np.inf]), np.array([3.0]), 2,
                           i32(0), i32(0, 1), np.array([1.0, 1.0]))
    assert status == core.HighsStatus.kOk, "addRows failed"
    assert highs.getNumRow() == 2
    assert highs.run() == core.HighsStatus.kOk
    assert highs.getInfo().objective_function_value == pytest.approx(-3.0)

"""lpmilp solves on scipy's bundled HiGHS bindings, a private module that
a scipy release may move.  This test reads lpmilp's source rather than
importing it, so a missing name fails here with that name, not as an
import error of every module."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy

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
    """(names lpmilp reads from CORE, {name: attributes lpmilp uses on it})
    for the read names and the local names of INSTANCES.  lpmilp loads
    CORE as `_core` and binds each name it uses as `name = _core.name`."""
    tree = ast.parse(LPMILP.read_text())
    imported = sorted({node.attr for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                       and node.value.id == "_core"})
    bound = {node.targets[0].id for node in tree.body
             if isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute)
             and isinstance(node.value.value, ast.Name) and node.value.value.id == "_core"
             and node.targets[0].id == node.value.attr}
    assert bound == set(imported), "lpmilp reads names of _core other than as `name = _core.name`"
    attrs = {name: set() for name in [*imported, *INSTANCES]}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in attrs):
            attrs[node.value.id].add(node.attr)
    return imported, attrs


def test_lpmilp_binding_names_exist_in_scipy():
    imported, attrs = _used_names()
    assert "_Highs" in imported, "lpmilp no longer reads _Highs from " + CORE
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


def test_import_ddro_loads_neither_scipy_optimize_nor_sparse():
    # a fresh interpreter: pyproject's filterwarnings make pytest import
    # scipy.optimize itself
    script = textwrap.dedent("""
        import json, sys
        import ddro.cli
        from ddro import lpmilp
        loaded = {name: name in sys.modules for name in ("scipy.optimize", "scipy.sparse")}
        import numpy as np
        import scipy.optimize
        import scipy.optimize._highspy._core as core
        from scipy.optimize import LinearConstraint, milp
        res = milp([-1.0, -1.0], integrality=[1, 1], bounds=(0, 3),
                   constraints=LinearConstraint([[1.0, 2.0]], -np.inf, 4.0))
        print(json.dumps({"loaded": loaded, "same_core": core is lpmilp._core
                          and sys.modules[core.__name__] is lpmilp._core,
                          "status": int(res.status), "fun": float(res.fun)}))
    """)
    pythonpath = os.pathsep.join([str(LPMILP.parents[1]),
                                  os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": pythonpath})
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert out["loaded"] == {"scipy.optimize": False, "scipy.sparse": False}
    assert out["same_core"], "scipy.optimize loaded a second copy of " + CORE
    assert out["status"] == 0 and out["fun"] == -3.0


def test_core_loader_falls_back_to_the_plain_import(monkeypatch, tmp_path):
    from ddro import lpmilp

    imported = []
    import_module = importlib.import_module
    monkeypatch.setattr(lpmilp, "_CORE_DIR", str(tmp_path))  # no extension file there
    monkeypatch.delitem(sys.modules, CORE)
    # the plain import binds _core on its package; put the kept one back after
    monkeypatch.setattr(sys.modules["scipy.optimize._highspy"], "_core", lpmilp._core)
    monkeypatch.setattr(importlib, "import_module",
                        lambda name: imported.append(name) or import_module(name))
    core = lpmilp._load_core()
    assert imported == [CORE]
    assert sys.modules[CORE] is core and core._Highs is lpmilp._Highs


def test_core_loader_names_the_scipy_version_when_both_ways_fail(monkeypatch, tmp_path):
    from ddro import lpmilp

    def missing(name):
        raise ImportError(f"No module named {name!r}")

    monkeypatch.setattr(lpmilp, "_CORE_DIR", str(tmp_path))  # no extension file there
    monkeypatch.delitem(sys.modules, CORE)
    monkeypatch.setattr(importlib, "import_module", missing)
    with pytest.raises(ImportError, match=f"scipy {scipy.__version__} does not provide"):
        lpmilp._load_core()

"""The benchmark's traced run patches ddro functions by name; every
name it patches must exist, or a traced run fails at install time."""

import importlib.util
from pathlib import Path

from ddro import lpmilp, sddip

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_sites_exist_on_ddro_modules():
    spans = _load_spans()
    assert spans.SPAN_SITES
    for mod, attr, _ in spans.SPAN_SITES:
        module = importlib.import_module(f"ddro.{mod}")
        assert hasattr(module, attr), f"ddro.{mod}.{attr} is patched but missing"
    assert callable(sddip.StageOracle.solve_stage)
    assert callable(sddip.CutPool.add)


def test_traced_highs_sites_run_once_per_solve(monkeypatch):
    # the traced run times HiGHS by patching lpmilp.milp and lpmilp.linprog;
    # each must be the call a solve makes, once
    calls = []
    for name in ("milp", "linprog"):
        run = getattr(lpmilp, name)
        monkeypatch.setattr(lpmilp, name,
                            lambda *a, name=name, run=run: calls.append(name) or run(*a))
    m = lpmilp.LinearModel()
    x = m.add_var(0.0, 3.0, lpmilp.INTEGER, obj=-1.0)
    m.add_row({x: 2.0}, "<=", 5.0)
    assert lpmilp.solve_milp(m).objective == -2.0
    assert calls == ["milp"]
    assert lpmilp.solve_lp(m).objective == -2.5
    assert calls == ["milp", "linprog"]
    # a kept LP calls it once per solve too, the first (passModel) and each
    # warm one (addRows) alike
    warm = lpmilp.WarmLp(m)
    assert warm.solve().objective == -2.5
    assert calls == ["milp", "linprog", "linprog"]
    m.add_row({x: 1.0}, "<=", 2.0)
    assert warm.solve().objective == -2.0
    assert calls == ["milp", "linprog", "linprog", "linprog"]
    # a batch of MILPs is one solve
    sols = lpmilp.solve_milps([m, m.copy(), m])
    assert [sol.objective for sol in sols] == [-2.0] * 3
    assert calls == ["milp", "linprog", "linprog", "linprog", "milp"]


def test_traced_milp_hook_reads_rows_and_node_count():
    # the traced run's hook on solve_milp adds the model's num_rows and the
    # result's node_count to its counters; a batch's results carry
    # node_count too
    spans = _load_spans()
    m = lpmilp.LinearModel()
    x = m.add_var(0.0, 3.0, lpmilp.INTEGER, obj=-1.0)
    y = m.add_var(0.0, 3.0, lpmilp.INTEGER, obj=-1.0)
    m.add_row({x: 2.0, y: 2.0}, "<=", 5.0)
    m.add_row({x: 1.0, y: -1.0}, "<=", 0.5)
    tracer = spans.Tracer()
    tracer.install()
    try:
        sol = tracer.root("solve", lpmilp.solve_milp, m)
    finally:
        tracer.uninstall()
    assert sol.objective == -2.0 and isinstance(sol.node_count, int)
    assert tracer.counts["milp_rows"] == m.num_rows == 2
    assert tracer.counts["milp_nodes"] == sol.node_count
    sols = lpmilp.solve_milps([m, m.copy()])
    assert [s.objective for s in sols] == [-2.0, -2.0]
    assert all(isinstance(s.node_count, int) and s.node_count >= 0 for s in sols)

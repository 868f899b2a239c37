import io
import itertools
import os
import sys
import threading
import warnings

import numpy as np
import pytest

from ddro import lpmilp
from ddro.lpmilp import (BINARY, CONTINUOUS, DEFAULT_CONFIG, GAP_LIMIT, INFEASIBLE,
                         INTEGER, OPTIMAL, UNBOUNDED, LinearModel, NumericalFailure,
                         SolverConfig, solve_lp, solve_milp, write_lp)


def test_lp_trivial_with_dual():
    m = LinearModel()
    x = m.add_var(0.0, np.inf, obj=-1.0, name="x")
    r = m.add_row({x: 1.0}, "<=", 3.0)
    sol = solve_lp(m)
    assert sol.status == OPTIMAL
    assert abs(sol.x[x] - 3.0) < 1e-9
    assert abs(sol.objective + 3.0) < 1e-9
    assert abs(sol.duals[r] + 1.0) < 1e-9  # d(obj)/d(rhs) = -1


def test_lp_infeasible():
    m = LinearModel()
    x = m.add_var(-np.inf, np.inf, name="x")
    m.add_row({x: 1.0}, ">=", 1.0)
    m.add_row({x: 1.0}, "<=", 0.0)
    assert solve_lp(m).status == INFEASIBLE


def test_lp_unbounded():
    m = LinearModel()
    m.add_var(0.0, np.inf, obj=-1.0)
    assert solve_lp(m).status == UNBOUNDED


def _random_feasible_lp(rng):
    n = int(rng.integers(2, 21))
    nr = int(rng.integers(1, 16))
    m = LinearModel()
    lo = rng.uniform(-5, 0, n)
    hi = lo + rng.uniform(0.5, 10, n)
    x0 = rng.uniform(lo, hi)
    for i in range(n):
        m.add_var(lo[i], hi[i], obj=float(rng.normal()))
    A = rng.normal(size=(nr, n))
    for r in range(nr):
        slack = rng.uniform(0.1, 5.0)
        m.add_row((np.arange(n), A[r]), "<=", float(A[r] @ x0 + slack))
    return m


def test_lp_duality_gap_random():
    rng = np.random.default_rng(123)
    for _ in range(60):
        m = _random_feasible_lp(rng)
        sol = solve_lp(m)
        assert sol.status == OPTIMAL
        # dual objective: rhs'y + bound terms from reduced costs
        dual_obj = float(np.dot(sol.duals, m.row_rhs))
        for i in range(m.num_vars):
            rc = sol.reduced_costs[i]
            if rc > 0:
                dual_obj += rc * m.lower[i]
            elif rc < 0:
                dual_obj += rc * m.upper[i]
        assert abs(sol.objective - dual_obj) <= 1e-6 * max(1.0, abs(sol.objective))
        # complementary slackness
        for r in range(m.num_rows):
            act = float(m.dense_row(r) @ sol.x)
            if abs(sol.duals[r]) > 1e-7:
                assert abs(act - m.row_rhs[r]) <= 1e-6


def test_milp_trivial_integer_round_up():
    m = LinearModel()
    x = m.add_var(0.0, 10.0, INTEGER, obj=1.0)
    m.add_row({x: 1.0}, ">=", 0.5)
    sol = solve_milp(m)
    assert sol.status == OPTIMAL
    assert abs(sol.x[x] - 1.0) < 1e-6
    assert abs(sol.objective - 1.0) < 1e-9


def test_milp_binary_packing():
    m = LinearModel()
    x = m.add_var(0.0, 1.0, BINARY, obj=-1.0)
    y = m.add_var(0.0, 1.0, BINARY, obj=-1.0)
    m.add_row({x: 1.0, y: 1.0}, "<=", 1.5)
    sol = solve_milp(m)
    assert sol.status == OPTIMAL
    assert abs(sol.objective + 1.0) < 1e-9


def test_milp_infeasible_and_unbounded():
    m = LinearModel()
    x = m.add_var(0.0, 1.0, BINARY)
    m.add_row({x: 1.0}, ">=", 2.0)
    assert solve_milp(m).status == INFEASIBLE
    m2 = LinearModel()
    m2.add_var(0.0, np.inf, INTEGER, obj=-1.0)
    assert solve_milp(m2).status in (UNBOUNDED, GAP_LIMIT)


def test_milp_knapsack_brute_force():
    rng = np.random.default_rng(77)
    n_items = 12
    states = np.array(list(itertools.product((0, 1), repeat=n_items)), dtype=float)
    for _ in range(200):
        w = rng.uniform(1, 10, n_items)
        p = rng.uniform(1, 10, n_items)
        cap = float(rng.uniform(0.2, 0.8) * w.sum())
        m = LinearModel()
        for i in range(n_items):
            m.add_var(0.0, 1.0, BINARY, obj=-p[i])
        m.add_row((np.arange(n_items), w), "<=", cap)
        sol = solve_milp(m)
        assert sol.status == OPTIMAL
        feas = states @ w <= cap + 1e-12
        best = -(states[feas] @ p).max()
        assert abs(sol.objective - best) <= 1e-6 + 1e-9 * abs(best)
        assert np.abs(sol.x - np.rint(sol.x)).max() <= 1e-6
        assert sol.best_bound <= sol.objective + 1e-6 * max(1.0, abs(sol.objective))


def test_milp_deterministic_nodes():
    rng = np.random.default_rng(5)
    w = rng.uniform(1, 10, 14)
    p = rng.uniform(1, 10, 14)

    def build():
        m = LinearModel()
        for i in range(14):
            m.add_var(0.0, 1.0, BINARY, obj=-p[i])
        m.add_row((np.arange(14), w), "<=", float(0.4 * w.sum()))
        return m

    s1 = solve_milp(build())
    s2 = solve_milp(build())
    assert s1.objective == s2.objective
    assert s1.node_count == s2.node_count
    assert np.array_equal(s1.x, s2.x)


def _branching_knapsack(seed):
    # near-equal profit/weight ratios: HiGHS must branch to prove optimality
    rng = np.random.default_rng(seed)
    w = rng.integers(1000, 2000, 25).astype(float)
    p = w + rng.integers(0, 10, 25)
    m = LinearModel()
    for i in range(25):
        m.add_var(0.0, 1.0, BINARY, obj=-p[i])
    m.add_row((np.arange(25), w), "<=", float(np.floor(0.5 * w.sum())))
    return m, w


def test_node_limit_gives_gap_limit_with_incumbent():
    m, w = _branching_knapsack(0)
    exact = solve_milp(m)
    assert exact.status == OPTIMAL and exact.node_count > 1
    sol = solve_milp(m, SolverConfig(node_limit=1))
    assert sol.status == GAP_LIMIT
    assert sol.x is not None and np.abs(sol.x - np.rint(sol.x)).max() <= 1e-6
    assert float(w @ np.rint(sol.x)) <= m.row_rhs[0]
    assert sol.objective >= exact.objective - 1e-9 * abs(exact.objective)
    assert sol.best_bound <= exact.objective + 1e-9 * abs(exact.objective)


def test_lp_iteration_cap_raises_numerical_failure():
    m = _random_feasible_lp(np.random.default_rng(4))
    assert solve_lp(m).status == OPTIMAL
    zero_cap = SolverConfig(iteration_cap_base=-(m.num_vars + m.num_rows))
    with pytest.raises(NumericalFailure, match="Iteration limit"):
        solve_lp(m, zero_cap)


def _in_fresh_thread(fn):
    # a new thread gets new kept handles, as a new process would; what fn
    # raises there is raised here
    out = []

    def target():
        try:
            out.append(fn())
        except BaseException as exc:
            out.append(exc)

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    if isinstance(out[0], BaseException):
        raise out[0]
    return out[0]


def test_per_call_options_do_not_leak_between_solves():
    knapsack, _ = _branching_knapsack(1)
    lp = _random_feasible_lp(np.random.default_rng(4))
    zero_cap = SolverConfig(iteration_cap_base=-(lp.num_vars + lp.num_rows))

    def normal_solves():
        mip, rel = solve_milp(knapsack), solve_lp(lp)
        return (mip.objective, mip.x.tolist(), mip.node_count,
                rel.objective, rel.x.tolist(), rel.duals.tolist())

    def after_odd_solves():
        no_presolve = lpmilp._solve_milp_once(knapsack, DEFAULT_CONFIG, presolve=False)
        assert solve_milp(knapsack, SolverConfig(node_limit=1)).status == GAP_LIMIT
        with pytest.raises(NumericalFailure):
            solve_lp(lp, zero_cap)
        return no_presolve.node_count, normal_solves()

    fresh = _in_fresh_thread(normal_solves)
    no_presolve_nodes, after = _in_fresh_thread(after_odd_solves)
    assert no_presolve_nodes != fresh[2]  # presolve changes this search
    assert after == fresh


def test_unknown_highs_option_raises_typed_error(monkeypatch):
    # HiGHS's error status for the name, not a scipy warning
    fixed = {**lpmilp._FIXED_OPTIONS["lp"], "presolve_typo": "on"}
    monkeypatch.setitem(lpmilp._FIXED_OPTIONS, "lp", fixed)
    m = _random_feasible_lp(np.random.default_rng(4))
    with pytest.raises(lpmilp.HighsCallError, match="presolve_typo"):
        _in_fresh_thread(lambda: solve_lp(m))


def test_model_highs_cannot_load_raises_typed_error():
    # HiGHS refuses matrix entries above 1e15; scipy reported such a
    # model Infeasible
    m = LinearModel()
    x = m.add_var(0.0, 1.0, BINARY, obj=1.0)
    m.add_row({x: 1e16}, "<=", 1.0)
    with pytest.raises(lpmilp.HighsCallError):
        solve_milp(m)
    with pytest.raises(lpmilp.HighsCallError):
        solve_lp(m)


def test_row_duals_match_finite_differences():
    # one active row of each relation; a nondegenerate optimum
    def build(rhs):
        m = LinearModel()
        x = m.add_var(0.0, 10.0, obj=1.0)
        y = m.add_var(0.0, 10.0, obj=2.0)
        z = m.add_var(0.0, 10.0, obj=3.0)
        m.add_row({x: 1.0, y: 1.0, z: 1.0}, ">=", rhs[0])
        m.add_row({x: 1.0, y: -1.0}, "<=", rhs[1])
        m.add_row({y: 1.0, z: -2.0}, "=", rhs[2])
        return m

    rhs = np.array([6.0, 1.0, 0.5])
    duals = solve_lp(build(rhs)).duals
    h = 1e-4
    for r in range(3):
        step = np.zeros(3)
        step[r] = h
        up = solve_lp(build(rhs + step)).objective
        down = solve_lp(build(rhs - step)).objective
        assert abs(duals[r]) > 1e-3  # each row binds
        assert abs((up - down) / (2 * h) - duals[r]) <= 1e-7


def test_concurrent_milp_solves_restore_stdout_descriptor():
    # each solve swaps descriptor 1 and the warning filters; overlapping
    # swaps must leak neither
    rng = np.random.default_rng(9)
    w, p = rng.uniform(1, 10, 10), rng.uniform(1, 10, 10)
    m = LinearModel()
    for i in range(10):
        m.add_var(0.0, 1.0, BINARY, obj=-p[i])
    m.add_row((np.arange(10), w), "<=", float(0.4 * w.sum()))
    expected = solve_milp(m).objective
    before = os.fstat(1)
    filters = list(warnings.filters)
    results = []

    def worker():
        for _ in range(5):
            results.append(solve_milp(m.copy()).objective)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 30
    after = os.fstat(1)
    assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)
    assert warnings.filters == filters


def test_validation_errors():
    m = LinearModel()
    m.add_var(0.0, 1.0, CONTINUOUS, obj=np.nan)
    with pytest.raises(ValueError):
        solve_lp(m)
    with pytest.raises(ValueError):
        LinearModel().add_var(0.0, 2.0, BINARY)
    m2 = LinearModel()
    m2.add_var(0.0, 1.0)
    with pytest.raises(ValueError):
        m2.add_row({5: 1.0}, "<=", 1.0)
    with pytest.raises(ValueError):
        m2.add_row({0: 1.0}, "<<", 1.0)


def test_matrix_sums_repeated_columns_like_dense_rows():
    m = LinearModel()
    m.add_vars(4, 0.0, 1.0)
    m.add_row(([2, 0, 2, 3], [1.5, -1.0, 2.25, 0.0]), "<=", 1.0)
    m.add_row(([], []), "=", 0.0)
    m.add_row(([3, 1, 3, 3], [0.5, 4.0, -0.25, 7.0]), ">=", -2.0)
    a = m._matrix()
    assert a.has_canonical_format
    assert np.array_equal(a.toarray(), np.vstack([m.dense_row(r) for r in range(3)]))


def test_milp_rejects_nan_right_hand_side():
    # HiGHS would report such a model Infeasible
    m = LinearModel()
    x = m.add_var(0.0, 1.0, BINARY, obj=-1.0)
    m.add_row({x: 1.0}, "<=", np.nan)
    with pytest.raises(ValueError, match="right-hand side"):
        solve_milp(m)


def test_lp_export_roundtrip_text():
    m = LinearModel()
    x = m.add_var(0.0, 4.0, INTEGER, obj=2.0, name="x")
    y = m.add_var(-np.inf, np.inf, CONTINUOUS, obj=-1.0, name="y")
    b = m.add_var(0.0, 1.0, BINARY, obj=0.5, name="flag")
    m.add_row({x: 1.0, y: 2.0}, "<=", 10.0, name="capacity")
    m.add_row({y: 1.0, b: -3.0}, ">=", -1.0, name="link")
    buf = io.StringIO()
    write_lp(m, buf, name="toy")
    text = buf.getvalue()
    assert "Minimize" in text and "Subject To" in text and "End" in text
    assert "capacity: 1 x + 2 y <= 10" in text
    assert "y free" in text
    assert "Generals" in text and "Binaries" in text
    assert "flag" in text


def test_solver_config_defaults():
    cfg = SolverConfig()
    assert cfg.node_limit == 200_000

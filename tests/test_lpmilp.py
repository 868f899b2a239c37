import io
import itertools
import os
import sys
import threading
import warnings

import numpy as np
import pytest

from ddro.lpmilp import (BINARY, CONTINUOUS, GAP_LIMIT, INFEASIBLE, INTEGER,
                         OPTIMAL, UNBOUNDED, LinearModel, SolverConfig,
                         solve_lp, solve_milp, write_lp)


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

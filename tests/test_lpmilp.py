import io
import itertools
import math
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from ddro import lpmilp
from ddro.lpmilp import (BINARY, CONTINUOUS, GAP_LIMIT, INFEASIBLE, INTEGER, OPTIMAL,
                         UNBOUNDED, LinearModel, NumericalFailure, WarmLp, solve_lp,
                         solve_milp, write_lp)


def test_lp_trivial_with_dual():
    m = LinearModel()
    x = m.add_var(0.0, np.inf, obj=-1.0, name="x")
    m.add_row({x: 1.0}, "<=", 3.0)
    sol = solve_lp(m)
    assert sol.status == OPTIMAL
    assert abs(sol.x[x] - 3.0) < 1e-9
    assert abs(sol.objective + 3.0) < 1e-9


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


def dense_row(m: LinearModel, r: int) -> np.ndarray:
    """Row r of m as a dense vector, a repeated column summed."""
    row = np.zeros(m.num_vars)
    np.add.at(row, *m.rows()[r])
    return row


def csr_matrix(m: LinearModel) -> sparse.csr_matrix:
    """The rows of m as a scipy CSR matrix, copied from its kept arrays."""
    rows = m._row_matrix()
    return sparse.csr_matrix((rows.value, rows.index, rows.start),
                             shape=(m.num_rows, m.num_vars), copy=True)


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
    # each optimum is a feasible point whose objective is the optimum
    # scipy's own linprog finds for the same LP
    from scipy.optimize import linprog

    rng = np.random.default_rng(123)
    for _ in range(60):
        m = _random_feasible_lp(rng)
        sol = solve_lp(m)
        assert sol.status == OPTIMAL
        assert np.all(sol.x >= np.asarray(m.lower) - 1e-9)
        assert np.all(sol.x <= np.asarray(m.upper) + 1e-9)
        for r in range(m.num_rows):
            assert float(dense_row(m, r) @ sol.x) <= m.row_rhs[r] + 1e-6  # every row is <=
        assert abs(sol.objective - float(np.dot(m.objective, sol.x))) <= 1e-9 * max(
            1.0, abs(sol.objective))
        ref = linprog(m.objective, A_ub=csr_matrix(m).toarray(), b_ub=m.row_rhs,
                      bounds=list(zip(m.lower, m.upper)), method="highs")
        assert ref.status == 0
        assert abs(sol.objective - ref.fun) <= 1e-6 * max(1.0, abs(ref.fun))


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


def test_node_limit_gives_gap_limit_with_incumbent(monkeypatch):
    m, w = _branching_knapsack(0)
    exact = solve_milp(m)
    assert exact.status == OPTIMAL and exact.node_count > 1
    monkeypatch.setattr(lpmilp, "NODE_LIMIT", 1)
    sol = solve_milp(m)
    assert sol.status == GAP_LIMIT
    assert sol.x is not None and np.abs(sol.x - np.rint(sol.x)).max() <= 1e-6
    assert float(w @ np.rint(sol.x)) <= m.row_rhs[0]
    assert sol.objective >= exact.objective - 1e-9 * abs(exact.objective)


def _terminal_models():
    """Terminal-stage models as the engine's batches solve them, a pinned
    state and a relaxed copy with multipliers per realization: Type 1 at
    I = 6 and I = 9 (the two_stage benchmark instances) and Type 3."""
    from ddro.bench import TYPE3_PATTERNS, make_pattern_instance
    from ddro.model import generate_instance
    from ddro.sddip import CutPool, SddipConfig, StageOracle

    rng = np.random.default_rng(11)
    models = []
    for inst, ttype, mode in ((generate_instance(1, 2, 6, 2, 4, 0.8), 1, "exact"),
                              (generate_instance(1, 2, 9, 2, 4, 0.8), 1, "exact"),
                              (make_pattern_instance(TYPE3_PATTERNS[0], seed=1), 3, "lb")):
        oracle = StageOracle(inst, ttype, SddipConfig(bound_mode=mode), CutPool(inst.T, inst.K))
        for k in range(inst.K):
            x = rng.integers(0, 2, inst.I).astype(float)
            pi = rng.normal(scale=300.0, size=inst.I)
            for x_prev, p in ((x, None), (None, pi)):
                models.append(oracle._stage_model(inst.T, k, x_prev, p,
                                                  oracle.dual_bound.value)[0])
    return models


def _feasible(m: LinearModel, x: np.ndarray, tol: float = 1e-6) -> bool:
    """x meets m's bounds, integrality and rows to tol (relative to the
    right-hand side)."""
    lower, upper = np.asarray(m.lower), np.asarray(m.upper)
    if np.any(x < lower - tol) or np.any(x > upper + tol):
        return False
    ints = np.asarray(m.integrality) != CONTINUOUS
    if np.any(np.abs(x[ints] - np.rint(x[ints])) > tol):
        return False
    activity = csr_matrix(m) @ x
    for act, rel, rhs in zip(activity, m.row_rel, m.row_rhs):
        slack = tol * max(1.0, abs(rhs))
        if (rel != ">=" and act > rhs + slack) or (rel != "<=" and act < rhs - slack):
            return False
    return True


def test_milp_batch_solves_each_model_as_alone():
    # one block-diagonal solve gives each model solve_milp's optimum,
    # at a point feasible for that model
    models = _terminal_models()
    assert max(m.num_vars for m in models) >= 36  # the I = 9 blocks
    alone = [solve_milp(m) for m in models]
    for picked in (slice(None), slice(0, 8), slice(-3, None)):
        batch = models[picked]
        sols = lpmilp.solve_milps(batch)
        assert len(sols) == len(batch)
        for m, sol, ref in zip(batch, sols, alone[picked]):
            assert sol.status == OPTIMAL and sol.x.shape == (m.num_vars,)
            assert abs(sol.objective - ref.objective) <= 1e-9 * max(1.0, abs(ref.objective))
            assert _feasible(m, sol.x)
            assert sol.objective == math.fsum(np.asarray(m.objective) * sol.x)


def test_milp_batch_bounds_are_valid():
    # each model's objective from the batch of all is its optimum
    models = _terminal_models()
    sols = lpmilp.solve_milps(models)
    for m, sol in zip(models, sols):
        best = solve_milp(m).objective
        assert abs(sol.objective - best) <= 1e-9 * max(1.0, abs(best))


def test_milp_batch_of_one_is_solve_milp():
    # a model that closes at its root is solved by a batch of one exactly
    # as solve_milp solves it
    for m in _terminal_models()[::5]:
        (sol,) = lpmilp.solve_milps([m])
        ref = solve_milp(m)
        assert (sol.status, sol.objective, sol.node_count) == (
            ref.status, ref.objective, ref.node_count)
        assert np.array_equal(sol.x, ref.x)


def test_milp_batch_that_does_not_close_at_its_root_gives_none():
    # the batch is searched at its root alone: a block that branches, an
    # infeasible block or an unbounded one (which HiGHS calls "infeasible
    # or unbounded" in a batch) gives None, and no solution for any model
    models = _terminal_models()[:3]
    infeasible = LinearModel()
    x = infeasible.add_var(0.0, 1.0, BINARY)
    infeasible.add_row({x: 1.0}, ">=", 2.0)
    unbounded = LinearModel()
    x, y = unbounded.add_var(0.0, np.inf, INTEGER, obj=-1.0), unbounded.add_var(0.0, np.inf, INTEGER)
    unbounded.add_row({x: 1.0, y: -1.0}, "<=", 0.5)
    assert solve_milp(unbounded).status == UNBOUNDED
    assert lpmilp.solve_milps(models) is not None
    for bad in (infeasible, unbounded, _branching_knapsack(1)[0]):
        assert lpmilp.solve_milps([bad] + models) is None
        assert lpmilp.solve_milps(models + [bad]) is None


def test_fixed_milp_copies_are_the_model_with_those_columns_fixed():
    # one block per row of values, each the model with the columns fixed
    # at that row: each gets solve_milp's optimum of the fixed model
    m, _ = _branching_knapsack(0)
    cols = np.arange(21)
    values = np.random.default_rng(5).integers(0, 2, (4, 21)).astype(float)
    sols = lpmilp.solve_fixed_milps(m, cols, values)
    assert len(sols) == len(values)
    for row, sol in zip(values, sols):
        fixed = m.copy()
        for c, v in zip(cols, row):
            fixed.set_bounds(int(c), v, v)
        ref = solve_milp(fixed).objective
        assert sol.status == OPTIMAL and np.array_equal(sol.x[cols], row)
        assert abs(sol.objective - ref) <= 1e-9 * max(1.0, abs(ref))
        assert sol.objective == math.fsum(np.asarray(m.objective) * sol.x)
        assert _feasible(fixed, sol.x)
    # an infeasible copy (21 items over the capacity), or one that
    # branches (24 items free), gives None
    assert lpmilp.solve_fixed_milps(m, cols, np.vstack([values, np.ones(21)])) is None
    assert lpmilp.solve_fixed_milps(m, cols[:1], [[0.0]]) is None


def test_milp_batch_of_models_that_close_alone_may_not_close_at_its_root():
    # two knapsacks that close alone (in 2333 and 671 nodes) take more
    # than twice as many as one block-diagonal search: no batch, however
    # few nodes each takes
    knapsacks = [_branching_knapsack(seed)[0] for seed in range(2)]
    alone = [solve_milp(m) for m in knapsacks]
    assert all(sol.status == OPTIMAL for sol in alone)
    twice = 2 * sum(sol.node_count for sol in alone)
    assert lpmilp._solve_milp_once(knapsacks, presolve=True, node_limit=twice).status == GAP_LIMIT
    assert lpmilp.solve_milps(knapsacks) is None


def test_lp_iteration_cap_raises_numerical_failure(monkeypatch):
    m = _random_feasible_lp(np.random.default_rng(4))
    assert solve_lp(m).status == OPTIMAL
    monkeypatch.setattr(lpmilp, "ITERATION_CAP_BASE", -(m.num_vars + m.num_rows))
    with pytest.raises(NumericalFailure, match="Iteration limit"):
        solve_lp(m)


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


def test_per_call_options_do_not_leak_between_solves(monkeypatch):
    knapsack, _ = _branching_knapsack(0)
    # two columns fixed by their bounds, which presolve removes
    knapsack.set_bounds(0, 1.0, 1.0)
    knapsack.set_bounds(1, 0.0, 0.0)
    lp = _random_feasible_lp(np.random.default_rng(4))

    def normal_solves():
        mip, rel = solve_milp(knapsack), solve_lp(lp)
        return (mip.objective, mip.x.tolist(), mip.node_count,
                rel.objective, rel.x.tolist())

    def after_odd_solves():
        no_presolve = lpmilp._solve_milp_once([knapsack], presolve=False)
        with monkeypatch.context() as patch:
            patch.setattr(lpmilp, "NODE_LIMIT", 1)
            assert solve_milp(knapsack).status == GAP_LIMIT
        with monkeypatch.context() as patch:
            patch.setattr(lpmilp, "ITERATION_CAP_BASE", -(lp.num_vars + lp.num_rows))
            with pytest.raises(NumericalFailure):
                solve_lp(lp)
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


def test_concurrent_milp_solves_restore_stdout_descriptor():
    # each solve swaps descriptor 1; overlapping swaps must not leak it
    rng = np.random.default_rng(9)
    w, p = rng.uniform(1, 10, 10), rng.uniform(1, 10, 10)
    m = LinearModel()
    for i in range(10):
        m.add_var(0.0, 1.0, BINARY, obj=-p[i])
    m.add_row((np.arange(10), w), "<=", float(0.4 * w.sum()))
    expected = solve_milp(m).objective
    before = os.fstat(1)
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
    a = csr_matrix(m)
    assert a.has_canonical_format
    assert np.array_equal(a.toarray(), np.vstack([dense_row(m, r) for r in range(3)]))


def _random_row(rng, num_vars: int):
    """Columns and values of one random row over the first num_vars - 2
    columns, so the last two stay unused.  A short row (at most 16
    entries, which scipy's sort keeps in their given order) repeats
    columns freely and may hold a pair that cancels to 0.0; a long row
    repeats a column at most twice, so no sum depends on the order."""
    used = num_vars - 2
    if used < 9 or rng.integers(4):
        cols = list(rng.integers(0, used, size=int(rng.integers(0, 13))))
        vals = list(rng.normal(size=len(cols)) * 10.0 ** rng.integers(-3, 4, size=len(cols)))
        vals = [v if rng.integers(6) else rng.choice([0.0, -0.0]) for v in vals]
        if rng.integers(2):  # a pair that cancels
            c, v = int(rng.integers(used)), float(rng.normal())
            cols += [c, c]
            vals += [v, -v]
        return cols, vals
    cols = rng.permutation(np.repeat(np.arange(used), 2))[:int(rng.integers(17, 2 * used))]
    return cols, rng.normal(size=cols.size)


def _block(row_cols, row_vals) -> lpmilp.RowBlock:
    """The rows given by their columns and values as one RowBlock."""
    return lpmilp.RowBlock(np.concatenate([np.asarray(c, dtype=np.intp) for c in row_cols]),
                           np.concatenate([np.asarray(v, dtype=float) for v in row_vals]),
                           np.cumsum([0] + [len(c) for c in row_cols]))


def test_assemble_matches_scipy_sum_duplicates():
    rng = np.random.default_rng(2024)
    for trial in range(300):
        num_vars = int(rng.integers(3, 8)) if rng.integers(2) else int(rng.integers(12, 30))
        num_rows = 1 if trial % 10 == 0 else int(rng.integers(2, 9))
        row_cols, row_vals = [], []
        for _ in range(num_rows):
            cols, vals = _random_row(rng, num_vars)
            row_cols.append(np.array(cols, dtype=int))
            row_vals.append(np.array(vals, dtype=float))
        rows = lpmilp._assemble(_block(row_cols, row_vals), np.full(num_rows, "<="),
                                num_vars, 1)
        a = sparse.csr_matrix((np.concatenate(row_vals), np.concatenate(row_cols),
                               np.cumsum([0] + [c.size for c in row_cols])),
                              shape=(num_rows, num_vars))
        a.sum_duplicates()
        assert rows.start.dtype == np.int32 and rows.index.dtype == np.int32
        assert rows.value.dtype == np.float64
        assert np.array_equal(rows.start, a.indptr)
        assert np.array_equal(rows.index, a.indices)
        assert np.array_equal(rows.value, a.data)
        assert rows.value.tobytes() == a.data.tobytes()  # the signs of zeros too
    # a column that cancels keeps its explicit zero; an empty row and the
    # unused trailing columns hold no entry
    rows = lpmilp._assemble(_block([[2, 0, 2], []], [[1.5, 3.0, -1.5], []]),
                            np.array(["<=", "="]), 5, 1)
    assert rows.start.tolist() == [0, 2, 2]
    assert rows.index.tolist() == [0, 2] and rows.value.tolist() == [3.0, 0.0]


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
    assert lpmilp.NODE_LIMIT == 200_000


# the arguments of _Highs.passModel's array overload, in order
PASS_MODEL_ARGS = ("num_col", "num_row", "num_nz", "a_format", "sense", "offset",
                   "col_cost", "col_lower", "col_upper", "row_lower", "row_upper",
                   "a_start", "a_index", "a_value", "integrality")


def highs_arrays(model: LinearModel) -> dict:
    """Every argument of the passModel call a MILP solve makes, as lists."""
    args = lpmilp._highs_model(model, integer=True)
    assert len(args) == len(PASS_MODEL_ARGS)
    return {name: np.asarray(arg).tolist() for name, arg in zip(PASS_MODEL_ARGS, args)}


def lp_text(model: LinearModel) -> str:
    buf = io.StringIO()
    write_lp(model, buf)
    return buf.getvalue()


# (cols, vals, rel, rhs) rows; the third repeats column 2 and the last column 0
_BASE_ROWS = ((([0, 1], [1.0, 2.0]), "<=", 4.0), (([3, 1], [1.0, -1.0]), ">=", -1.0),
              (([2, 0, 2], [1.5, -1.0, 2.25]), "<=", 3.0))
_NEW_ROWS = ((([1, 4, 1], [0.5, 1.0, 0.25]), "=", 1.0),
             (([4, 0, 0], [2.0, 1.0, -3.0]), "<=", 2.5))


def _rows_model(rows, ncols=4) -> LinearModel:
    m = LinearModel()
    for j in range(ncols):
        m.add_var(0.0, 3.0, INTEGER if j % 2 else CONTINUOUS, obj=float(j) - 1.5)
    for coeffs, rel, rhs in rows:
        m.add_row(coeffs, rel, rhs)
    return m


def test_copy_assembles_only_new_rows_like_a_fresh_model():
    template = _rows_model(_BASE_ROWS)
    template.validate()  # assembles the template's rows once
    kept = template._rows
    before = (highs_arrays(template), lp_text(template))
    copy = template.copy()
    assert copy._rows is kept
    copy.add_var(0.0, 1.0, BINARY, obj=-1.0)
    for coeffs, rel, rhs in _NEW_ROWS:
        copy.add_row(coeffs, rel, rhs)
    copy.set_rhs(1, 0.5)
    copy.set_rhs(3, 1.75)
    fresh = _rows_model(_BASE_ROWS, ncols=4)
    fresh.add_var(0.0, 1.0, BINARY, obj=-1.0)
    for coeffs, rel, rhs in _NEW_ROWS:
        fresh.add_row(coeffs, rel, rhs)
    fresh.row_rhs[1], fresh.row_rhs[3] = 0.5, 1.75
    assert highs_arrays(copy) == highs_arrays(fresh)
    assert lp_text(copy) == lp_text(fresh)
    # the kept prefix was extended for the copy alone, by the new rows only
    assert copy._rows.count == 5 and template._rows is kept and kept.count == 3
    assert np.array_equal(copy._rows.index[:kept.index.size], kept.index)
    # the canonical form is what scipy's sum_duplicates makes of the rows
    appended = fresh.rows()
    a = sparse.csr_matrix((appended.vals, appended.cols, appended.start), shape=(5, 5),
                          copy=True)
    a.sum_duplicates()
    assert np.array_equal(copy._rows.start, a.indptr)
    assert np.array_equal(copy._rows.index, a.indices)
    assert np.array_equal(copy._rows.value, a.data)
    # solving the copy leaves the template as it was
    assert solve_milp(copy).status == OPTIMAL
    assert (highs_arrays(template), lp_text(template)) == before
    assert template._rows is kept


def test_stored_rows_are_read_only_copies():
    m = LinearModel()
    m.add_vars(3, 0.0, 1.0)
    cols, vals = np.array([0, 2]), np.array([1.0, 2.0])
    r = m.add_row((cols, vals), "<=", 1.0)
    cols[0], vals[0] = 1, 9.0  # the caller's arrays stay the caller's
    assert [a.tolist() for a in m.rows()[r]] == [[0, 2], [1.0, 2.0]]
    # so do those of a block, 2-D, masked or flat with offsets
    grid_cols, grid_vals = np.array([[0, 1], [2, 1]]), np.array([[1.0, 0.0], [3.0, 4.0]])
    keep = np.array([[True, False], [True, True]])
    flat_cols, flat_vals, start = np.array([1, 0, 1]), np.array([5.0, 6.0, 7.0]), np.array([0, 1, 3])
    m.add_rows(grid_cols, grid_vals, "=", 0.0)
    m.add_rows(grid_cols, grid_vals, ">=", [1.0, 2.0], keep=keep)
    m.add_rows(flat_cols, flat_vals, "<=", 0.0, start=start)
    expected = [([0, 2], [1.0, 2.0]), ([0, 1], [1.0, 0.0]), ([2, 1], [3.0, 4.0]),
                ([0], [1.0]), ([2, 1], [3.0, 4.0]), ([1], [5.0]), ([0, 1], [6.0, 7.0])]
    for arr in (grid_cols, grid_vals, flat_cols, flat_vals, start):
        arr[0] = arr[-1] = 0
    keep[...] = False
    assert [tuple(a.tolist() for a in row) for row in m.rows()] == expected
    m.validate()
    shared = m.copy()
    for model in (m, shared):
        for first in (0, r + 1, 5):
            block = model.rows(first)
            assert [tuple(a.tolist() for a in row) for row in block] == expected[first:]
            for stored in (block.cols, block.vals, block.start, *block[0]):
                with pytest.raises(ValueError, match="read-only"):
                    stored[0] = 0
    d = m.add_row({1: 1.0}, ">=", 0.0)
    with pytest.raises(ValueError, match="read-only"):
        m.rows(d)[0][1][0] = 5.0
    # rows are append-only: a model that lost assembled rows is not solved
    m.validate()
    m.row_rhs, m.row_rel = m.row_rhs[:-1], m.row_rel[:-1]
    with pytest.raises(RuntimeError, match="removed"):
        solve_lp(m)


def test_row_checks_cover_rows_assembled_earlier():
    # a non-finite coefficient assembled before a copy still fails the copy's solve
    m = LinearModel()
    m.add_var(0.0, 1.0)
    m.add_row({0: np.inf}, "<=", 1.0)
    m._row_matrix()
    copy = m.copy()
    copy.add_row({0: 1.0}, "<=", 1.0)
    for model in (m, copy):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            solve_lp(model)


# -- the block path: add_rows against add_row, property-based ---------------

BLOCK_VARS = 6
_coefficient = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                         st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False))


@st.composite
def _row_lists(draw, sorted_rows=False):
    """(rows, rels, rhs, names) of a block of random rows over BLOCK_VARS
    columns: a row's columns unsorted (sorted if sorted_rows, and then
    mostly strictly increasing) and repeated, explicit zeros of both
    signs, empty rows, and all three relations."""
    count = draw(st.integers(0, 7))
    rows = []
    for _ in range(count):
        cols = draw(st.lists(st.integers(0, BLOCK_VARS - 1), max_size=8))
        if sorted_rows:
            cols = sorted(cols if draw(st.integers(0, 3)) == 0 else set(cols))
        vals = draw(st.lists(_coefficient, min_size=len(cols), max_size=len(cols)))
        rows.append((cols, vals))
    rels = draw(st.lists(st.sampled_from(("<=", "=", ">=")), min_size=count, max_size=count))
    rhs = draw(st.lists(st.floats(-100, 100, allow_nan=False), min_size=count, max_size=count))
    names = draw(st.none() | st.just([f"b{r}" for r in range(count)]))
    return rows, rels, rhs, names


def _csr(rows):
    """Flat columns, values and row offsets of (cols, vals) rows."""
    return (np.array([c for cols, _ in rows for c in cols], dtype=np.intp),
            np.array([v for _, vals in rows for v in vals], dtype=float),
            np.cumsum([0] + [len(cols) for cols, _ in rows]))


def _block_model(validated_rows=()) -> LinearModel:
    m = LinearModel()
    m.add_vars(BLOCK_VARS, 0.0, 1.0)
    for cols, vals in validated_rows:  # rows assembled before the block
        m.add_row((cols, vals), ">=", 0.0)
    m.validate()
    return m


def _row_state(m: LinearModel) -> tuple:
    """Every row array a solve reads, as bytes, and the rows' names."""
    rows = m._row_matrix()
    return (rows.count, rows.start.tobytes(), rows.index.tobytes(), rows.value.tobytes(),
            rows.no_lower.tobytes(), rows.no_upper.tobytes(), m.row_rhs.tobytes(),
            m.row_rel.tolist(), list(m.row_names))


@settings(max_examples=150, deadline=None)
@given(_row_lists(), _row_lists())
def test_a_block_of_rows_equals_its_rows_added_one_at_a_time(before, block):
    rows, rels, rhs, names = block
    one_by_one = _block_model(before[0])
    for r, (cols, vals) in enumerate(rows):
        one_by_one.add_row((cols, vals), rels[r], rhs[r], None if names is None else names[r])
    as_block = _block_model(before[0])
    cols, vals, start = _csr(rows)
    first = as_block.num_rows
    got = as_block.add_rows(cols, vals, rels, rhs, start=start, names=names)
    assert got.tolist() == list(range(first, first + len(rows)))
    assert _row_state(as_block) == _row_state(one_by_one)
    # the same rows as a 2-D table with the padding masked out
    width = max([len(c) for c, _ in rows], default=0)
    table_cols = np.zeros((len(rows), width), dtype=int)
    table_vals = np.full((len(rows), width), np.nan)
    keep = np.zeros((len(rows), width), dtype=bool)
    for r, (c, v) in enumerate(rows):
        table_cols[r, :len(c)], table_vals[r, :len(v)], keep[r, :len(c)] = c, v, True
    masked = _block_model(before[0])
    masked.add_rows(table_cols, table_vals, rels, rhs, keep=keep, names=names)
    assert _row_state(masked) == _row_state(one_by_one)


@settings(max_examples=200, deadline=None)
@given(_row_lists(sorted_rows=True))
def test_canonical_rows_skip_the_sort_and_give_its_arrays(block):
    # rows whose columns increase strictly are stored as given, and give
    # what the sorting path gives; a sorted row that repeats a column is
    # not canonical, and is summed
    rows, rels, _, _ = block
    cols, vals, start = _csr(rows)
    got = lpmilp._assemble(lpmilp.RowBlock(cols, vals, start), np.array(rels, dtype="<U2"),
                           BLOCK_VARS, 1)
    key = np.repeat(np.arange(len(rows)), np.diff(start)) * BLOCK_VARS + cols
    sorted_start, sorted_index, sorted_value = lpmilp._sum_duplicates(
        key, cols, vals, len(rows), BLOCK_VARS)
    assert got.start.tobytes() == sorted_start.astype(np.int32).tobytes()
    assert got.index.tobytes() == sorted_index.astype(np.int32).tobytes()
    assert got.value.tobytes() == sorted_value.tobytes()  # -0.0 stays -0.0
    canonical = all(list(c) == sorted(set(c)) for c, _ in rows)
    assert np.shares_memory(got.value, vals) == (canonical and vals.size > 0)


@settings(max_examples=150, deadline=None)
@given(_row_lists(), st.data())
def test_a_bad_block_raises_and_leaves_the_model_unchanged(block, data):
    rows, rels, rhs, names = block
    rows = rows or [([0], [1.0])]
    rels, rhs = (rels or ["="]), (rhs or [0.0])
    r = data.draw(st.integers(0, len(rows) - 1))
    if data.draw(st.booleans()):
        cols, vals = rows[r]
        at = data.draw(st.integers(0, len(cols)))
        rows[r] = (cols[:at] + [data.draw(st.sampled_from([-1, BLOCK_VARS, 99]))] + cols[at:],
                   vals[:at] + [1.0] + vals[at:])
        match = "unknown column"
    else:
        rels = rels[:r] + [data.draw(st.sampled_from(["<", "==", "=>", "", "<=>"]))] + rels[r + 1:]
        match = "relation"
    m = _block_model([([1, 1, 0], [2.0, -1.0, 3.0])])
    state = (_row_state(m), m.num_rows, len(m._blocks), m.objective.tobytes())
    cols, vals, start = _csr(rows)
    with pytest.raises(ValueError, match=match):
        m.add_rows(cols, vals, rels, rhs, start=start)
    assert (_row_state(m), m.num_rows, len(m._blocks), m.objective.tobytes()) == state


def _grow_random_lp(rng, m: LinearModel, x0: np.ndarray) -> None:
    # one to three rows of either inequality in general position; a
    # negative slack may cut x0 off, so some rounds end infeasible
    for _ in range(int(rng.integers(1, 4))):
        a = rng.normal(size=m.num_vars)
        slack = float(rng.uniform(-1.0, 3.0))
        if rng.integers(2):
            m.add_row((np.arange(m.num_vars), a), "<=", float(a @ x0) + slack)
        else:
            m.add_row((np.arange(m.num_vars), a), ">=", float(a @ x0) - slack)


def test_warm_lp_matches_cold_solves_as_rows_are_appended():
    rng = np.random.default_rng(11)
    warm_rounds, statuses = 0, set()
    for _ in range(40):
        n = int(rng.integers(2, 15))
        m = LinearModel()
        lo = rng.uniform(-5, 0, n)
        hi = lo + rng.uniform(0.5, 10, n)
        for i in range(n):
            m.add_var(lo[i], hi[i], obj=float(rng.normal()))
        x0 = rng.uniform(lo, hi)
        warm = WarmLp(m)
        for rnd in range(5):
            _grow_random_lp(rng, m, x0)
            got, cold = warm.solve(), solve_lp(m)
            statuses.add(got.status)
            assert got.status == cold.status
            if got.status != OPTIMAL:
                break
            warm_rounds += rnd > 0
            assert abs(got.objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))
    assert statuses == {OPTIMAL, INFEASIBLE} and warm_rounds > 50


def test_warm_lp_refuses_a_model_changed_other_than_by_rows():
    def changes():
        yield lambda m: m.set_bounds(0, 0.0, 2.0)
        yield lambda m: m.set_objective(1, 0.5)
        yield lambda m: m.set_rhs(0, 7.0)
        yield lambda m: m.set_rhs(1, 9.0)  # even an appended row's: rows come with their rhs
        yield lambda m: m.add_var(0.0, 1.0)

    for change in changes():
        m = LinearModel()
        x = m.add_var(0.0, 10.0, obj=-1.0)
        y = m.add_var(0.0, 10.0, obj=-2.0)
        m.add_row({x: 1.0, y: 1.0}, "<=", 8.0)
        warm = WarmLp(m)
        assert warm.solve().objective == -16.0
        m.add_row({x: 1.0, y: 3.0}, "<=", 9.0)
        change(m)
        with pytest.raises(RuntimeError, match="changed"):
            warm.solve()


def _loaded_lp(highs) -> tuple:
    """The LP a HiGHS handle holds, column-wise, as lists."""
    highs.ensureColwise()
    lp = highs.getLp()
    a = lp.a_matrix_
    return (lp.num_col_, lp.num_row_, list(lp.col_cost_), list(lp.col_lower_),
            list(lp.col_upper_), list(lp.row_lower_), list(lp.row_upper_),
            list(a.start_), list(a.index_), list(a.value_))


def test_warm_lp_re_solve_after_appended_rows_equals_a_cold_solve(monkeypatch):
    # a re-solve assembles and checks the appended rows alone, reading no
    # whole-model arrays; HiGHS then holds the model a cold solve passes,
    # and the warm optimum is the cold one
    rng = np.random.default_rng(5)
    m = LinearModel()
    for _ in range(6):
        m.add_var(-2.0, 3.0, obj=float(rng.normal()))
    x0 = rng.uniform(-2.0, 3.0, 6)  # every row below holds at x0
    m.add_row((np.arange(6), rng.normal(size=6)), "<=", 10.0)
    warm = WarmLp(m)
    assert warm.solve().status == OPTIMAL
    for _ in range(5):
        for rel in ("<=", "=", ">="):
            cols = rng.integers(0, 6, 4)  # a repeated column is summed
            vals = rng.normal(size=4)
            slack = {"<=": 0.5, "=": 0.0, ">=": -0.5}[rel]
            m.add_row((cols, vals), rel, float(vals @ x0[cols]) + slack)
        with monkeypatch.context() as patch:
            patch.setattr(LinearModel, "_solver_arrays", lambda self: pytest.fail("whole model"))
            got = warm.solve()
        cold = solve_lp(m)
        assert got.status == cold.status == OPTIMAL
        assert abs(got.objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))
        highs = lpmilp._new_handle("lp")
        highs.passModel(*lpmilp._highs_model(m, integer=False))
        assert _loaded_lp(warm._highs) == _loaded_lp(highs)


def test_warm_lp_iteration_cap_raises_numerical_failure(monkeypatch):
    m = LinearModel()
    x = m.add_var(0.0, 10.0, obj=-1.0)
    y = m.add_var(0.0, 10.0, obj=-2.0)
    m.add_row({x: 1.0, y: 1.0}, "<=", 8.0)
    warm = WarmLp(m)
    assert warm.solve().objective == -16.0
    m.add_row({x: 1.0, y: 3.0}, "<=", 9.0)  # cuts the optimum off
    with monkeypatch.context() as patch:
        patch.setattr(lpmilp, "ITERATION_CAP_BASE", -(m.num_vars + m.num_rows))
        with pytest.raises(NumericalFailure, match="Iteration limit"):
            warm.solve()
    assert warm.solve().objective == pytest.approx(-8.5, abs=1e-12)


def test_milp_handle_runs_without_rins_and_rens():
    def options():
        highs = lpmilp._handle("milp")
        return [highs.getOptionValue(name)[1]
                for name in ("mip_heuristic_run_rins", "mip_heuristic_run_rens",
                             "mip_heuristic_run_feasibility_jump",
                             "mip_heuristic_run_root_reduced_cost")]

    assert _in_fresh_thread(options) == [False, False, False, False]

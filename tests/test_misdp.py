import ast
import pathlib

import numpy as np
import pytest

from ddro import misdp, sddip
from ddro.ambiguity import AmbiguityType, worst_case
from ddro.bench import (TYPE3_PATTERNS, enumerate_two_stage, exact_multistage_value,
                        make_pattern_instance, stretch_to_three_stages)
from ddro.lpmilp import BINARY, INFEASIBLE, OPTIMAL, LinearModel, WarmLp, solve_milp
from ddro.misdp import (EIGEN_CUT_TOL, InnerApproxViolation, PsdBlockRef, add_dd_inner_general,
                        add_dd_star_rows, audit_inner_psd, cut_directions,
                        dd_star_directions, min_eigenpair, solve_misdp_outer)
from ddro.model import replace_fields
from ddro.reformulate import freeze_stage
from ddro.sddip import run_type3_bounds
from test_lpmilp import csr_matrix


def _block_model(z_bounds=(0.0, 10.0)):
    """2x2 symmetric block [[a, b], [b, c]] with symmetry handled by a
    shared off-diagonal column."""
    m = LinearModel()
    a = m.add_var(0.0, 10.0, name="a")
    b = m.add_var(-10.0, 10.0, name="b")
    c = m.add_var(z_bounds[0], z_bounds[1], name="c")
    cols = np.array([[a, b], [b, c]])
    return m, PsdBlockRef("Z", 2, cols), (a, b, c)


def test_psd_block_quadratic_coeffs():
    m, block, (a, b, c) = _block_model()
    v = np.array([1.0, 2.0])
    cols, vals = block.quadratic_form_coeffs(v)
    assert cols.tolist() == [a, b, b, c]
    assert vals.tolist() == [1.0, 2.0, 2.0, 4.0]
    m.add_row((cols, vals), ">=", 0.0)
    row = csr_matrix(m).toarray()[-1]
    assert row[a] == 1.0
    assert row[b] == 4.0  # both off-diagonal positions share the column
    assert row[c] == 4.0


def test_psd_block_rejects_an_asymmetric_map():
    # a symmetric map reads a symmetric block; one with a distinct column
    # per off-diagonal position, or of the wrong shape, raises when built
    _, block, (a, b, c) = _block_model()
    x = np.array([1.0, 2.0, 3.0, 2.0 + 1e-9])
    assert x[block.cols].tolist() == [[1.0, 2.0], [2.0, 3.0]]
    with pytest.raises(ValueError, match="not symmetric"):
        PsdBlockRef("Z", 2, np.array([[a, b], [3, c]]))
    with pytest.raises(ValueError, match="shape"):
        PsdBlockRef("Z", 3, np.array([[a, b], [b, c]]))


def _sym_block(d):
    """A d x d block over d(d+1)/2 free columns, one per entry a <= b."""
    m = LinearModel()
    cols = np.zeros((d, d), dtype=int)
    for a in range(d):
        for b in range(a, d):
            cols[a, b] = cols[b, a] = m.add_var(-np.inf, np.inf)
    return m, PsdBlockRef("Z", d, cols)


def test_dd_star_rows_hold_on_psd_blocks():
    # d + d(d-1) rows per block, coefficients exactly 1 and +-2, and
    # every row holds at random PSD matrices, singular ones included
    rng = np.random.default_rng(4)
    for d in (1, 2, 3, 4):
        m, block = _sym_block(d)
        add_dd_star_rows(m, [block])
        assert m.num_rows == d + d * (d - 1) == len(dd_star_directions(d))
        rows = csr_matrix(m)
        assert set(rows.data) <= {1.0, 2.0, -2.0}
        for rank in range(1, d + 1):
            f = rng.normal(size=(d, rank))
            x = np.zeros(m.num_vars)
            x[block.cols] = f @ f.T
            assert (rows @ x >= -1e-12 * np.abs(x).max()).all()
    m, block = _sym_block(2)
    add_dd_star_rows(m, [block])
    x = np.zeros(m.num_vars)
    x[block.cols] = [[1.0, 2.0], [2.0, 1.0]]  # eigenvalues 3 and -1
    assert (csr_matrix(m) @ x < 0).any()


def test_cut_directions_cut_off_the_block_eigenvector_first():
    # per eigenvalue below -EIGEN_CUT_TOL: its eigenvector, then two
    # neighbours per positive eigenvalue, each at cos(t)^2 lam_i / 2 < 0
    rng = np.random.default_rng(11)
    for _ in range(300):
        d = int(rng.integers(1, 6))
        f = rng.standard_normal((d, d))
        a = (f + f.T) / 2.0
        lams, vecs = np.linalg.eigh(a)
        neg, pos = lams[lams < -EIGEN_CUT_TOL], lams[lams > 0]
        dirs = cut_directions(a)
        assert len(dirs) == len(neg) * (1 + 2 * len(pos))
        for n, lam in enumerate(neg):
            group = dirs[n * (1 + 2 * len(pos)):(n + 1) * (1 + 2 * len(pos))]
            v = group[0]
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
            assert abs(v @ a @ v - lam) <= 1e-12 * max(1.0, np.abs(lams).max())
            for m, mu in enumerate(pos):
                cos2 = 1.0 / (1.0 - lam / (2.0 * mu))
                for w in group[1 + 2 * m:3 + 2 * m]:
                    assert abs(w @ w - 1.0) <= 1e-12
                    assert abs(w @ a @ w - cos2 * lam / 2.0) <= 1e-12 * max(1.0, np.abs(lams).max())
        for v in dirs:
            assert v @ a @ v < 0.0


def test_cut_directions_hold_on_psd_blocks():
    # every direction returned is a valid row v' M v >= 0 at random PSD
    # matrices, singular ones included, and a PSD block returns none
    rng = np.random.default_rng(12)
    for _ in range(300):
        d = int(rng.integers(1, 6))
        f = rng.standard_normal((d, d))
        dirs = cut_directions((f + f.T) / 2.0)
        for rank in range(1, d + 1):
            g = rng.standard_normal((d, rank))
            m = g @ g.T
            assert cut_directions(m) == []
            for v in dirs:
                assert v @ m @ v >= -1e-12 * np.abs(m).max()
    assert cut_directions(np.zeros((3, 3))) == []
    assert cut_directions(np.diag([1.0, -EIGEN_CUT_TOL / 2])) == []


def test_outer_counts_its_milp_rounds_and_lp_solves(monkeypatch):
    solves = []

    class CountedLp(WarmLp):
        def solve(self):
            solves.append("lp")
            return super().solve()

    monkeypatch.setattr(misdp, "WarmLp", CountedLp)
    monkeypatch.setattr(misdp, "solve_milp",
                        lambda model: solves.append("milp") or solve_milp(model))
    x, model, blocks = list(_sandwich_models())[3]
    counters = {"psd_milp_rounds": 0, "psd_lp_solves": 0, "other": 7}
    assert solve_misdp_outer(model, blocks, counters=counters).status == OPTIMAL
    assert counters == {"psd_milp_rounds": solves.count("milp"),
                        "psd_lp_solves": solves.count("lp"), "other": 7}
    assert counters["psd_lp_solves"] > 0


def test_outer_no_cuts_when_already_psd():
    m, block, (a, b, c) = _block_model()
    m.set_bounds(b, 0.0, 0.0)
    m.set_objective(a, 1.0)
    m.set_objective(c, 1.0)
    before = m.num_rows
    sol = solve_misdp_outer(m, [block])
    assert sol.status == OPTIMAL
    assert m.num_rows == before  # no eigen cuts were needed
    assert abs(sol.objective) < 1e-9


def test_outer_drives_determinant_condition():
    # fix a = b = 1, minimize c: PSD requires c >= 1
    m, block, (a, b, c) = _block_model()
    m.set_bounds(a, 1.0, 1.0)
    m.set_bounds(b, 1.0, 1.0)
    m.set_objective(c, 1.0)
    sol = solve_misdp_outer(m, [block])
    assert sol.status == OPTIMAL
    assert abs(sol.objective - 1.0) <= 1e-5
    assert min_eigenpair(sol.x[block.cols])[0] >= -1e-6


def test_dd_inner_identity_feasibility():
    m, block, (a, b, c) = _block_model()
    m.set_bounds(a, 2.0, 2.0)
    m.set_bounds(b, 0.0, 0.0)
    m.set_bounds(c, 1.0, 1.0)
    dd = add_dd_inner_general(m, [block])
    assert solve_milp(dd).status == OPTIMAL  # diag(2,1) is dd
    m2, block2, (a2, b2, c2) = _block_model()
    m2.set_bounds(a2, 1.0, 1.0)
    m2.set_bounds(b2, 2.0, 2.0)
    m2.set_bounds(c2, 1.0, 1.0)
    dd2 = add_dd_inner_general(m2, [block2])
    assert solve_milp(dd2).status == INFEASIBLE  # [[1,2],[2,1]] is not dd


def test_dd_inner_value_dominates_psd_value():
    # min c with a = b = 1: dd needs c >= |b| = 1 here, same as PSD;
    # with a = 0.5, b = 1: PSD needs c >= 2, dd needs c >= ... infeasible
    # unless c bound allows
    m, block, (a, b, c) = _block_model()
    m.set_bounds(a, 1.0, 1.0)
    m.set_bounds(b, 1.0, 1.0)
    m.set_objective(c, 1.0)
    dd = add_dd_inner_general(m.copy(), [block])
    sol_dd = solve_milp(dd)
    sol_psd = solve_misdp_outer(m, [block])
    assert sol_dd.status == OPTIMAL
    assert sol_dd.objective >= sol_psd.objective - 1e-7


def test_dd_inner_tiny_basis_matches_identity():
    # DD(I) rows on a 2x2 block with b = 1: the optimum of a + 2c is 3
    m, block, (a, b, c) = _block_model()
    m.set_bounds(b, 1.0, 1.0)
    m.set_objective(a, 1.0)
    m.set_objective(c, 2.0)
    sol = solve_milp(add_dd_inner_general(m, [block]))
    assert sol.status == OPTIMAL
    assert min_eigenpair(sol.x[block.cols])[0] >= -1e-9
    assert abs(sol.objective - 3.0) <= 1e-7  # dd needs a >= 1 and c >= 1


def test_dd_inner_at_three_by_three():
    def fixed(entries):
        m, block = _sym_block(3)
        for (a, b), value in entries.items():
            m.set_bounds(int(block.cols[a, b]), value, value)
        return add_dd_inner_general(m, [block]), block

    # PSD (eigenvalues 2.8, 0.1, 0.1) but not DD: every row sums to 1.8 > 1
    psd = {(a, b): 1.0 if a == b else 0.9 for a in range(3) for b in range(a, 3)}
    assert min_eigenpair(np.full((3, 3), 0.9) + 0.1 * np.eye(3))[0] > 0
    assert solve_milp(fixed(psd)[0]).status == INFEASIBLE
    # DD with negative off-diagonal entries
    dd = {(0, 0): 2.0, (1, 1): 3.0, (2, 2): 2.0, (0, 1): -1.0, (0, 2): -0.5, (1, 2): -1.0}
    assert solve_milp(fixed(dd)[0]).status == OPTIMAL
    # the least trace with the off-diagonal entries fixed is sum_{a != b} |M_ab|
    off = {(0, 1): 1.0, (0, 2): -2.0, (1, 2): 0.5}
    m, block = fixed(off)
    for a in range(3):
        m.set_objective(int(block.cols[a, a]), 1.0)
    sol = solve_milp(m)
    assert sol.status == OPTIMAL
    assert abs(sol.objective - 2 * sum(abs(v) for v in off.values())) <= 1e-9


def test_inner_psd_audit_flags_non_psd_block():
    _, block, (a, b, c) = _block_model()
    x = np.zeros(3)
    x[[a, b, c]] = [1.0, 1.0, 1.0]  # [[1, 1], [1, 1]] is PSD
    audit_inner_psd([block], x)
    x[[a, b, c]] = [1.11e6, -1.0e6, 0.0]  # min eigenvalue about -5.9e5
    with pytest.raises(InnerApproxViolation):
        audit_inner_psd([block], x)


def _frozen_type3(inst, x, q):
    model, lay, blocks = freeze_stage(inst, 3, 1, x, q)
    return model, blocks


def test_frozen_dual_sandwich_against_oracle():
    # multi-open states exercise the trilinear envelopes
    inst = make_pattern_instance(TYPE3_PATTERNS[0], seed=5)
    rng = np.random.default_rng(2)
    for x in (np.zeros(3), np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]),
              np.array([1.0, 1.0, 0.0]), np.array([1.0, 0.0, 1.0])):
        q = rng.normal(size=inst.K) * 40 - 40
        oracle = worst_case(inst, AmbiguityType.TYPE3, x, q, stage=2).value
        model, blocks = _frozen_type3(inst, x, q)
        outer = solve_misdp_outer(model.copy(), blocks)
        assert outer.status == OPTIMAL
        dd = solve_milp(add_dd_inner_general(model, blocks))
        assert dd.status == OPTIMAL
        tol = 1e-5 * max(1.0, abs(oracle))
        assert outer.objective <= oracle + tol
        assert oracle <= dd.objective + tol
        # the eigen-cut loop converges to the SDP value at fixed binaries
        assert abs(outer.objective - oracle) <= 1e-3 * max(1.0, abs(oracle))
        # inner-approximation solutions have PSD blocks
        for b in blocks:
            assert min_eigenpair(dd.x[b.cols])[0] >= -1e-9


def _sandwich_models():
    """(x, model, blocks) of test_frozen_dual_sandwich_against_oracle."""
    inst = make_pattern_instance(TYPE3_PATTERNS[0], seed=5)
    rng = np.random.default_rng(2)
    for x in (np.zeros(3), np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]),
              np.array([1.0, 1.0, 0.0]), np.array([1.0, 0.0, 1.0])):
        q = rng.normal(size=inst.K) * 40 - 40
        yield (x, *_frozen_type3(inst, x, q))


def test_outer_vectors_replay_in_one_milp_solve():
    for _, model, blocks in _sandwich_models():
        looped = model.copy()
        outer = solve_misdp_outer(looped, blocks)
        assert outer.status == OPTIMAL
        assert looped.num_rows > model.num_rows
        replay = model.copy()
        for row in looped.rows(model.num_rows):
            replay.add_row(row, ">=", 0.0)
        sol = solve_milp(replay)
        assert sol.status == OPTIMAL
        assert abs(sol.objective - outer.objective) <= 1e-7 * max(1.0, abs(outer.objective))
        for b in blocks:
            assert min_eigenpair(sol.x[b.cols])[0] >= -EIGEN_CUT_TOL


def test_outer_cuts_on_lps_before_branch_and_bound(monkeypatch):
    calls = []
    monkeypatch.setattr(misdp, "solve_milp",
                        lambda *a, **k: calls.append(1) or solve_milp(*a, **k))
    x, model, blocks = list(_sandwich_models())[3]
    assert list(x) == [1.0, 1.0, 0.0]
    assert solve_misdp_outer(model, blocks).status == OPTIMAL
    # cutting only at MILP incumbents takes 43 MILP solves on this model
    assert len(calls) < 43


def test_first_lp_runs_after_the_first_milp_round(monkeypatch):
    # a = b = 1000 fixed, c >= 1000 - 2e-4 minimized: the block's smallest
    # eigenvalue starts at about -1e-4; the first MILP round comes before
    # any LP, its cut is polished on the fixed-integer LP, and the blocks
    # returned clear -EIGEN_CUT_TOL
    m = LinearModel()
    a = m.add_var(1000.0, 1000.0)
    b = m.add_var(1000.0, 1000.0)
    c = m.add_var(1000.0 - 2e-4, 2000.0, obj=1.0)
    m.add_var(0.0, 1.0, BINARY, obj=1.0)  # an integer column: the LP phase runs
    block = PsdBlockRef("Z", 2, np.array([[a, b], [b, c]]))
    x = np.array([1000.0, 1000.0, 1000.0 - 2e-4, 0.0])
    lam = min_eigenpair(x[block.cols])[0]
    assert -1e-3 < lam < -EIGEN_CUT_TOL
    solves = []

    class CountedLp(WarmLp):
        def solve(self):
            solves.append("lp")
            return super().solve()

    monkeypatch.setattr(misdp, "WarmLp", CountedLp)
    monkeypatch.setattr(misdp, "solve_milp",
                        lambda model: solves.append("milp") or solve_milp(model))
    sol = solve_misdp_outer(m, [block])
    assert sol.status == OPTIMAL
    assert solves[0] == "milp" and "lp" in solves
    assert min_eigenpair(sol.x[block.cols])[0] >= -EIGEN_CUT_TOL
    assert abs(sol.objective - 1000.0) <= 1e-9 * 1000.0


def test_run_type3_bounds_sandwich_with_exact():
    inst = make_pattern_instance(TYPE3_PATTERNS[1], seed=3)
    exact = enumerate_two_stage(inst, 3).objective
    lb_rep, ub_rep = run_type3_bounds(inst, sddip.SddipConfig(max_iters=12))
    lb = lb_rep.lb_per_iter[-1]
    ub = ub_rep.ub_estimate
    tol = 1e-6 * max(1.0, abs(exact))
    assert lb <= exact + tol
    assert exact <= ub + tol


def test_run_type3_bounds_sandwich_at_three_stages():
    # pattern 3-1 stretched to T = 3: stage 3 repeats stage 2's support,
    # so the eigen rows of stage 2, an intermediate PSD stage, are replayed
    inst = stretch_to_three_stages(make_pattern_instance(TYPE3_PATTERNS[0], seed=1, K=4))
    exact = exact_multistage_value(inst, 3)
    lb_rep, ub_rep = run_type3_bounds(inst, sddip.SddipConfig(max_iters=12))
    tol = 1e-6 * max(1.0, abs(exact))
    assert lb_rep.lb_per_iter[-1] <= exact + tol
    assert exact <= ub_rep.ub_estimate + tol
    assert set(lb_rep.eigen_cuts_per_stage) == {"1", "2"}


def test_misdp_imports_no_engine_module():
    # misdp sits below the engine: no import of sddip, bench or cli, at
    # module level or inside a function
    tree = ast.parse(pathlib.Path(misdp.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add((node.module or "").rsplit(".", 1)[-1])
            names.update(alias.name for alias in node.names)
    assert not names & {"sddip", "bench", "cli"}


def test_dd_implies_psd():
    rng = np.random.default_rng(3)
    for _ in range(500):
        n = int(rng.integers(1, 7))
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2.0
        # force diagonal dominance
        np.fill_diagonal(a, np.abs(a).sum(axis=1) - np.abs(np.diag(a))
                         + rng.uniform(0, 1, n))
        assert np.all(np.diag(a) >= np.abs(a).sum(axis=1) - np.abs(np.diag(a)))
        assert min_eigenpair(a)[0] >= -1e-9


def test_cholesky_iff_psd_cross_check():
    # the PSD verdict of min_eigenpair agrees with an independent one: a
    # Cholesky factorization (numpy's) succeeds exactly when the smallest
    # eigenvalue clears the PSD tolerance, on a spread of clearly PSD /
    # clearly indefinite cases
    rng = np.random.default_rng(17)
    n_checked = 0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        psd = rng.random() < 0.5
        a = rng.standard_normal((n, n))
        m = a @ a.T if psd else a
        m = (m + m.T) / 2.0
        scale = max(1.0, np.abs(m).max())
        lam_min, v = min_eigenpair(m)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        if abs(lam_min) <= 1e-8 * scale:
            continue  # too close to the boundary to classify
        try:
            np.linalg.cholesky(m)
            ok = True
        except np.linalg.LinAlgError:
            ok = False
        assert ok == (lam_min >= -1e-10 * scale)
        n_checked += 1
    assert n_checked > 900


def test_huge_radii_bounds_close():
    inst = make_pattern_instance(TYPE3_PATTERNS[0], seed=1)
    inst = replace_fields(inst, gamma=1e6, eta_cov=1e6)
    lb_rep, ub_rep = run_type3_bounds(inst, sddip.SddipConfig(max_iters=12))
    lb = lb_rep.lb_per_iter[-1]
    ub = ub_rep.ub_estimate
    assert (ub - lb) <= 1e-3 * max(1.0, abs(ub))


def test_iterated_dd_bases_still_upper_bound():
    # the identity-DD route, the one upper-bound route, on pattern 3-1 seed 4
    inst = make_pattern_instance(TYPE3_PATTERNS[0], seed=4)
    exact = enumerate_two_stage(inst, 3).objective
    cfg = sddip.SddipConfig(max_iters=10, bound_mode="ub")
    rep = sddip.run(inst, 3, cfg)
    assert exact <= rep.ub_estimate + 1e-6 * max(1.0, abs(exact))


def test_cut_loop_limit_carries_best(monkeypatch):
    from ddro.misdp import CutLoopLimit, solve_misdp_outer as outer

    m, block, (a, b, c) = _block_model()
    m.set_bounds(a, 1.0, 1.0)
    m.set_bounds(b, 1.0, 1.0)
    m.set_objective(c, 1.0)
    monkeypatch.setattr(misdp, "MAX_CUT_ROUNDS_OUTER", 1)
    with pytest.raises(CutLoopLimit):
        outer(m, [block])

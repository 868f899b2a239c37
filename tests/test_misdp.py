import ast
import pathlib

import numpy as np
import pytest

from ddro import misdp, sddip
from ddro.ambiguity import AmbiguityType, worst_case
from ddro.bench import (TYPE3_PATTERNS, enumerate_two_stage, exact_multistage_value,
                        make_pattern_instance, stretch_to_three_stages)
from ddro.linalg import min_eigenpair
from ddro.lpmilp import BINARY, INFEASIBLE, OPTIMAL, LinearModel, solve_milp
from ddro.misdp import (EIGEN_CUT_TOL, InnerApproxViolation, PsdBlockRef,
                        add_dd_inner_general, audit_inner_psd, solve_misdp_outer)
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


def test_psd_block_assemble_rejects_an_asymmetric_map():
    # a symmetric map reads a symmetric block; one with a distinct column
    # per off-diagonal position raises, however small the difference
    _, block, (a, b, c) = _block_model()
    x = np.array([1.0, 2.0, 3.0, 2.0 + 1e-9])
    assert block.assemble(x).entries.tolist() == [[1.0, 2.0], [2.0, 3.0]]
    split = PsdBlockRef("Z", 2, np.array([[a, b], [3, c]]))
    with pytest.raises(ValueError, match="not symmetric"):
        split.assemble(x)


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
    assert min_eigenpair(block.assemble(sol.x))[0] >= -1e-6


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
    assert min_eigenpair(block.assemble(sol.x))[0] >= -1e-9
    assert abs(sol.objective - 3.0) <= 1e-7  # dd needs a >= 1 and c >= 1


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
            assert min_eigenpair(b.assemble(dd.x))[0] >= -1e-9


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
        for row in zip(looped.row_cols[model.num_rows:], looped.row_vals[model.num_rows:]):
            replay.add_row(row, ">=", 0.0)
        sol = solve_milp(replay)
        assert sol.status == OPTIMAL
        assert abs(sol.objective - outer.objective) <= 1e-7 * max(1.0, abs(outer.objective))
        for b in blocks:
            assert min_eigenpair(b.assemble(sol.x))[0] >= -EIGEN_CUT_TOL


def test_outer_cuts_on_lps_before_branch_and_bound(monkeypatch):
    calls = []
    monkeypatch.setattr(misdp, "solve_milp",
                        lambda *a, **k: calls.append(1) or solve_milp(*a, **k))
    x, model, blocks = list(_sandwich_models())[3]
    assert list(x) == [1.0, 1.0, 0.0]
    assert solve_misdp_outer(model, blocks).status == OPTIMAL
    # cutting only at MILP incumbents takes 43 MILP solves on this model
    assert len(calls) < 43


def test_root_lp_phase_stops_at_the_block_scale(monkeypatch):
    # a = b = 1000 fixed, c >= 1000 - 2e-4 minimized: the root LP's block
    # has a smallest eigenvalue of about -1e-4, below -EIGEN_CUT_TOL but
    # above -EIGEN_CUT_TOL * 1000, so the root phase cuts nothing; the
    # MILP rounds cut it, and the blocks returned clear -EIGEN_CUT_TOL
    m = LinearModel()
    a = m.add_var(1000.0, 1000.0)
    b = m.add_var(1000.0, 1000.0)
    c = m.add_var(1000.0 - 2e-4, 2000.0, obj=1.0)
    m.add_var(0.0, 1.0, BINARY, obj=1.0)  # an integer column: the LP phases run
    block = PsdBlockRef("Z", 2, np.array([[a, b], [b, c]]))
    x = np.array([1000.0, 1000.0, 1000.0 - 2e-4, 0.0])
    lam = min_eigenpair(block.assemble(x))[0]
    assert -1e-3 < lam < -EIGEN_CUT_TOL
    rows_at_milp = []
    monkeypatch.setattr(misdp, "solve_milp",
                        lambda model: rows_at_milp.append(model.num_rows) or solve_milp(model))
    sol = solve_misdp_outer(m, [block])
    assert sol.status == OPTIMAL
    assert rows_at_milp[0] == 0 < m.num_rows
    assert min_eigenpair(block.assemble(sol.x))[0] >= -EIGEN_CUT_TOL
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

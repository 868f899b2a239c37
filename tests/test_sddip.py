import itertools

import numpy as np
import pytest

from ddro import sddip
from ddro.ambiguity import EmptyAmbiguity
from ddro.bench import terminal_value
from ddro.linalg import SymMatrix
from ddro.lpmilp import BINARY, INTEGER, OPTIMAL, LinearModel, solve_milp
from ddro.model import generate_instance, replace_fields, zero_lambda
from ddro.sddip import (Cut, CutPool, SddipConfig, StageOracle, backward_pass,
                        forward_pass, lagrangian_dual, run)


def small_instance(seed=7, **over):
    inst = generate_instance(seed, 2, 3, 1, 6, 0.8)
    return replace_fields(inst, **over) if over else inst


def test_cutpool_append_only_versioning():
    pool = CutPool(3, 2)
    assert pool.num_cuts(2) + pool.num_cuts(3) == 0
    pool.add(2, 1, Cut(1.0, np.zeros(2)))
    pool.add(3, 0, Cut(2.0, np.ones(2)))
    assert pool.num_cuts(2) + pool.num_cuts(3) == 2
    assert len(pool.cuts[2][1]) == 1
    rows = pool.rows_for_stage_model(1)  # stage-1 model consumes stage-2 cuts
    assert rows[1][0][0] == 1.0
    assert len(list(pool.all_cuts())) == 2


def test_stage_cache_keys_on_the_cuts_the_stage_reads():
    # the stage-2 model of a T=3 run reads cuts[3] only
    inst = generate_instance(1, 3, 3, 1, 3, 0.3, eps_mu=40, eps_S_lo=0.05,
                             eps_S_hi=3.0)
    pool = CutPool(inst.T, inst.K)
    oracle = StageOracle(inst, 1, SddipConfig(), pool)
    x_prev = np.zeros(inst.I)
    first = oracle.solve_stage(2, 0, x_prev)
    solves = oracle.stage_solves
    pool.add(2, 0, Cut(-1e6, np.zeros(inst.I)))
    assert oracle.solve_stage(2, 0, x_prev) is first
    assert oracle.stage_solves == solves
    pool.add(3, 1, Cut(-1e6, np.zeros(inst.I)))
    again = oracle.solve_stage(2, 0, x_prev)
    assert oracle.stage_solves == solves + 1
    assert again.value == first.value


def test_lagrangian_dual_one_dim_toy():
    # Q(0) = 5, Q(1) = 3: dual optimum at x_hat = 1 reaches 3 (pi = -2 family)
    q = {0: 5.0, 1: 3.0}

    def evaluate(pi):
        vals = {z: q[z] - pi[0] * z for z in (0, 1)}
        z_star = min(vals, key=lambda z: (vals[z], z))
        return vals[z_star], np.array([float(z_star)])

    pi, L = lagrangian_dual(evaluate, np.array([1.0]))
    g = L + pi[0] * 1.0
    # grid-search oracle over multipliers
    grid_best = max(min(5.0 - p * 0.0, 3.0 - p * 1.0) + p * 1.0
                    for p in np.arange(-10.0, 10.0, 1e-3))
    assert g >= grid_best - 1e-6
    assert abs(g - 3.0) <= 1e-9
    # validity of the returned cut at both states
    for z in (0, 1):
        assert L + pi[0] * z <= q[z] + 1e-9


def test_lagrangian_dual_zero_multiplier_is_valid():
    inst = small_instance()
    pool = CutPool(inst.T, inst.K)
    oracle = StageOracle(inst, 1, SddipConfig(), pool)
    L0, _ = oracle.relaxed_value(2, 0, np.zeros(3))
    for bits in itertools.product((0.0, 1.0), repeat=3):
        direct = oracle.solve_stage(2, 0, np.array(bits)).value
        assert L0 <= direct + 1e-9


def test_forward_pass_structure_two_stage():
    inst = small_instance()
    pool = CutPool(inst.T, inst.K)
    cfg = SddipConfig(num_paths=3)
    oracle = StageOracle(inst, 1, cfg, pool)
    rng = np.random.default_rng(0)
    lb, trial_states, sol1, costs = forward_pass(inst, 1, pool, 3, rng, cfg, oracle)
    assert len(costs) == 3
    assert list(trial_states) == [2]
    assert trial_states[2] == [sol1.x_bits]
    assert np.isfinite(lb)


def _wide_windows(inst):
    """Moment windows wide enough that every reachable state's set is
    nonempty (needed when K is tiny and point masses must fit all rows)."""
    return replace_fields(inst, eps_mu=np.full(inst.J, 100.0),
                          eps_S_lo=np.full(inst.J, 0.0),
                          eps_S_hi=np.full(inst.J, 20.0))


def test_forward_deterministic_when_k1():
    inst = _wide_windows(generate_instance(5, 2, 3, 1, 1, 0.8))
    pool = CutPool(inst.T, inst.K)
    cfg = SddipConfig()
    oracle = StageOracle(inst, 1, cfg, pool)
    out1 = forward_pass(inst, 1, pool, 2, np.random.default_rng(1), cfg, oracle)
    out2 = forward_pass(inst, 1, pool, 2, np.random.default_rng(999), cfg, oracle)
    assert out1[0] == out2[0]
    assert out1[1] == out2[1]
    assert out1[3] == out2[3]


def _extensive_form_value(inst):
    """Direct deterministic equivalent for T=2, K=1."""
    assert inst.T == 2 and inst.K == 1
    I, J = inst.I, inst.J
    xi1 = inst.support[0][0]
    xi2 = inst.support[1][0]
    m = LinearModel()
    y_kind = INTEGER if inst.y_integrality == "integer" else 0
    x = {}
    y = {}
    for t, xi in ((1, xi1), (2, xi2)):
        x[t] = m.add_vars(I, 0.0, 1.0, BINARY, prefix=f"x{t}_")
        y[t] = np.array([[m.add_var(0.0, float(inst.h[t - 1, i]), y_kind,
                                    obj=float(inst.c[i, j] - inst.R[j]))
                          for j in range(J)] for i in range(I)])
        for j in range(J):
            m.add_row((y[t][:, j], np.ones(I)), "<=", float(xi[j]))
        for i in range(I):
            m.add_row({int(y[t][i, jj]): 1.0 for jj in range(J)} |
                      {int(x[t][i]): -float(inst.h[t - 1, i])}, "<=", 0.0)
    m.add_row((x[1], inst.f[0].astype(float)), "<=", float(inst.N))
    cols = np.concatenate([x[2], x[1]])
    vals = np.concatenate([inst.f[1], -inst.f[1]]).astype(float)
    m.add_row((cols, vals), "<=", float(inst.N))
    for i in range(I):
        m.add_row({int(x[2][i]): 1.0, int(x[1][i]): -1.0}, ">=", 0.0)
    sol = solve_milp(m)
    assert sol.status == OPTIMAL
    return float(sol.objective)


def test_run_matches_extensive_form_k1():
    inst = _wide_windows(generate_instance(5, 2, 3, 2, 1, 0.8))
    rep = run(inst, 1, SddipConfig(max_iters=15))
    ref = _extensive_form_value(inst)
    assert rep.status == "Optimal"
    assert abs(rep.lb_per_iter[-1] - ref) <= 1e-6 * max(1.0, abs(ref))
    assert abs(rep.ub_estimate - ref) <= 1e-6 * max(1.0, abs(ref))


def test_lb_monotone_and_deterministic_reports():
    inst = small_instance()
    cfg = SddipConfig(max_iters=10, seed=4)
    rep1 = run(inst, 1, cfg)
    rep2 = run(inst, 1, cfg)
    lbs = rep1.lb_per_iter
    assert all(b >= a - 1e-9 * max(1.0, abs(a)) for a, b in zip(lbs, lbs[1:]))
    assert rep1.to_json() == rep2.to_json()
    assert rep1.to_json(include_timing=True) != ""  # timing variant serializes


def test_cut_validity_exhaustive_two_stage():
    inst = small_instance(seed=19)
    pool = CutPool(inst.T, inst.K)
    cfg = SddipConfig(max_iters=6)
    oracle = StageOracle(inst, 1, cfg, pool)
    rng = np.random.default_rng(0)
    for _ in range(4):
        _, trial_states, _, _ = forward_pass(inst, 1, pool, 1, rng, cfg, oracle)
        backward_pass(inst, 1, pool, trial_states, cfg, oracle)
    assert pool.num_cuts(2) > 0
    xi2 = inst.stage_support(2)
    for t, k, cut in pool.all_cuts():
        assert t == 2
        for bits in itertools.product((0.0, 1.0), repeat=3):
            truth = terminal_value(inst, np.array(bits), xi2[k])
            lhs = cut.v + float(cut.pi @ np.array(bits))
            assert lhs <= truth + 1e-6 * max(1.0, abs(truth))


def test_appending_cuts_never_decreases_lb():
    inst = small_instance(seed=23)
    pool = CutPool(inst.T, inst.K)
    cfg = SddipConfig()
    oracle = StageOracle(inst, 1, cfg, pool)
    rng = np.random.default_rng(0)
    lb0, states, _, _ = forward_pass(inst, 1, pool, 1, rng, cfg, oracle)
    backward_pass(inst, 1, pool, states, cfg, oracle)
    lb1, _, _, _ = forward_pass(inst, 1, pool, 1, rng, cfg, oracle)
    assert lb1 >= lb0 - 1e-9 * max(1.0, abs(lb0))


def test_risk_neutral_flag_equivalence():
    # risk machinery with all-zero blend weights reproduces the neutral run
    inst = small_instance(seed=29)
    cfg_neutral = SddipConfig(max_iters=8, seed=2, risk=False)
    cfg_risk = SddipConfig(max_iters=8, seed=2, risk=True)
    rep_n = run(inst, 1, cfg_neutral)
    rep_r = run(inst, 1, cfg_risk)  # instance risk_lambda defaults to zero
    assert np.allclose(rep_n.lb_per_iter, rep_r.lb_per_iter, rtol=1e-9, atol=1e-7)
    assert rep_n.first_stage_x == rep_r.first_stage_x


def test_empty_ambiguity_reported_unbounded():
    inst = small_instance()
    inst = replace_fields(
        inst,
        mu_bar=np.array([10.0]), sigma_bar=np.array([1.0]),
        eps_mu=np.array([1.0]),
        lambda_mu=np.zeros((1, 3)), lambda_S=np.zeros((1, 3)),
        Sigma_bar=SymMatrix(np.array([[1.0]])),
        support=(np.array([[10.0]]),
                 np.array([[20.0], [21.0], [22.0], [23.0], [24.0], [25.0]])),
    )
    rep = run(inst, 1, SddipConfig(max_iters=5))
    assert rep.status == "Unbounded"
    assert "empty_ambiguity" in rep.termination


def test_three_stage_run_converges_to_exact():
    from ddro.bench import exact_multistage_value

    inst = _wide_windows(generate_instance(3, 3, 2, 1, 3, 0.8))
    rep = run(inst, 1, SddipConfig(max_iters=25, num_paths=2, seed=1))
    exact = exact_multistage_value(inst, 1)
    assert rep.status == "Optimal"
    assert abs(rep.lb_per_iter[-1] - exact) <= 1e-6 * max(1.0, abs(exact))
    assert rep.ub_mode == "tree"


def test_report_csv_shape():
    inst = small_instance()
    rep = run(inst, 1, SddipConfig(max_iters=6))
    csv_text = rep.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "iter,lb,ub,gap,seconds"
    assert len(lines) == rep.iterations + 1


def test_config_json_roundtrip():
    cfg = sddip.config_from_json('{"max_iters": 5, "seed": 9, "tol": 1e-5}')
    assert cfg.max_iters == 5 and cfg.seed == 9 and cfg.tol == 1e-5
    with pytest.raises(ValueError):
        sddip.config_from_json('{"bogus_key": 1}')


def test_config_rejects_removed_iterated_dd_key():
    # a removed option is rejected, not silently ignored
    with pytest.raises(ValueError):
        sddip.config_from_json('{"dd_iterative": true}')


def test_config_risk_override_keys():
    cfg = sddip.config_from_json('{"risk_lambda": 0.0, "risk_alpha": 0.9, "type": 1}')
    assert cfg.risk_lambda == 0.0 and cfg.risk_alpha == 0.9
    inst = small_instance(seed=29)
    rep_override = run(inst, 1, sddip.replace_config(cfg, max_iters=8, seed=2))
    rep_neutral = run(inst, 1, SddipConfig(max_iters=8, seed=2))
    assert np.allclose(rep_override.lb_per_iter, rep_neutral.lb_per_iter,
                       rtol=1e-9, atol=1e-7)


def test_bound_mode_guards():
    inst = small_instance()
    with pytest.raises(ValueError):
        run(inst, 1, SddipConfig(bound_mode="lb"))
    with pytest.raises(ValueError):
        run(inst, 3, SddipConfig(bound_mode="exact"))


def test_subgradient_dual_path_converges():
    # force the non-enumerated dual (subgradient + cutting-plane polish)
    from ddro.bench import enumerate_two_stage

    inst = generate_instance(100, 2, 3, 1, 10, 0.8)
    ref = enumerate_two_stage(inst, 1).objective
    rep = run(inst, 1, SddipConfig(max_iters=20, dual_enum_states=0,
                                   subgradient_iters=25))
    assert rep.status == "Optimal"
    assert abs(rep.lb_per_iter[-1] - ref) <= 1e-6 * max(1.0, abs(ref))


def test_sampled_run_that_stalls_still_evaluates_its_policy():
    # K^(T-1) = 36 > tree_limit: sampled mode; the lb stalls before max_iters
    inst = generate_instance(1, 3, 3, 1, 6, 0.3, eps_mu=40, eps_S_lo=0.05, eps_S_hi=3.0)
    rep = run(inst, 1, SddipConfig(max_iters=30, seed=0, tree_limit=10))
    assert rep.termination == "lb_stalled"
    assert rep.iterations < 30
    assert np.isfinite(rep.ub_estimate)
    assert rep.ub_mode == "sampled"
    assert rep.first_stage_x
    assert np.isfinite(rep.iter_rows[-1]["ub"])

import itertools

import numpy as np
import pytest

from ddro import lpmilp, misdp, sddip
from ddro.ambiguity import EmptyAmbiguity
from ddro.bench import (TYPE2_PATTERNS, TYPE3_PATTERNS, make_pattern_instance,
                        terminal_value)
from ddro.linalg import SymMatrix
from ddro.lpmilp import BINARY, INTEGER, OPTIMAL, LinearModel, solve_milp
from ddro.model import build_stage_block, generate_instance, replace_fields, zero_lambda
from ddro.reformulate import DualAtBound, add_cut_rows, build_stage
from ddro.sddip import (Cut, CutPool, SddipConfig, StageOracle, backward_pass,
                        forward_pass, lagrangian_dual, run)
from test_lpmilp import highs_arrays, lp_text


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


def test_type3_lb_terminal_solves_run_no_lp(monkeypatch):
    # the terminal stage has no PSD blocks, so the "lb" route solves its
    # MILP directly, without the LP phase of the cut loop
    inst = make_pattern_instance(TYPE3_PATTERNS[0], seed=1)
    oracle = StageOracle(inst, 3, SddipConfig(bound_mode="lb"), CutPool(inst.T, inst.K))
    calls = []
    linprog = lpmilp.linprog
    monkeypatch.setattr(lpmilp, "linprog", lambda *a: calls.append(1) or linprog(*a))
    x_prev = np.array([0.0, 0.0, 1.0])
    for k in range(inst.K):
        sol = oracle.solve_stage(inst.T, k, x_prev)
        truth = terminal_value(inst, x_prev, inst.stage_support(inst.T)[k])
        assert abs(sol.value - truth) <= 1e-9 * max(1.0, abs(truth))
        assert sol.g_cost == sol.value and sol.theta.size == 0
    assert calls == [] and oracle.stage_solves == inst.K
    oracle.solve_stage(1, 0, np.zeros(inst.I))
    assert calls  # a stage-1 solve does run the LP phase


def test_forward_pass_structure_two_stage():
    inst = small_instance()
    pool = CutPool(inst.T, inst.K)
    cfg = SddipConfig(num_paths=3)
    oracle = StageOracle(inst, 1, cfg, pool)
    rng = np.random.default_rng(0)
    lb, trial_states, sol1, costs = forward_pass(oracle, 3, rng)
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
    out1 = forward_pass(oracle, 2, np.random.default_rng(1))
    out2 = forward_pass(oracle, 2, np.random.default_rng(999))
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
        _, trial_states, _, _ = forward_pass(oracle, 1, rng)
        backward_pass(oracle, trial_states)
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
    lb0, states, _, _ = forward_pass(oracle, 1, rng)
    backward_pass(oracle, states)
    lb1, _, _, _ = forward_pass(oracle, 1, rng)
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
    # the smallest valid values pass; malformed ones are rejected
    assert sddip.config_from_json('{"max_iters": 1, "num_paths": 1, "tol": 0}').tol == 0
    for doc in ('{"max_iters": "3"}', '{"max_iters": 2.5}', '{"max_iters": 0}',
                '{"max_iters": true}', '{"num_paths": 0}', '{"num_paths": 1.0}',
                '{"tol": -1}', '{"tol": NaN}', '{"tol": Infinity}', '{"tol": "0"}',
                '{"bound_mode": "both"}'):
        with pytest.raises(ValueError):
            sddip.config_from_json(doc)
    with pytest.raises(ValueError):
        sddip.replace_config(SddipConfig(), max_iters=0)


def test_config_rejects_removed_iterated_dd_key():
    # a removed option is rejected, not silently ignored
    for key in ("dd_iterative", "dual_bound", "max_dual_escalations",
                "subgradient_iters", "dual_enum_states", "stall_window",
                "ub_paths", "tree_limit"):
        with pytest.raises(ValueError):
            sddip.config_from_json(f'{{"{key}": 1}}')


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


def test_subgradient_dual_path_converges(monkeypatch):
    # force the non-enumerated dual (subgradient + cutting-plane polish)
    from ddro.bench import enumerate_two_stage

    inst = generate_instance(100, 2, 3, 1, 10, 0.8)
    ref = enumerate_two_stage(inst, 1).objective
    monkeypatch.setattr(sddip, "DUAL_ENUM_STATES", 0)
    monkeypatch.setattr(sddip, "SUBGRADIENT_ITERS", 25)
    rep = run(inst, 1, SddipConfig(max_iters=20))
    assert rep.status == "Optimal"
    assert abs(rep.lb_per_iter[-1] - ref) <= 1e-6 * max(1.0, abs(ref))


def test_sampled_run_that_stalls_still_evaluates_its_policy(monkeypatch):
    # K^(T-1) = 36 > TREE_LIMIT: sampled mode; the lb stalls before max_iters
    inst = generate_instance(1, 3, 3, 1, 6, 0.3, eps_mu=40, eps_S_lo=0.05, eps_S_hi=3.0)
    monkeypatch.setattr(sddip, "TREE_LIMIT", 10)
    rep = run(inst, 1, SddipConfig(max_iters=30, seed=0))
    assert rep.termination == "lb_stalled"
    assert rep.iterations < 30
    assert np.isfinite(rep.ub_estimate)
    assert rep.ub_mode == "sampled"
    assert rep.first_stage_x
    assert np.isfinite(rep.iter_rows[-1]["ub"])


# lb of small_instance() with SddipConfig(max_iters=10) from the default big-M
DEFAULT_RUN_LB = -3707.748873225256


def test_small_dual_bound_escalates_to_the_default_runs_lb(monkeypatch):
    monkeypatch.setattr(sddip, "default_dual_bound", lambda inst: 0.1)
    rep = run(small_instance(), 1, SddipConfig(max_iters=10))
    assert rep.dual_escalations > 0
    assert abs(rep.lb_per_iter[-1] - DEFAULT_RUN_LB) <= 1e-9 * abs(DEFAULT_RUN_LB)


def test_dual_bound_still_binding_after_three_escalations_raises(monkeypatch):
    monkeypatch.setattr(sddip, "default_dual_bound", lambda inst: 0.01)
    with pytest.raises(DualAtBound, match="after 3 escalations"):
        run(small_instance(), 1, SddipConfig(max_iters=10))


def test_config_rejects_bad_seed_risk_and_risk_overrides():
    for doc in ('{"seed": "x"}', '{"seed": -1}', '{"seed": true}', '{"seed": 1.5}',
                '{"risk": "yes"}', '{"risk": 1}', '{"risk_lambda": 1.5}',
                '{"risk_lambda": -0.1}', '{"risk_lambda": "0.5"}', '{"risk_lambda": NaN}',
                '{"risk_alpha": 0}', '{"risk_alpha": 1}', '{"risk_alpha": true}'):
        with pytest.raises(ValueError):
            sddip.config_from_json(doc)
    ok = sddip.config_from_json('{"seed": 0, "risk": true, "risk_lambda": 1, '
                                '"risk_alpha": 0.5}')
    assert ok.seed == 0 and ok.risk is True and ok.risk_lambda == 1
    assert sddip.config_from_json('{"risk_lambda": 0}').risk_lambda == 0
    with pytest.raises(ValueError):
        sddip.replace_config(SddipConfig(), seed=-3)


def test_config_json_must_be_an_object():
    for text in ("5", "null", '"abc"', "[1, 2]"):
        with pytest.raises(ValueError, match="JSON object"):
            sddip.config_from_json(text)


# -- compiled stage models equal fresh builds ---------------------------------

def _fresh_model(oracle, t, k, x_prev, pi, dual_bound):
    """The stage-t model of one solve built from scratch: the builder, the
    pool's cuts (add_cut_rows), then the DD copy ("ub"), the eigen rows,
    and the z-copy costs -pi."""
    inst = oracle.inst
    xi = inst.stage_support(t)[k]
    if t == inst.T:
        block = build_stage_block(inst, t, x_prev, xi)
        model, z = block.model, block.z_copy
    else:
        model, lay, blocks = build_stage(inst, int(oracle.ttype), t, x_prev, xi,
                                         risk=oracle.risk_spec(t), dual_bound=dual_bound)
        add_cut_rows(model, lay, oracle.pool.rows_for_stage_model(t))
        if oracle.config.bound_mode == "ub":
            model = misdp.add_dd_inner_general(model, blocks)
        for b, v in oracle._eigen_registry.get(t, []):
            model.add_row(blocks[b].quadratic_form_coeffs(v), ">=", 0.0)
        z = lay.z_copy
    if pi is not None:
        for i, col in enumerate(z):
            model.set_objective(int(col), -float(pi[i]))
    return model


def _stage_data(model, inst):
    """Demand right-hand sides, then the bounds and costs of the copy z."""
    dem = [model.row_rhs[model.row_names.index(f"dem_{j}")] for j in range(inst.J)]
    z = [model.names.index(f"z_{inst.I + inst.I * inst.J + i}") for i in range(inst.I)]
    return (dem, [model.lower[c] for c in z], [model.upper[c] for c in z],
            [model.objective[c] for c in z])


def _expected_stage_data(inst, t, k, x_prev, pi):
    """Demand caps xi_j; z pinned at x_prev, or in [0, 1] with costs -pi
    for a copied state (x_prev None)."""
    dem = inst.stage_support(t)[k].tolist()
    if x_prev is None:
        return dem, [0.0] * inst.I, [1.0] * inst.I, (-pi).tolist()
    x = np.asarray(x_prev, dtype=float).tolist()
    return dem, x, x, [0.0] * inst.I


def _oracle_model(oracle, t, k, x_prev, pi, dual_bound):
    return oracle._stage_model(t, k, x_prev, pi, dual_bound)[0]


def _add_cuts(pool, inst, rng, per_k):
    for t in range(2, inst.T + 1):
        for k in range(inst.K):
            for _ in range(per_k):
                pi = rng.normal(size=inst.I) * (rng.random(inst.I) < 0.7)
                pool.add(t, k, Cut(float(rng.normal(-500.0, 50.0)), pi))


EQUIVALENCE_CASES = (
    ("type1", lambda: generate_instance(1, 3, 3, 1, 3, 0.3, eps_mu=40, eps_S_lo=0.05,
                                        eps_S_hi=3.0), 1, "exact", False),
    ("type1-risk", lambda: generate_instance(1, 3, 3, 1, 3, 0.3, eps_mu=40,
                                             eps_S_lo=0.05, eps_S_hi=3.0), 1, "exact", True),
    ("type2", lambda: make_pattern_instance(TYPE2_PATTERNS[0], seed=1), 2, "exact", False),
    ("type3-lb", lambda: make_pattern_instance(TYPE3_PATTERNS[0], seed=1), 3, "lb", False),
    ("type3-ub", lambda: make_pattern_instance(TYPE3_PATTERNS[0], seed=1), 3, "ub", False),
)


@pytest.mark.parametrize("label, make, ttype, mode, risk", EQUIVALENCE_CASES,
                         ids=[case[0] for case in EQUIVALENCE_CASES])
def test_patched_stage_models_equal_fresh_builds(label, make, ttype, mode, risk):
    # every model the oracle solves, at every k, three states and a copy
    # with pi != 0, equals a fresh build: same LP text, same HiGHS arrays
    inst = make()
    rng = np.random.default_rng(3)
    pool = CutPool(inst.T, inst.K)
    oracle = StageOracle(inst, ttype, SddipConfig(bound_mode=mode, risk=risk), pool)
    M = oracle.dual_bound.value
    if mode == "lb":
        blocks = build_stage(inst, ttype, 1, np.zeros(inst.I), inst.xi1())[2]
        oracle._eigen_registry[1] = [(b, rng.normal(size=blocks[b].dim))
                                     for b in (0, 1, 0)]
    states = [np.zeros(inst.I), (np.arange(inst.I) % 2).astype(float), np.ones(inst.I)]
    pi = rng.normal(scale=50.0, size=inst.I)
    kept_text = None
    for per_k in (1, 2):  # a second cut version refreshes the cut-extended copies
        _add_cuts(pool, inst, rng, per_k)
        for t in range(1, inst.T + 1):
            for k in range(inst.stage_support(t).shape[0]):
                for x_prev, p in [(x, None) for x in states] + [(None, pi)]:
                    mine = _oracle_model(oracle, t, k, x_prev, p, M)
                    fresh = _fresh_model(oracle, t, k, x_prev, p, M)
                    expected = _expected_stage_data(inst, t, k, x_prev, p)
                    assert _stage_data(mine, inst) == expected
                    assert lp_text(mine) == lp_text(fresh), (label, t, k, x_prev, p)
                    assert highs_arrays(mine) == highs_arrays(fresh), (label, t, k)
        if kept_text is None:
            kept_text = lp_text(oracle._compiled[(1, M)].model)
    # one kept model per (stage, big-M), the terminal stage's too: states
    # and copies share it
    assert set(oracle._compiled) == {(t, M) for t in range(1, inst.T + 1)}
    # solving patched copies leaves the kept model as it was built
    oracle.solve_stage(1, 0, np.zeros(inst.I))
    assert lp_text(oracle._compiled[(1, M)].model) == kept_text

import itertools
import json

import numpy as np
import pytest

from ddro import model
from ddro.bench import budget_feasible_states
from ddro.lpmilp import OPTIMAL, solve_milp
from ddro.model import (BUDGET_STATE_TOL, budget_states, build_stage_block, from_json,
                        generate_instance, manhattan, replace_fields, to_json, zero_lambda,
                        _normalized_impact)


def test_generate_deterministic():
    a = generate_instance(11, 3, 4, 2, 8, 0.5)
    b = generate_instance(11, 3, 4, 2, 8, 0.5)
    assert to_json(a) == to_json(b)
    c = generate_instance(12, 3, 4, 2, 8, 0.5)
    assert to_json(a) != to_json(c)


def test_transport_cost_formula():
    assert manhattan(np.array([[4.0, 0.0]]), np.array([[0.0, 0.0]]))[0, 0] == 4.0
    inst = generate_instance(3, 2, 3, 2, 5, 0.8)
    dist = manhattan(inst.facility_xy, inst.customer_xy)
    assert np.allclose(inst.c, dist / 4.0)
    flat = generate_instance(3, 2, 3, 2, 5, 0.8, cost_mode="flat", flat_cost=10.0)
    assert np.all(flat.c == 10.0)


def test_impact_normalization_two_facilities():
    lam = _normalized_impact(np.array([[0.0], [25.0]]), 25.0)  # dists 0 and 25
    assert lam.shape == (1, 2)
    assert abs(lam.sum() - 1.0) < 1e-12
    assert round(lam[0, 0], 3) == 0.731
    assert round(lam[0, 1], 3) == 0.269


def test_recipe_defaults():
    inst = generate_instance(5, 2, 3, 2, 6, 0.8)
    assert np.all(inst.f == 100.0) and inst.N == 100.0
    assert np.all(inst.h == 1000.0) and np.all(inst.R == 100.0)
    assert np.all((inst.mu_bar >= 20.0) & (inst.mu_bar <= 40.0))
    assert np.allclose(inst.sigma_bar, 0.8 * inst.mu_bar)
    assert np.allclose(inst.lambda_mu.sum(axis=1), 1.0)
    assert np.allclose(inst.lambda_S.sum(axis=1), 1.0)
    assert abs(inst.lambda_cov.sum() - 1.0) < 1e-12
    assert np.all(inst.support[1] >= 0.0)
    assert inst.support[0].shape == (1, 2)
    assert np.allclose(inst.support[0][0], inst.mu_bar)


def test_lognormal_supports():
    inst = generate_instance(5, 2, 2, 1, 50, 0.3, distribution="lognormal")
    draws = inst.support[1]
    assert np.all(draws > 0.0)
    # location log(mu), shape rho*log(mu): median of draws near mu
    med = np.median(draws, axis=0)
    assert np.all(np.abs(np.log(med) - np.log(inst.mu_bar))
                  <= 2.0 * 0.3 * np.log(inst.mu_bar))


def test_json_roundtrip_and_version():
    inst = generate_instance(2, 3, 2, 2, 4, 1.0, distribution="lognormal")
    text = to_json(inst)
    again = from_json(text)
    assert to_json(again) == text
    bad = text.replace("ddro-instance-v1", "ddro-instance-v0")
    with pytest.raises(ValueError):
        from_json(bad)


def test_validation_rejects_bad_fields():
    inst = generate_instance(2, 2, 2, 2, 4, 0.5)
    with pytest.raises(ValueError):
        replace_fields(inst, eps_S_lo=np.array([0.5, 1.5]))  # above 1
    with pytest.raises(ValueError):
        replace_fields(inst, risk_alpha=np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        replace_fields(inst, lambda_cov=np.array([-0.1, 1.1]))


def test_from_json_rejects_nan_support():
    # NaN < 0 is False, so the sign check alone lets NaN through
    doc = json.loads(to_json(generate_instance(2, 2, 2, 2, 4, 0.5)))
    doc["support"][1][0][0] = float("nan")
    with pytest.raises(ValueError, match="support"):
        from_json(json.dumps(doc))


def test_budget_row():
    inst = generate_instance(4, 2, 1, 1, 3, 0.5)
    states = budget_feasible_states(inst, 1, np.zeros(1))
    assert [tuple(s) for s in states] == [(0.0,), (1.0,)]
    tight = replace_fields(inst, N=99.0)
    states = budget_feasible_states(tight, 1, np.zeros(1))
    assert [tuple(s) for s in states] == [(0.0,)]


def test_flow_block_all_open_zero_demand():
    inst = generate_instance(4, 2, 2, 2, 3, 0.5)
    block = build_stage_block(inst, 2, np.ones(2), np.zeros(2))
    sol = solve_milp(block.model)
    assert sol.status == OPTIMAL
    assert abs(sol.objective) < 1e-9
    assert np.abs(sol.x[block.y]).max() < 1e-9


def test_flow_block_routing_vs_enumeration():
    inst = generate_instance(4, 2, 2, 1, 3, 0.5)
    inst = replace_fields(inst, c=np.array([[2.0], [5.0]]), R=np.array([100.0]))
    block = build_stage_block(inst, 2, np.ones(2), np.array([30.0]))
    for i, col in enumerate(block.x):
        block.model.set_bounds(int(col), 1.0, 1.0)
    sol = solve_milp(block.model)
    assert sol.status == OPTIMAL
    # brute force over integer flow splits
    best = min((2 - 100) * y1 + (5 - 100) * y2
               for y1 in range(31) for y2 in range(31) if y1 + y2 <= 30)
    assert best == -2940
    assert abs(sol.objective - best) < 1e-6


def test_monotone_state_and_budget_rows():
    inst = generate_instance(8, 3, 3, 2, 4, 0.8)
    x_prev = np.array([1.0, 0.0, 0.0])
    block = build_stage_block(inst, 2, x_prev, inst.support[1][0])
    sol = solve_milp(block.model)
    assert sol.status == OPTIMAL
    x_now = sol.x[block.x]
    assert np.all(x_now >= x_prev - 1e-9)
    assert inst.f[1] @ (x_now - x_prev) <= inst.N + 1e-6


def test_complete_recourse_all_states():
    inst = generate_instance(21, 2, 3, 2, 5, 1.0)
    for bits in itertools.product((0.0, 1.0), repeat=3):
        for k in range(inst.K):
            block = build_stage_block(inst, 2, np.array(bits), inst.support[1][k])
            assert solve_milp(block.model).status == OPTIMAL


def test_capacity_history_equivalence():
    # with the recipe capacities the history-sum form and the
    # single-indicator form give identical optimal stage values
    rng = np.random.default_rng(0)
    checked = 0
    for trial in range(100):
        inst = generate_instance(100 + trial, 3, 2, 2, 3, 0.9)
        x_prev = (rng.random(2) < 0.5).astype(float)
        opens = x_prev * rng.integers(1, 3, 2)  # stages already open
        xi = inst.support[2][int(rng.integers(0, 3))]
        a = build_stage_block(inst, 3, x_prev, xi)
        # the printed history-sum row: sum_j y_ij <= h_i (x_i + opens_i)
        history = a.model.copy()
        for i in range(inst.I):
            history.row_rhs[history.row_names.index(f"cap_{i}")] = (
                float(inst.h[2, i]) * float(opens[i]))
        va = solve_milp(a.model)
        vb = solve_milp(history)
        assert va.status == vb.status == OPTIMAL
        assert abs(va.objective - vb.objective) <= 1e-7 * max(1.0, abs(va.objective))
        checked += 1
    assert checked == 100


def test_zero_lambda_counterpart():
    inst = generate_instance(9, 2, 3, 2, 4, 0.5)
    didr = zero_lambda(inst)
    assert np.all(didr.lambda_mu == 0.0)
    assert np.all(didr.lambda_S == 0.0)
    assert np.all(didr.lambda_cov == 0.0)
    assert np.array_equal(didr.support[1], inst.support[1])


def test_instance_arrays_frozen():
    inst = generate_instance(9, 2, 2, 1, 4, 0.5)
    with pytest.raises(ValueError):
        inst.c[0, 0] = 99.0
    with pytest.raises(ValueError):
        inst.support[1][0, 0] = 99.0


def test_revenue_lower_bound():
    inst = generate_instance(13, 3, 2, 2, 4, 0.8)
    lb1 = model.revenue_lower_bound(inst, 1)
    lb2 = model.revenue_lower_bound(inst, 2)
    assert lb1 <= lb2 <= 0.0
    expect2 = -max(inst.support[2] @ inst.R)
    assert abs(lb2 - expect2) < 1e-9


def test_budget_states_are_the_states_in_budget_in_lexicographic_order():
    # against the reference walk over every successor (bench), on budgets
    # of one and two builds, with mixed costs (a free and a paid-for build
    # among them) and a facility already open
    base = generate_instance(5, 3, 5, 1, 2, 0.5)
    f = np.array([[100.0, 40.0, 60.0, 100.0, 0.0], [30.0, 70.0, 100.0, 50.0, -40.0],
                  [100.0] * 5])
    for N in (100.0, 130.0):
        inst = replace_fields(base, f=f, N=N)
        for t, x_prev in ((1, np.zeros(5)), (2, np.array([0.0, 1.0, 0.0, 0.0, 0.0]))):
            states = budget_states(inst, t, x_prev, 2 ** inst.I)
            assert states == [tuple(int(b) for b in x)
                              for x in budget_feasible_states(inst, t, x_prev)]
            assert len(states) > 2 and states[0] == tuple(int(b) for b in x_prev)


def test_budget_states_keep_a_build_at_the_budget_and_stop_past_the_limit():
    inst = generate_instance(1, 2, 3, 1, 2, 0.8)  # every build costs N = 100
    states = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert budget_states(inst, 1, np.zeros(3), 4) == states
    assert budget_states(inst, 1, np.zeros(3), 3) is None
    # the cap is N + BUDGET_STATE_TOL * max(1, N), inclusive
    f = np.array(inst.f)
    f[0] = [100.0 + BUDGET_STATE_TOL * 100.0, 100.0 + 2 * BUDGET_STATE_TOL * 100.0, 50.0]
    assert budget_states(replace_fields(inst, f=f), 1, np.zeros(3), 8) == states[:2] + [
        (1, 0, 0)]


def test_budget_states_stop_at_once_on_a_wide_budget():
    # I = 40 with every one of the 2^40 states in budget: the walk stops
    # at the 17th state it lists, without walking the others
    wide = replace_fields(generate_instance(1, 2, 40, 1, 2, 0.8), N=1e5)
    visited = []  # the cost lookups of the walk, one per build it tries

    class Costs(np.ndarray):
        def __getitem__(self, key):
            visited.append(key)
            return super().__getitem__(key)

    object.__setattr__(wide, "f", np.array(wide.f).view(Costs))
    assert budget_states(wide, 1, np.zeros(40), 16) is None
    assert len(visited) < 40 * 17

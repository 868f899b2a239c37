import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from ddro.ambiguity import AmbiguityType, RiskSpec, is_nonempty, worst_case
from ddro.bench import TYPE2_PATTERNS, TYPE3_PATTERNS, make_pattern_instance
from ddro.lpmilp import BINARY, OPTIMAL, LinearModel, solve_lp, solve_milp
from ddro.model import build_stage_block, generate_instance, replace_fields
from ddro.reformulate import (MAX_DUAL_ESCALATIONS, DualAtBound, DualBound, UnboundedFactor,
                              VarLayout, add_cut_rows, build_stage, build_type1_stage,
                              build_type2_stage, build_type3_stage,
                              freeze_stage, frozen_dual_value, hull_directions,
                              mccormick_binary_product, solve_with_dual_bound)
from test_lpmilp import lp_text


def test_mccormick_interval_collapse_property():
    rng = np.random.default_rng(99)
    n = 10_000
    L = rng.uniform(-50, 40, n)
    U = L + rng.uniform(0.0, 80, n)
    b = (rng.random(n) < 0.5).astype(float)
    y = rng.uniform(L, U)
    lo = np.maximum(L * b, y - U * (1 - b))
    hi = np.minimum(U * b, y - L * (1 - b))
    assert np.all(hi - lo <= 1e-12)
    assert np.allclose(lo, b * y, atol=1e-12)


def test_mccormick_rows_force_product():
    for b_val, y_val in ((1.0, 3.7), (0.0, -2.5), (1.0, -4.0), (0.0, 5.0)):
        m = LinearModel()
        b = m.add_var(0.0, 1.0, BINARY)
        y = m.add_var(-5.0, 10.0)
        z = m.add_var(-5.0, 10.0)
        mccormick_binary_product(m, b, y, z, -5.0, 10.0)
        m.set_bounds(b, b_val, b_val)
        m.set_bounds(y, y_val, y_val)
        for sense in (1.0, -1.0):
            m.set_objective(z, sense)
            sol = solve_lp(m)
            assert sol.status == OPTIMAL
            assert abs(sol.x[z] - b_val * y_val) <= 1e-9


def test_mccormick_requires_finite_bounds():
    m = LinearModel()
    b = m.add_var(0.0, 1.0, BINARY)
    y = m.add_var(0.0, np.inf)
    z = m.add_var(0.0, np.inf)
    with pytest.raises(UnboundedFactor):
        mccormick_binary_product(m, b, y, z, 0.0, np.inf)


def test_builders_reject_terminal_stage():
    inst = generate_instance(1, 2, 2, 1, 4, 0.8)
    with pytest.raises(ValueError):
        build_type1_stage(inst, 2, np.zeros(2), inst.support[1][0])


def test_build_stage_at_the_terminal_stage_is_the_stage_block():
    # the terminal stage has no continuation: whatever the type, risk and
    # big-M, build_stage gives the stage block's model, with no proxies
    inst = generate_instance(4, 3, 2, 1, 4, 0.8)
    xi = inst.stage_support(inst.T)[1]
    for ttype in (1, 2, 3):
        for x_prev in (np.zeros(2), np.array([1.0, 0.0])):
            m, lay, blocks = build_stage(inst, ttype, inst.T, x_prev, xi,
                                         risk=RiskSpec(0.5, 0.9), dual_bound=10.0)
            block = build_stage_block(inst, inst.T, x_prev, xi)
            assert lp_text(m) == lp_text(block.model), (ttype, x_prev)
            assert lay.theta.size == 0 and lay.audit_families == () and blocks == []
            for name in ("x", "y", "z_copy", "dem"):
                assert np.array_equal(getattr(lay, name), getattr(block, name)), name


def _sample_q(rng, inst, scale=50.0):
    return rng.normal(size=inst.K) * scale - scale


def test_strong_duality_type1():
    rng = np.random.default_rng(8)
    checked = 0
    for trial in range(25):
        inst = generate_instance(300 + trial, 2, 3, 1, 8,
                                 float(rng.uniform(0.4, 1.0)))
        x = (rng.random(3) < 0.5).astype(float)
        if not is_nonempty(inst, AmbiguityType.TYPE1, x):
            continue
        q = _sample_q(rng, inst)
        primal = worst_case(inst, AmbiguityType.TYPE1, x, q, stage=2).value
        dual = frozen_dual_value(inst, 1, 1, x, q)
        assert abs(primal - dual) <= 1e-6 * max(1.0, abs(primal))
        checked += 1
    assert checked >= 15


def test_strong_duality_type2_pattern():
    rng = np.random.default_rng(9)
    inst = make_pattern_instance(TYPE2_PATTERNS[0], seed=2)
    checked = 0
    for x_bits in itertools.product((0.0, 1.0), repeat=3):
        x = np.array(x_bits)
        if not is_nonempty(inst, AmbiguityType.TYPE2, x):
            continue
        for _ in range(4):
            q = _sample_q(rng, inst)
            primal = worst_case(inst, AmbiguityType.TYPE2, x, q, stage=2).value
            dual = frozen_dual_value(inst, 2, 1, x, q)
            assert abs(primal - dual) <= 1e-6 * max(1.0, abs(primal))
            checked += 1
    assert checked >= 12


def _hull_rows(inst, t=1):
    m, _, _ = build_stage(inst, 2, t, np.zeros(inst.I), inst.xi1())
    return [name for name in m.row_names if name.startswith("hull_")]


def test_type2_hull_rows_need_the_hull_condition():
    inst = make_pattern_instance(TYPE2_PATTERNS[0], seed=1)
    d = hull_directions(inst, 1)
    assert d.shape == (1, 2) and abs(d[0] @ [1.0, 1.0]) <= 1e-12
    assert len(_hull_rows(inst)) == 12
    # the support stays collinear, but the moment maps leave its line at
    # some state, or Sigma_bar moves along d: no rows
    for over in ({"lambda_mu": np.array([[0.1, 0.2, 0.3], [0.3, 0.2, 0.1]])},
                 {"mu_bar": np.array([10.0, 12.0])},
                 {"Sigma_bar": np.diag([10.0, 10.0])}):
        changed = replace_fields(inst, **over)
        assert hull_directions(changed, 1).shape == (0, 2), over
        assert _hull_rows(changed) == [], over
    # a support of full rank, and the terminal stage: no rows
    full = replace_fields(inst, support=make_pattern_instance(TYPE3_PATTERNS[0], seed=1).support)
    assert _hull_rows(full) == []
    assert _hull_rows(inst, t=2) == []


def test_strong_duality_with_risk():
    rng = np.random.default_rng(10)
    inst = generate_instance(42, 2, 3, 1, 6, 0.8)
    risk = RiskSpec(0.4, 0.9)
    for _ in range(8):
        x = (rng.random(3) < 0.5).astype(float)
        if not is_nonempty(inst, AmbiguityType.TYPE1, x):
            continue
        q = _sample_q(rng, inst)
        primal = worst_case(inst, AmbiguityType.TYPE1, x, q, stage=2, risk=risk).value
        dual = frozen_dual_value(inst, 1, 1, x, q, risk=risk)
        assert abs(primal - dual) <= 1e-6 * max(1.0, abs(primal))


def _product_objective_coeffs(model, lay, families):
    out = []
    for fam in families:
        cols = lay.families[fam].ravel()
        out.extend(model.objective[int(c)] for c in cols)
    return np.array(out)


def test_zero_lambda_kills_state_coupling():
    inst = generate_instance(6, 2, 3, 2, 5, 0.8)
    didr = replace_fields(inst, lambda_mu=np.zeros((2, 3)),
                          lambda_S=np.zeros((2, 3)), lambda_cov=np.zeros(3))
    xi = didr.support[0][0]
    m1, l1 = build_type1_stage(didr, 1, np.zeros(3), xi)
    assert np.all(_product_objective_coeffs(m1, l1, ("z_a2", "z_a3", "z_b2", "z_b3")) == 0.0)
    m2, l2 = build_type2_stage(didr, 1, np.zeros(3), xi)
    assert np.all(_product_objective_coeffs(m2, l2, ("w", "z", "v")) == 0.0)
    m3, l3, _ = build_type3_stage(didr, 1, np.zeros(3), xi)
    assert np.all(_product_objective_coeffs(m3, l3, ("w", "u", "R", "v")) == 0.0)


def test_risk_zero_lambda_matches_neutral_build():
    inst = generate_instance(15, 2, 3, 1, 6, 0.8)
    rng = np.random.default_rng(0)
    q = _sample_q(rng, inst)
    for ttype in (1, 2):
        if ttype == 2:
            continue  # matching set empty on generic draws; covered below
        neutral = frozen_dual_value(inst, ttype, 1, np.zeros(3), q)
        risky = frozen_dual_value(inst, ttype, 1, np.zeros(3), q,
                                  risk=RiskSpec(0.0, 0.95))
        assert abs(neutral - risky) <= 1e-8 * max(1.0, abs(neutral))
    pat = make_pattern_instance(TYPE2_PATTERNS[0], seed=3)
    q = _sample_q(rng, pat)
    neutral = frozen_dual_value(pat, 2, 1, np.zeros(3), q)
    risky = frozen_dual_value(pat, 2, 1, np.zeros(3), q, risk=RiskSpec(0.0, 0.95))
    assert abs(neutral - risky) <= 1e-8 * max(1.0, abs(neutral))


def test_full_stage_model_risk_reduction():
    inst = generate_instance(23, 2, 3, 1, 5, 0.9)
    xi = inst.support[0][0]
    m0, _ = build_type1_stage(inst, 1, np.zeros(3), xi)
    m1, lay1 = build_type1_stage(inst, 1, np.zeros(3), xi, risk=RiskSpec(0.0, 0.95))
    s0 = solve_milp(m0)
    s1 = solve_milp(m1)
    assert s0.status == s1.status == OPTIMAL
    assert abs(s0.objective - s1.objective) <= 1e-8 * max(1.0, abs(s0.objective))
    assert "pi_cvar" in lay1.families and "cvar_shift" in lay1.families
    assert np.all(np.asarray(m1.objective)[lay1.families["pi_cvar"]] == 0.0)


# Products of x with each dual family: (product, dual, x factors).
PRODUCT_FAMILIES = {
    2: (("w", "u", 1), ("z", "Y", 1), ("v", "Y", 2)),
    3: (("w", "z1", 1), ("u", "z2", 1), ("R", "Y", 1), ("v", "Y", 2)),
}


@pytest.mark.parametrize("ttype", (2, 3), ids=("type2", "type3"))
@pytest.mark.parametrize("risk", (None, RiskSpec(0.5, 0.9)), ids=("neutral", "risk"))
def test_product_columns_equal_their_products(ttype, risk):
    # at every binary state each product column takes the value of its
    # factors' product; the big-M box keeps the MILP bounded without PSD
    # handling, and the maps repeat one column for every equal product
    suite = TYPE2_PATTERNS if ttype == 2 else TYPE3_PATTERNS
    inst = make_pattern_instance(suite[0], seed=1)
    q = _sample_q(np.random.default_rng(7), inst)
    bilinear = "z" if ttype == 2 else "R"
    for bits in itertools.product((0.0, 1.0), repeat=inst.I):
        x = np.array(bits)
        model, lay, _ = freeze_stage(inst, ttype, 1, x, q, risk)
        sol = solve_milp(model)
        assert sol.status == OPTIMAL, bits
        val = {fam: sol.x[cols] for fam, cols in lay.families.items()}
        tol = 1e-9 * lay.dual_bound
        for prod, dual, order in PRODUCT_FAMILIES[ttype]:
            if order == 1:
                want = np.multiply.outer(x, val[dual])
            else:
                want = np.multiply.outer(np.outer(x, x), val[dual])
            assert np.abs(val[prod] - want).max() <= tol, (prod, bits)
        fam = lay.families
        assert np.array_equal(fam["Y"], fam["Y"].T)
        assert np.array_equal(fam["v"], fam["v"].transpose(1, 0, 2, 3))
        assert np.array_equal(fam["v"], fam["v"].transpose(0, 1, 3, 2))
        for i in range(inst.I):
            assert np.array_equal(fam["v"][i, i], fam[bilinear][i])


@pytest.mark.parametrize("ttype, families, envelope_rows, hull_rows, rows", (
    (2, ("w", "z", "v"), 96, 12, 127), (3, ("w", "u", "R", "v"), 132, 0, 151)),
    ids=("type2", "type3"))
def test_stage_models_envelope_each_distinct_product_once(ttype, families, envelope_rows,
                                                          hull_rows, rows):
    # one column and one four-row McCormick envelope per distinct product
    # (at I=3, J=2: u, z2 products I*J, symmetric ones I*J(J+1)/2, and
    # trilinear ones I(I-1)/2 * J(J+1)/2), and no rows tying equal columns;
    # the collinear Type 2 support adds the hull rows of its one flat
    # direction d: d'u and (J = 2) * <da'+ad', Y>, each also on the I
    # products of u and Y, (1 + J) * (1 + I) = 12 rows
    suite = TYPE2_PATTERNS if ttype == 2 else TYPE3_PATTERNS
    inst = make_pattern_instance(suite[0], seed=1)
    xi = inst.support[0][0]
    m, lay, _ = build_stage(inst, ttype, 1, np.zeros(inst.I), xi)
    assert not any(name.startswith("sym_") for name in m.row_names)
    hull = [name for name in m.row_names if name.startswith("hull_")]
    products = np.unique(np.concatenate([lay.families[f].ravel() for f in families]))
    block_rows = build_stage_block(inst, 1, np.zeros(inst.I), xi).model.num_rows
    assert m.num_rows - block_rows - inst.K - len(hull) == 4 * products.size == envelope_rows
    assert (inst.I, inst.J, inst.K, len(hull), m.num_rows) == (3, 2, 10, hull_rows, rows)


def test_prob_bound_dual_columns_are_neutral():
    inst = generate_instance(31, 2, 3, 1, 5, 0.8)
    xi = inst.support[0][0]
    m_off, _ = build_type1_stage(inst, 1, np.zeros(3), xi)
    # the printed form: duals gamma_lo, gamma_hi >= 0 of 0 <= p_k <= 1
    # enter each value row as -gamma_lo_k + gamma_hi_k, at cost gamma_hi_k
    m_on = LinearModel()
    for c in range(m_off.num_vars):
        m_on.add_var(m_off.lower[c], m_off.upper[c], m_off.integrality[c],
                     m_off.objective[c], m_off.names[c])
    gamma = {}
    for k in range(inst.K):
        gamma[f"dual_{k}"] = (m_on.add_var(0.0, np.inf, name=f"gl_{k}"),
                              m_on.add_var(0.0, np.inf, obj=1.0, name=f"gh_{k}"))
    for r, (cols, vals) in enumerate(m_off.rows()):
        name = m_off.row_names[r]
        if name in gamma:
            cols, vals = np.append(cols, gamma[name]), np.append(vals, [-1.0, 1.0])
        m_on.add_row((cols, vals), m_off.row_rel[r], m_off.row_rhs[r], name)
    assert m_on.num_vars == m_off.num_vars + 2 * inst.K
    v_off = solve_milp(m_off)
    v_on = solve_milp(m_on)
    assert abs(v_off.objective - v_on.objective) <= 1e-7 * max(1.0, abs(v_off.objective))


def test_cut_rows_raise_stage_value():
    inst = generate_instance(12, 2, 3, 1, 4, 0.8)
    xi = inst.support[0][0]
    m0, lay = build_type1_stage(inst, 1, np.zeros(3), xi)
    base = solve_milp(m0).objective
    lifted = [[(base / inst.K, np.zeros(3))] for _ in range(inst.K)]
    m1 = m0.copy()
    add_cut_rows(m1, lay, lifted)
    lifted_val = solve_milp(m1).objective
    assert lifted_val >= base - 1e-9 * max(1.0, abs(base))


def test_type3_block_descriptors():
    inst = generate_instance(2, 2, 2, 2, 4, 0.8)
    m, lay, blocks = build_type3_stage(inst, 1, np.zeros(2), inst.support[0][0])
    z_block, y_block = blocks
    assert z_block.name == "Z" and z_block.dim == inst.J + 1
    assert y_block.name == "Y" and y_block.dim == inst.J
    # Z maps z1, z2, z3 consistently with the layout
    assert np.array_equal(z_block.cols[: inst.J, : inst.J], lay.families["z1"])
    assert np.array_equal(z_block.cols[: inst.J, inst.J], lay.families["z2"])
    assert z_block.cols[inst.J, inst.J] == lay.families["z3"][0]
    assert np.array_equal(y_block.cols, lay.families["Y"])


def _fixed_data_form(model, z, x_prev):
    """The stage model without the copy z: its columns substituted by
    x_prev, so the budget row carries N + f'x_prev and the keep-open rows
    x_i >= x_prev_i in their right-hand sides."""
    z = np.asarray(z)
    kept = np.setdiff1d(np.arange(model.num_vars), z)
    new_id = np.full(model.num_vars, -1)
    new_id[kept] = np.arange(kept.size)
    value = np.zeros(model.num_vars)
    value[z] = x_prev
    out = LinearModel()
    for c in kept:
        out.add_var(model.lower[c], model.upper[c], model.integrality[c],
                    model.objective[c], model.names[c])
    for r, (cols, vals) in enumerate(model.rows()):
        free = new_id[cols] >= 0
        out.add_row((new_id[cols[free]], vals[free]), model.row_rel[r],
                    model.row_rhs[r] - float(vals @ value[cols]), model.row_names[r])
    return out


# Capacities below the demand make the stage value depend on the state.
FIXED_DATA_CASES = (
    ("type1-T3", lambda: generate_instance(1, 3, 3, 2, 3, 0.3, eps_mu=40, eps_S_lo=0.05,
                                           eps_S_hi=3.0, capacity=30.0), 1),
    ("type1-T2", lambda: generate_instance(12, 2, 3, 2, 4, 0.8, capacity=30.0), 1),
    ("type2", lambda: replace_fields(make_pattern_instance(TYPE2_PATTERNS[0], seed=1),
                                     h=np.full((2, 3), 8.0)), 2),
)


@pytest.mark.parametrize("label, make, ttype", FIXED_DATA_CASES,
                         ids=[case[0] for case in FIXED_DATA_CASES])
def test_pinned_copy_equals_fixed_data_form(label, make, ttype):
    # the stage model with its copy z pinned by bounds has the optimal
    # value of the form that writes x_prev into the row right-hand sides
    inst = make()
    for t in range(1, inst.T + 1):
        f_t = inst.f[t - 1]
        xi = max(inst.stage_support(t), key=np.sum)  # the largest demand
        values = []
        for bits in itertools.product((0.0, 1.0), repeat=inst.I):
            x_prev = np.array(bits)
            if t == inst.T:
                block = build_stage_block(inst, t, x_prev, xi)
                pinned, z = block.model, block.z_copy
            else:
                pinned, lay, _ = build_stage(inst, ttype, t, x_prev, xi)
                z = lay.z_copy
            fixed = _fixed_data_form(pinned, z, x_prev)
            assert fixed.num_vars == pinned.num_vars - inst.I
            budget = fixed.row_names.index("budget")
            assert fixed.row_rhs[budget] == inst.N + f_t @ x_prev
            for i in range(inst.I):
                r = fixed.row_names.index(f"keep_{i}")
                assert fixed.rows()[r][1].tolist() == [1.0]
                assert (fixed.row_rel[r], fixed.row_rhs[r]) == (">=", x_prev[i])
            a, b = solve_milp(pinned), solve_milp(fixed)
            assert a.status == b.status == OPTIMAL, (label, t, bits)
            assert abs(a.objective - b.objective) <= 1e-9 * max(1.0, abs(b.objective)), (
                label, t, bits)
            values.append(round(b.objective, 6))
        assert len(set(values)) > 1, (label, t)  # the state matters at this stage


def test_build_stage_dispatch():
    inst = generate_instance(2, 2, 2, 1, 4, 0.8)
    xi = inst.support[0][0]
    for ttype, n_blocks in ((1, 0), (2, 0), (3, 2)):
        m, lay, blocks = build_stage(inst, ttype, 1, np.zeros(2), xi)
        assert len(blocks) == n_blocks
        assert lay.theta.shape == (inst.K,)
    with pytest.raises(ValueError):
        build_stage(inst, 4, 1, np.zeros(2), xi)


def _fake_solve_at(dual, objective, probe_status=OPTIMAL):
    """solve_at for one audited dual column: at box b the dual takes
    dual(b) and the objective objective(b).  The routine alternates a
    solve and a 10x probe, so every second call is a probe; probes
    report probe_status."""
    calls = []

    def solve_at(b):
        status = probe_status if len(calls) % 2 else OPTIMAL
        calls.append(b)
        lay = VarLayout(x=np.array([], dtype=int), y=np.array([], dtype=int),
                        theta=np.array([], dtype=int), z_copy=None,
                        families={"d": np.array([0])}, audit_families=("d",),
                        dual_bound=b)
        return SimpleNamespace(status=status, x=np.array([dual(b)]),
                               objective=objective(b)), lay

    return solve_at, calls


def test_dual_bound_escalation_routine():
    # accept: a dual inside the box is taken at once, with no probe
    solve_at, calls = _fake_solve_at(lambda b: 5.0, lambda b: -5.0)
    bound = DualBound(100.0)
    sol, _ = solve_with_dual_bound(solve_at, bound)
    assert sol.objective == -5.0 and calls == [100.0] and bound.probes == 0
    # flat face: the dual rests on the box but a 10x probe keeps the value
    solve_at, calls = _fake_solve_at(lambda b: b, lambda b: -5.0)
    bound = DualBound(100.0)
    solve_with_dual_bound(solve_at, bound)
    assert calls == [100.0, 1000.0] and (bound.escalations, bound.probes) == (0, 1)
    # escalate: the dual binds at 0.1 and 1, its value moves, and 10 holds it
    hooked = []
    solve_at, calls = _fake_solve_at(lambda b: min(b, 5.0), lambda b: -min(b, 5.0))
    bound = DualBound(0.1)
    sol, _ = solve_with_dual_bound(solve_at, bound, lambda s, lay: hooked.append(s.x[0]))
    assert sol.objective == -5.0 and hooked == [0.1, 1.0]
    assert (bound.value, bound.escalations, bound.probes) == (10.0, 2, 2)
    assert calls == [0.1, 1.0, 1.0, 10.0, 10.0]
    # a probe that is not optimal escalates too
    solve_at, calls = _fake_solve_at(lambda b: min(b, 5.0), lambda b: -5.0, "Infeasible")
    bound = DualBound(1.0)
    sol, _ = solve_with_dual_bound(solve_at, bound)
    assert bound.escalations == 1 and sol.objective == -5.0
    # cap: the escalations of one DualBound add up to MAX_DUAL_ESCALATIONS
    solve_at, calls = _fake_solve_at(lambda b: b, lambda b: -b)
    bound = DualBound(1.0, escalations=1)
    with pytest.raises(DualAtBound, match=f"after {MAX_DUAL_ESCALATIONS} escalations"):
        solve_with_dual_bound(solve_at, bound)
    assert bound.escalations == MAX_DUAL_ESCALATIONS == 3
    assert calls == [1.0, 10.0, 10.0, 100.0, 100.0, 1000.0]
    # the hook may stop the escalation, and it runs before the probe
    solve_at, calls = _fake_solve_at(lambda b: b, lambda b: -b)
    with pytest.raises(ZeroDivisionError):
        solve_with_dual_bound(solve_at, DualBound(1.0), lambda s, lay: 1 / 0)
    assert calls == [1.0]

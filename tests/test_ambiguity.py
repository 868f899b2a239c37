import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from ddro import ambiguity
from ddro.ambiguity import (AmbiguityType, EmptyAmbiguity, NonConvergence, RiskSpec,
                            WorstCase, decision_moments_type23, is_nonempty, mean_map,
                            type1_bounds, type3_slater_slack, worst_case)
from ddro.linalg import SymMatrix, sym_eig
from ddro.model import generate_instance, replace_fields


def make_inst(seed=7, T=2, I=3, J=1, K=10, rho=0.8, **over):
    return replace_fields(generate_instance(seed, T, I, J, K, rho), **over)


def table_pattern_instance():
    """mu=10, eps=5, lambda_mu column (0.9, 0.5, 0.1)."""
    inst = make_inst(J=1, K=6)
    return replace_fields(
        inst,
        mu_bar=np.array([10.0]), sigma_bar=np.array([0.1]),
        lambda_mu=np.array([[0.9, 0.5, 0.1]]),
        lambda_S=np.array([[0.5, 0.5, 0.5]]),
        eps_mu=np.array([5.0]),
        eps_S_lo=np.array([0.5]), eps_S_hi=np.array([1.5]),
        Sigma_bar=SymMatrix(np.array([[0.01]])),
    )


def test_type1_bounds_at_zero():
    inst = make_inst()
    l, u = type1_bounds(inst, np.zeros(3))
    s = inst.mu_bar**2 + inst.sigma_bar**2
    assert l[0] == u[0] == 1.0
    assert np.allclose(l[1], inst.mu_bar - inst.eps_mu)
    assert np.allclose(u[1], inst.mu_bar + inst.eps_mu)
    assert np.allclose(l[2], s * inst.eps_S_lo)
    assert np.allclose(u[2], s * inst.eps_S_hi)


def test_type1_bounds_table_pattern():
    inst = table_pattern_instance()
    l, u = type1_bounds(inst, np.array([1.0, 0.0, 0.0]))
    assert abs(l[1] - 14.0) < 1e-12  # 10*1.9 - 5
    assert abs(u[1] - 24.0) < 1e-12


def test_mean_doubles_with_normalized_impacts():
    inst = make_inst(J=2)
    mu = mean_map(inst, np.ones(3))
    assert np.allclose(mu, 2.0 * inst.mu_bar)


def test_decision_moments_scaling():
    inst = make_inst(J=2)
    mu0, sig0 = decision_moments_type23(inst, np.zeros(3))
    assert np.allclose(mu0, inst.mu_bar)
    assert np.allclose(sig0.entries, inst.Sigma_bar.entries)
    _, sig_all = decision_moments_type23(inst, np.ones(3))
    assert np.allclose(sig_all.entries, 2.0 * inst.Sigma_bar.entries)
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        _, sig_i = decision_moments_type23(inst, e)
        scale = 1.0 + inst.lambda_cov[i]
        base = np.array([lam for lam, _ in sym_eig(inst.Sigma_bar)])
        ours = np.array([lam for lam, _ in sym_eig(sig_i)])
        assert np.allclose(ours, scale * base, atol=1e-8)


def _tiny_type1(support, mu=10.0, eps_mu=1.0):
    """J=1 instance with a prescribed stage-2 support and wide 2nd-moment window."""
    K = len(support)
    inst = make_inst(J=1, K=K)
    return replace_fields(
        inst,
        mu_bar=np.array([mu]), sigma_bar=np.array([1.0]),
        eps_mu=np.array([eps_mu]),
        eps_S_lo=np.array([0.0]), eps_S_hi=np.array([1000.0]),
        lambda_mu=np.zeros((1, 3)), lambda_S=np.zeros((1, 3)),
        Sigma_bar=SymMatrix(np.array([[1.0]])),
        support=(np.array([[mu]]), np.array(support, dtype=float).reshape(K, 1)),
    )


def _grid_simplex_max(q, feasible, step=1e-3):
    """Brute-force max of q'p over the 2-simplex grid intersected with a test."""
    n = int(round(1.0 / step))
    best = -np.inf
    for i1 in range(n + 1):
        for i2 in range(n + 1 - i1):
            p = np.array([i1 * step, i2 * step, 1.0 - (i1 + i2) * step])
            if feasible(p):
                best = max(best, float(q @ p))
    return best


def test_type1_worst_case_vs_grid():
    # supports {8, 10, 12}, mean window [9, 11]: the grid oracle gives
    # max p3 = 0.75 at p = (0.25, 0, 0.75)
    inst = _tiny_type1([8.0, 10.0, 12.0])
    q = np.array([0.0, 0.0, 1.0])
    wc = worst_case(inst, AmbiguityType.TYPE1, np.zeros(3), q, stage=2)
    xi = np.array([8.0, 10.0, 12.0])

    def feas(p):
        return 9.0 - 1e-9 <= xi @ p <= 11.0 + 1e-9

    grid = _grid_simplex_max(q, feas)
    assert abs(grid - 0.75) < 1e-9
    assert abs(wc.value - grid) <= 1e-3
    assert abs(wc.value - 0.75) <= 1e-9


def test_constant_q_gives_constant_value():
    inst = make_inst()
    for ttype in (1, 3):
        wc = worst_case(inst, AmbiguityType(ttype), np.zeros(3),
                        np.full(inst.K, -17.5), stage=2)
        assert abs(wc.value + 17.5) <= 1e-6
        assert abs(wc.p.sum() - 1.0) <= 1e-8


def test_monotone_in_q():
    inst = make_inst(seed=3)
    rng = np.random.default_rng(0)
    q = rng.normal(size=inst.K) * 10
    base = worst_case(inst, AmbiguityType.TYPE1, np.zeros(3), q, stage=2).value
    for k in range(inst.K):
        q2 = q.copy()
        q2[k] += 1.0
        v2 = worst_case(inst, AmbiguityType.TYPE1, np.zeros(3), q2, stage=2).value
        assert v2 >= base - 1e-9


def test_type2_singleton_exact_match():
    inst = make_inst(J=1, K=1)
    inst = replace_fields(
        inst,
        support=(inst.support[0], inst.mu_bar.reshape(1, 1).copy()),
        Sigma_bar=SymMatrix(np.array([[0.0]])),
        lambda_mu=np.zeros((1, 3)), lambda_S=np.zeros((1, 3)),
        lambda_cov=np.zeros(3),
    )
    wc = worst_case(inst, AmbiguityType.TYPE2, np.zeros(3), np.array([4.25]), stage=2)
    assert abs(wc.value - 4.25) < 1e-9
    assert abs(wc.p[0] - 1.0) < 1e-9


def _moment_matched_instance(seed=5, J=2, K=15):
    """mu/Sigma set to the empirical moments of the drawn support, so the
    matching set is nonempty at the zero state (uniform weights match)."""
    inst = make_inst(seed=seed, J=J, K=K)
    draws = inst.support[1]
    mu = draws.mean(axis=0)
    dev = draws - mu[None, :]
    sig = (dev.T @ dev) / K
    return replace_fields(inst, mu_bar=mu, sigma_bar=np.sqrt(np.diag(sig)),
                          Sigma_bar=SymMatrix.from_array(sig))


def test_type2_feasibility_implies_type3():
    inst = _moment_matched_instance()
    x0 = np.zeros(3)
    assert is_nonempty(inst, AmbiguityType.TYPE2, x0)
    assert is_nonempty(inst, AmbiguityType.TYPE3, x0)
    # and the matching worst case is dominated by the relaxed one
    rng = np.random.default_rng(1)
    q = rng.normal(size=inst.K) * 5
    v2 = worst_case(inst, AmbiguityType.TYPE2, x0, q, stage=2).value
    v3 = worst_case(inst, AmbiguityType.TYPE3, x0, q, stage=2).value
    assert v3 >= v2 - 1e-6


def test_lambda_zero_worst_case_ignores_x():
    inst = make_inst(J=2)
    didr = replace_fields(inst, lambda_mu=np.zeros((2, 3)),
                          lambda_S=np.zeros((2, 3)), lambda_cov=np.zeros(3))
    rng = np.random.default_rng(2)
    q = rng.normal(size=inst.K) * 10
    vals = [worst_case(didr, AmbiguityType.TYPE1, np.array(x, dtype=float), q,
                       stage=2).value
            for x in itertools.product((0, 1), repeat=3)]
    assert max(vals) - min(vals) <= 1e-9


def test_empty_set_detection_and_error():
    # all support points above mu + eps: the mean row is unsatisfiable
    inst = _tiny_type1([20.0, 21.0, 22.0], mu=10.0, eps_mu=1.0)
    assert not is_nonempty(inst, AmbiguityType.TYPE1, np.zeros(3))
    with pytest.raises(EmptyAmbiguity):
        worst_case(inst, AmbiguityType.TYPE1, np.zeros(3), np.zeros(3), stage=2)


def brute_force_nonempty_type1(inst, x, stage=2):
    """Independent feasibility check: minimize total window violation."""
    xi = inst.stage_support(stage)
    K = xi.shape[0]
    F = np.vstack([np.ones(K), xi.T, (xi.T) ** 2])
    l, u = type1_bounds(inst, x)
    nrow = F.shape[0]
    # variables [p, s_lo, s_hi]; min sum(s) s.t. Fp + s_lo >= l, Fp - s_hi <= u
    c = np.concatenate([np.zeros(K), np.ones(2 * nrow)])
    A_ub = np.block([
        [-F, -np.eye(nrow), np.zeros((nrow, nrow))],
        [F, np.zeros((nrow, nrow)), -np.eye(nrow)],
    ])
    b_ub = np.concatenate([-l, u])
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=[(0, None)] * (K + 2 * nrow),
                  method="highs")
    return res.status == 0 and res.fun <= 1e-9


def test_nonempty_agrees_with_brute_force():
    rng = np.random.default_rng(31)
    agree = 0
    for trial in range(60):
        inst = make_inst(seed=200 + trial, J=int(rng.integers(1, 3)), K=6,
                         rho=float(rng.uniform(0.2, 1.0)))
        inst = replace_fields(
            inst,
            eps_mu=rng.uniform(0.0, 10.0, inst.J),
            eps_S_lo=rng.uniform(0.0, 1.0, inst.J),
            eps_S_hi=1.0 + rng.uniform(0.0, 1.0, inst.J),
        )
        x = (rng.random(3) < 0.5).astype(float)
        ours = is_nonempty(inst, AmbiguityType.TYPE1, x)
        assert ours == brute_force_nonempty_type1(inst, x)
        agree += 1
    assert agree == 60


def test_type3_worst_case_vs_grid():
    inst = _tiny_type1([8.0, 10.0, 12.0])
    inst = replace_fields(inst, gamma=0.5, eta_cov=1.5,
                          Sigma_bar=SymMatrix(np.array([[2.0]])))
    q = np.array([0.0, 0.0, 1.0])
    x0 = np.zeros(3)
    xi = np.array([8.0, 10.0, 12.0])

    def feas(p):
        mean = xi @ p
        if (mean - 10.0) ** 2 / 2.0 > 0.5 + 1e-9:
            return False
        second = p @ (xi - 10.0) ** 2
        return second <= 1.5 * 2.0 + 1e-9

    grid = _grid_simplex_max(q, feas)
    wc = worst_case(inst, AmbiguityType.TYPE3, x0, q, stage=2)
    assert abs(wc.value - grid) <= 2e-3


def test_type3_slater_slack_positive_on_interior():
    inst = make_inst(J=2, seed=13)
    slack = type3_slater_slack(inst, np.zeros(3))
    assert slack >= 1e-9
    tight = replace_fields(inst, gamma=1e-15, eta_cov=1.0)
    # mean pinned to mu(0) exactly: generically infeasible over draws
    assert type3_slater_slack(tight, np.ones(3)) < 1e-9


def test_type3_slater_slack_flags_a_stalled_sign(monkeypatch):
    # this set's largest slack is 10 to LP tolerance, so with the threshold
    # at 10 neither Kelley bound can settle the sign
    inst = make_inst(J=2, seed=13)
    monkeypatch.setattr(ambiguity, "SLATER_SLACK", 10.0)
    with pytest.raises(NonConvergence, match="stalled"):
        type3_slater_slack(inst, np.zeros(3))


def test_risk_reduces_to_neutral_at_zero_lambda():
    inst = make_inst(seed=3)
    rng = np.random.default_rng(4)
    q = rng.normal(size=inst.K) * 20
    neutral = worst_case(inst, AmbiguityType.TYPE1, np.zeros(3), q, stage=2)
    risky = worst_case(inst, AmbiguityType.TYPE1, np.zeros(3), q, stage=2,
                       risk=RiskSpec(0.0, 0.95))
    assert abs(neutral.value - risky.value) <= 1e-8 * max(1.0, abs(neutral.value))
    w = risky.sampling_weights(RiskSpec(0.0, 0.95))
    assert abs(w.sum() - 1.0) < 1e-9


def test_risk_value_monotone_in_lambda():
    inst = make_inst(seed=3)
    rng = np.random.default_rng(4)
    q = rng.normal(size=inst.K) * 20
    vals = [worst_case(inst, AmbiguityType.TYPE1, np.zeros(3), q, stage=2,
                       risk=RiskSpec(lam, 0.9)).value
            for lam in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_risk_spec_validation():
    with pytest.raises(ValueError):
        RiskSpec(-0.1, 0.9)
    with pytest.raises(ValueError):
        RiskSpec(0.5, 1.0)


def test_uniform_p_feasible_when_supports_at_mean():
    # all support points exactly at mu with eps_mu > 0 and the unit inside
    # the second-moment scales: the uniform distribution satisfies all rows
    inst = make_inst(J=1, K=4)
    inst = replace_fields(
        inst,
        support=(inst.support[0], np.tile(inst.mu_bar, (4, 1))),
        lambda_mu=np.zeros((1, 3)), lambda_S=np.zeros((1, 3)),
    )
    assert is_nonempty(inst, AmbiguityType.TYPE1, np.zeros(3))


def test_type3_huge_radii_worst_case_is_max_q():
    inst = make_inst(J=2, seed=14)
    inst = replace_fields(inst, gamma=1e8, eta_cov=1e8)
    rng = np.random.default_rng(3)
    q = rng.normal(size=inst.K) * 25
    wc = worst_case(inst, AmbiguityType.TYPE3, np.zeros(3), q, stage=2)
    assert abs(wc.value - q.max()) <= 1e-6 * max(1.0, abs(q.max()))

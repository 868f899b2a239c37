"""Acceptance suite: one test per criterion, each printing a PASS line.

Reference table objectives are orientation values only (supports there
are regenerated); the assertions are oracle-equivalences, bound
sandwiches, and invariants, at the stated tolerances.
"""

import itertools
import time

import numpy as np
import pytest
from scipy.optimize import linprog

from ddro import bench
from ddro.ambiguity import (AmbiguityType, RiskSpec, is_nonempty, type1_bounds,
                            worst_case)
from ddro.bench import (PATTERN_SUITES, enumerate_two_stage, exact_value_function,
                        make_pattern_instance, solve_didr, terminal_value)
from ddro.misdp import min_eigenpair
from ddro.model import generate_instance, replace_fields, zero_lambda
from ddro.reformulate import frozen_dual_value
from ddro.sddip import (CutPool, SddipConfig, StageOracle, backward_pass, forward_pass, run,
                        run_type3_bounds)

REL = 1e-6

TYPE1_CONFIGS = [(seed, J, K, rho)
                 for seed in (100, 101, 102)
                 for (J, K, rho) in ((1, 10, 0.8), (2, 16, 1.0),
                                     (1, 20, 0.6), (2, 8, 0.9))]
TYPE2_CASES = [(p_idx, seed) for p_idx in (0, 1, 2) for seed in (1, 2, 3)][:8]


def _rel_close(a, b, rel=REL):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _criterion1_instances():
    for seed, J, K, rho in TYPE1_CONFIGS:
        yield 1, generate_instance(seed, 2, 3, J, K, rho)
    for p_idx, seed in TYPE2_CASES:
        yield 2, make_pattern_instance(bench.TYPE2_PATTERNS[p_idx], seed=seed)


def test_criterion_1_finite_convergence_types_1_2():
    t0 = time.perf_counter()
    n = 0
    for ttype, inst in _criterion1_instances():
        oracle = enumerate_two_stage(inst, ttype)
        assert oracle.status == "ok"
        rep = run(inst, ttype, SddipConfig(max_iters=25, seed=0))
        assert rep.status == "Optimal", (ttype, n, rep.termination)
        assert _rel_close(rep.lb_per_iter[-1], oracle.objective), (ttype, n)
        assert _rel_close(rep.ub_estimate, oracle.objective), (ttype, n)
        assert rep.ub_estimate >= rep.lb_per_iter[-1] - 1e-6 * max(
            1.0, abs(rep.ub_estimate))
        n += 1
    took = time.perf_counter() - t0
    assert n >= 20
    print(f"\nACCEPTANCE 1 PASS: decomposition == enumeration on {n} "
          f"two-stage instances (types 1-2) at {REL:g} rel; {took:.1f}s total")


def test_criterion_2_decision_dependency_benefit():
    checked = 0
    for ttype, suite in PATTERN_SUITES.items():
        for pat in suite:
            inst = make_pattern_instance(pat, seed=1)
            zeroed = zero_lambda(inst)
            cfg = SddipConfig(max_iters=12, seed=3)
            if ttype in (1, 2):
                direct = run(zeroed, ttype, cfg)
                dedicated = solve_didr(inst, ttype, cfg)
                assert direct.to_json() == dedicated.to_json()
            dddr = enumerate_two_stage(inst, ttype)
            didr = enumerate_two_stage(zeroed, ttype)
            if dddr.status == "ok" and didr.status == "ok":
                assert dddr.objective <= didr.objective + REL * max(
                    1.0, abs(didr.objective)), pat.name
                checked += 1
    assert checked >= 10
    print(f"\nACCEPTANCE 2 PASS: zero-coefficient run reproduces the "
          f"decision-independent value exactly; dependent <= independent on "
          f"{checked} bounded pattern cells")


def test_criterion_3_type3_sandwich():
    gaps = []
    for pat in bench.TYPE3_PATTERNS:
        for seed in (1, 2, 3):
            inst = make_pattern_instance(pat, seed=seed)
            exact = enumerate_two_stage(inst, 3)
            assert exact.status == "ok"
            lb_rep, ub_rep = run_type3_bounds(
                inst, SddipConfig(max_iters=12, seed=0))
            lb = lb_rep.lb_per_iter[-1]
            ub = ub_rep.ub_estimate
            slack = REL * max(1.0, abs(exact.objective))
            assert lb <= exact.objective + slack, (pat.name, seed)
            assert exact.objective <= ub + slack, (pat.name, seed)
            gaps.append((ub - lb) / max(1.0, abs(ub)))
    assert len(gaps) >= 10
    print(f"\nACCEPTANCE 3 PASS: lb <= exact <= ub on {len(gaps)} type-3 "
          f"instances; gaps mean {np.mean(gaps):.2e} max {np.max(gaps):.2e} "
          f"(soft target 4e-2)")


def _run_with_pool(inst, ttype, iters=4, seed=0, bound_mode=None):
    pool = CutPool(inst.T, inst.K)
    if bound_mode is None:
        bound_mode = "lb" if ttype == 3 else "exact"
    cfg = SddipConfig(max_iters=iters, seed=seed, bound_mode=bound_mode)
    oracle = StageOracle(inst, ttype, cfg, pool)
    for _ in range(iters):
        _, states = forward_pass(oracle)
        backward_pass(oracle, states)
    return pool


def test_criterion_4_cut_validity():
    cases = [(1, generate_instance(100, 2, 3, 1, 10, 0.8)),
             (1, generate_instance(101, 2, 3, 2, 8, 0.9)),
             (2, make_pattern_instance(bench.TYPE2_PATTERNS[0], seed=2)),
             (3, make_pattern_instance(bench.TYPE3_PATTERNS[0], seed=2)),
             (1, replace_fields(generate_instance(3, 3, 2, 1, 3, 0.8),
                                eps_mu=np.array([100.0]),
                                eps_S_lo=np.array([0.0]),
                                eps_S_hi=np.array([20.0])))]
    n_cuts = 0
    for ttype, inst in cases:
        pool = _run_with_pool(inst, ttype, iters=3)
        states = list(itertools.product((0.0, 1.0), repeat=inst.I))
        memo = {}
        for t, k, cut in pool.all_cuts():
            for bits in states:
                x = np.array(bits)
                if t == inst.T:
                    key = (t, k, bits)
                    if key not in memo:
                        memo[key] = terminal_value(inst, x, inst.stage_support(t)[k])
                    truth = memo[key]
                else:
                    truth = exact_value_function(inst, ttype, t, x, k, _memo=memo)
                lhs = cut.v + float(cut.pi @ x)
                assert lhs <= truth + REL * max(1.0, abs(truth)), (ttype, t, k)
            n_cuts += 1
    assert n_cuts > 50
    print(f"\nACCEPTANCE 4 PASS: {n_cuts} pooled cuts valid at every binary "
          f"state (exhaustive check, zero violations)")


def test_criterion_5_strong_duality():
    rng = np.random.default_rng(55)
    counts = {1: 0, 2: 0}
    # type 1 on generated instances
    trial = 0
    while counts[1] < 100:
        inst = generate_instance(500 + trial, 2, 3, 1 + trial % 2, 8,
                                 0.5 + 0.1 * (trial % 5))
        trial += 1
        for _ in range(4):
            x = (rng.random(3) < 0.5).astype(float)
            if not is_nonempty(inst, AmbiguityType.TYPE1, x):
                continue
            q = rng.normal(size=inst.K) * 60 - 60
            primal = worst_case(inst, AmbiguityType.TYPE1, x, q, stage=2).value
            dual = frozen_dual_value(inst, 1, 1, x, q)
            assert _rel_close(primal, dual), (trial, x)
            counts[1] += 1
    # type 2 on matching-feasible pattern instances, risk-neutral and
    # under a CVaR blend
    blend = RiskSpec(0.5, 0.9)
    while counts[2] < 100:
        for p_idx in (0, 1, 2):
            inst = make_pattern_instance(bench.TYPE2_PATTERNS[p_idx],
                                         seed=int(rng.integers(0, 50)))
            for bits in itertools.product((0.0, 1.0), repeat=3):
                x = np.array(bits)
                if not is_nonempty(inst, AmbiguityType.TYPE2, x):
                    continue
                q = rng.normal(size=inst.K) * 60 - 60
                for risk in (None, blend):
                    primal = worst_case(inst, AmbiguityType.TYPE2, x, q, stage=2,
                                        risk=risk).value
                    dual = frozen_dual_value(inst, 2, 1, x, q, risk=risk)
                    assert _rel_close(primal, dual), (p_idx, bits, risk)
                counts[2] += 1
    print(f"\nACCEPTANCE 5 PASS: inner-max LP equals frozen dual reformulation "
          f"value at {counts[1]}+{counts[2]} random (x, q) pairs, the type 2 ones "
          f"also under the CVaR blend (0.5, 0.9) (1e-6)")


def test_criterion_6_mccormick_exactness():
    rng = np.random.default_rng(66)
    n = 10_000
    L = rng.uniform(-100, 80, n)
    U = L + rng.uniform(0.0, 150, n)
    b = (rng.random(n) < 0.5).astype(float)
    y = rng.uniform(L, U)
    lo = np.maximum(L * b, y - U * (1 - b))
    hi = np.minimum(U * b, y - L * (1 - b))
    assert np.all(hi - lo <= 1e-10)
    assert np.allclose(lo, b * y, atol=1e-10)
    print(f"\nACCEPTANCE 6 PASS: envelope interval collapses to b*y at all "
          f"{n} random binary/continuous pairs")


def test_criterion_7_psd_compliance():
    inst = make_pattern_instance(bench.TYPE3_PATTERNS[0], seed=1)
    results = {}
    for mode, tol in (("lb", 1e-6), ("ub", 1e-9)):
        pool = CutPool(inst.T, inst.K)
        cfg = SddipConfig(max_iters=4, seed=0, bound_mode=mode)
        oracle = StageOracle(inst, 3, cfg, pool)
        for _ in range(3):
            _, states = forward_pass(oracle)
            backward_pass(oracle, states)
        sol, lay, blocks = oracle._solve_compiled(1, 0, np.zeros(inst.I), None)
        lam_mins = [min_eigenpair(sol.x[b.cols])[0] for b in blocks]
        for lam in lam_mins:
            assert lam >= -tol, (mode, lam)
        results[mode] = min(lam_mins)
    print(f"\nACCEPTANCE 7 PASS: terminal block eigenvalues lb>={results['lb']:.1e}"
          f" (tol -1e-6), ub>={results['ub']:.1e} (tol -1e-9)")


def test_criterion_8_risk_reduction_and_monotonicity():
    # zero blend weight reproduces the risk-neutral objective
    for ttype, suite in PATTERN_SUITES.items():
        for pat in suite:
            inst = make_pattern_instance(pat, seed=1)
            neutral = enumerate_two_stage(inst, ttype, risk=False)
            risky = enumerate_two_stage(inst, ttype, risk=True)  # lambda = 0
            assert abs(neutral.objective - risky.objective) <= 1e-8 * max(
                1.0, abs(neutral.objective)), pat.name
    # full decomposition agreement for a type-1 and a type-2 pattern
    for ttype, pat in ((1, bench.TYPE1_PATTERNS[0]), (2, bench.TYPE2_PATTERNS[0])):
        inst = make_pattern_instance(pat, seed=1)
        cfg_n = SddipConfig(max_iters=12, seed=2, risk=False)
        cfg_r = SddipConfig(max_iters=12, seed=2, risk=True)
        rep_n = run(inst, ttype, cfg_n)
        rep_r = run(inst, ttype, cfg_r)
        assert abs(rep_n.ub_estimate - rep_r.ub_estimate) <= 1e-8 * max(
            1.0, abs(rep_n.ub_estimate))
    # CVaR monotonicity in the blend weight via the enumeration oracle
    grids = []
    for ttype, pat in ((1, bench.TYPE1_PATTERNS[0]), (2, bench.TYPE2_PATTERNS[0]),
                       (3, bench.TYPE3_PATTERNS[0])):
        base = make_pattern_instance(pat, seed=1)
        vals = []
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            inst = replace_fields(base, risk_lambda=np.full(2, lam),
                                  risk_alpha=np.full(2, 0.9))
            vals.append(enumerate_two_stage(inst, ttype, risk=True).objective)
        assert all(b >= a - 1e-9 * max(1.0, abs(a))
                   for a, b in zip(vals, vals[1:])), (ttype, vals)
        grids.append(vals)
    print("\nACCEPTANCE 8 PASS: zero-weight risk builds match neutral (1e-8 rel"
          " on 11 patterns); objective nondecreasing in the blend weight")


def _brute_force_nonempty_type1(inst, x, stage=2):
    xi = inst.stage_support(stage)
    K = xi.shape[0]
    F = np.vstack([np.ones(K), xi.T, (xi.T) ** 2])
    l, u = type1_bounds(inst, x)
    nrow = F.shape[0]
    c = np.concatenate([np.zeros(K), np.ones(2 * nrow)])
    A_ub = np.block([
        [-F, -np.eye(nrow), np.zeros((nrow, nrow))],
        [F, np.zeros((nrow, nrow)), -np.eye(nrow)],
    ])
    b_ub = np.concatenate([-l, u])
    res = linprog(c, A_ub=A_ub, b_ub=b_ub,
                  bounds=[(0, None)] * (K + 2 * nrow), method="highs")
    return res.status == 0 and res.fun <= 1e-9


def test_criterion_9_empty_detection_and_regime():
    rng = np.random.default_rng(99)
    agreements = 0
    base = {}
    for trial in range(1000):
        key = (int(rng.integers(0, 25)), int(rng.integers(1, 3)))
        if key not in base:
            base[key] = generate_instance(700 + key[0], 2, 3, key[1], 6,
                                          0.5 + 0.04 * key[0])
        inst = replace_fields(
            base[key],
            eps_mu=rng.uniform(0.0, 12.0, base[key].J),
            eps_S_lo=rng.uniform(0.0, 1.0, base[key].J),
            eps_S_hi=1.0 + rng.uniform(0.0, 1.0, base[key].J),
        )
        x = (rng.random(3) < 0.5).astype(float)
        assert is_nonempty(inst, AmbiguityType.TYPE1, x) == \
            _brute_force_nonempty_type1(inst, x)
        agreements += 1
    assert agreements == 1000
    # low-variance regime: decision-inflated windows become unsatisfiable
    empty_flags = []
    full_flags = []
    for seed in (1, 2, 3, 4):
        lo = generate_instance(seed, 2, 2, 8, 30, 0.2)
        hi = generate_instance(seed, 2, 2, 8, 30, 1.0)
        empty_flags.append(not is_nonempty(lo, AmbiguityType.TYPE1, np.ones(2)))
        full_flags.append(is_nonempty(hi, AmbiguityType.TYPE1, np.ones(2)))
    assert all(empty_flags) and all(full_flags)
    rep = run(generate_instance(1, 3, 2, 8, 10, 0.2), 1, SddipConfig(max_iters=6))
    assert rep.status == "Unbounded"
    print("\nACCEPTANCE 9 PASS: emptiness agrees with the brute-force "
          "feasibility LP on 1000 configurations; low-variance sweeps "
          "reproduce the empty-set regime (and report Unbounded)")


def test_criterion_10_monotone_lb_and_determinism():
    runs = [
        (1, generate_instance(100, 2, 3, 1, 10, 0.8), "exact"),
        (2, make_pattern_instance(bench.TYPE2_PATTERNS[0], seed=1), "exact"),
        (3, make_pattern_instance(bench.TYPE3_PATTERNS[0], seed=1), "lb"),
        (3, make_pattern_instance(bench.TYPE3_PATTERNS[0], seed=1), "ub"),
    ]
    for ttype, inst, mode in runs:
        cfg = SddipConfig(max_iters=10, seed=7, bound_mode=mode)
        rep1 = run(inst, ttype, cfg)
        rep2 = run(inst, ttype, cfg)
        lbs = rep1.lb_per_iter
        assert all(b >= a - 1e-9 * max(1.0, abs(a))
                   for a, b in zip(lbs, lbs[1:])), (ttype, mode)
        assert rep1.to_json() == rep2.to_json(), (ttype, mode)
    print("\nACCEPTANCE 10 PASS: lower bounds nondecreasing on every run; "
          "identical seeds give byte-identical deterministic reports")

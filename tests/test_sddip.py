import dataclasses
import functools
import itertools
import json

import numpy as np
import pytest

from ddro import lpmilp, misdp, reformulate, sddip
from ddro.ambiguity import AmbiguityType, EmptyAmbiguity, RiskSpec, is_nonempty
from ddro.bench import (TYPE1_PATTERNS, TYPE2_PATTERNS, TYPE3_PATTERNS, exact_value_function,
                        make_pattern_instance, stretch_to_three_stages, terminal_value)
from ddro.linalg import SymMatrix
from ddro.lpmilp import BINARY, INTEGER, OPTIMAL, LinearModel, round_integral, solve_milp
from ddro.model import (BUDGET_STATE_TOL, budget_states, build_stage_block, generate_instance,
                        replace_fields, zero_lambda)
from ddro.reformulate import DualAtBound, add_cut_rows, build_stage
from ddro.sddip import (Cut, CutPool, SddipConfig, StageOracle, backward_pass,
                        evaluate_policy, forward_pass, lagrangian_dual, run)
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


def _one_by_one(evaluate):
    """A lockstep evaluator from a one-search evaluator evaluate(pi)."""
    return lambda steps: [evaluate(pi) for _, pi in steps]


def test_lagrangian_dual_one_dim_toy():
    # Q(0) = 5, Q(1) = 3: dual optimum at x_hat = 1 reaches 3 (pi = -2 family)
    q = {0: 5.0, 1: 3.0}

    def evaluate(pi):
        vals = {z: q[z] - pi[0] * z for z in (0, 1)}
        z_star = min(vals, key=lambda z: (vals[z], z))
        return vals[z_star], np.array([float(z_star)])

    ((pi, L),) = lagrangian_dual(_one_by_one(evaluate), [np.array([1.0])])
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
    # at pi = 0, L bounds the stage value at every state, from the one
    # relaxed solve and from the terminal batch alike
    inst = small_instance()
    pool = CutPool(inst.T, inst.K)
    oracle = StageOracle(inst, 1, SddipConfig(), pool)
    ((L0, _),) = oracle.relaxed_values(2, [(0, np.zeros(3))])
    batch = oracle.relaxed_values(2, [(k, np.zeros(3)) for k in range(inst.K)])
    assert abs(batch[0][0] - L0) <= 1e-9 * max(1.0, abs(L0))
    for bits in itertools.product((0.0, 1.0), repeat=3):
        for k, (L, _) in enumerate(batch):
            direct = oracle.solve_stage(2, k, np.array(bits)).value
            assert L <= direct + 1e-9
            if k == 0:
                assert L0 <= direct + 1e-9


def test_lagrangian_dual_that_stops_short_still_gives_a_valid_cut():
    # h(x_hat) is too high for the subgradient steps to reach x_hat, so the
    # search takes all its steps and ends below the dual's maximum h(x_hat)
    h, x_hat = np.array([0.0, 1000.0]), np.array([1.0])
    states = np.array([[0.0], [1.0]])
    visited = []

    def evaluate(pi):  # L(pi) = min_z h(z) - pi'z over the binary states z
        s = int(np.argmin(h - states @ pi))
        visited.append(s)
        return float(h[s] - states[s] @ pi), states[s].copy()

    ((pi, L),) = lagrangian_dual(_one_by_one(evaluate), [x_hat])
    assert visited == [0] * (1 + sddip.SUBGRADIENT_ITERS)  # x_hat is never visited
    assert np.all(L + states @ pi <= h + 1e-9)  # a valid cut ...
    assert abs(L - np.min(h - states @ pi)) <= 1e-9  # ... whose L is L(pi)
    assert 0.0 < L + pi @ x_hat < h[1]  # ... and not tight


def _toy_searches(seed, count, dim=3):
    """count dual problems over binary states of dimension dim: stage
    values h_j and binary trial states x_hat_j.  In turn, x_hat_j is the
    minimizer of h_j (no step), a random state (a few steps), or a state
    far above the others (every step)."""
    rng = np.random.default_rng(seed)
    states = np.array(list(itertools.product((0.0, 1.0), repeat=dim)))
    hs, x_hats = [], []
    for j in range(count):
        h = rng.uniform(-1030.0, -970.0, len(states))
        s = int(np.argmin(h)) if j % 3 == 0 else int(rng.integers(len(states)))
        if j % 3 == 2:
            h[s] += 5000.0
        hs.append(h)
        x_hats.append(states[s].copy())
    return states, hs, x_hats


def test_lagrangian_dual_lockstep_equals_each_search_alone():
    # a batch returns, for each search, exactly the (pi, L) it returns
    # alone; each evaluator call gets the searches still active, in order
    states, hs, x_hats = _toy_searches(5, 7)

    def relaxed(j, pi):  # L(pi) = min_z h_j(z) - pi'z, the first minimizer
        vals = hs[j] - states @ pi
        s = int(np.argmin(vals))
        return float(vals[s]), states[s].copy()

    calls = []

    def batch(steps):
        calls.append([j for j, _ in steps])
        return [relaxed(j, pi) for j, pi in steps]

    together = lagrangian_dual(batch, x_hats)
    assert calls[0] == list(range(len(x_hats)))
    assert all(b and set(b) <= set(a) and b == sorted(b) for a, b in zip(calls, calls[1:]))
    assert len(calls) == 1 + sddip.SUBGRADIENT_ITERS  # the far searches take every step
    for j, x_hat in enumerate(x_hats):
        alone = []  # the evaluator calls of the search run alone

        def one(steps, j=j):
            alone.append(1)
            return [relaxed(j, pi) for _, pi in steps]

        ((pi, L),) = lagrangian_dual(one, [x_hat])
        assert np.array_equal(together[j][0], pi) and together[j][1] == L
        assert sum(j in c for c in calls) == len(alone)


def test_backward_pass_makes_only_relaxed_solves_and_tight_cuts():
    # every cut comes from relaxed solves, and each is tight at its binary
    # trial state: v + pi'x_hat is the stage value there.  A capacity of 20
    # makes the stage value depend on the state, so the search must step
    inst = small_instance(h=np.full((2, 3), 20.0))
    oracle = StageOracle(inst, 1, SddipConfig(), CutPool(inst.T, inst.K))
    x_hat = (0, 1, 0)
    stage_solves, dual_solves = oracle.stage_solves, oracle.dual_solves
    backward_pass(oracle, {2: [x_hat]})
    assert oracle.dual_solves > dual_solves
    assert oracle.stage_solves - stage_solves == oracle.dual_solves - dual_solves
    for k in range(inst.K):
        (cut,) = oracle.pool.cuts[2][k]
        value = oracle.solve_stage(2, k, np.array(x_hat, dtype=float)).value
        assert abs(cut.v + cut.pi @ np.array(x_hat) - value) <= 1e-9


def test_terminal_batch_adds_the_cuts_of_searches_run_one_by_one():
    # the lockstep backward pass adds, per realization and in trial-state
    # order, the cut each search returns when run alone on a fresh oracle
    inst = small_instance(h=np.full((2, 3), 20.0))
    oracle = StageOracle(inst, 1, SddipConfig(), CutPool(inst.T, inst.K))
    states = [(0, 1, 0), (1, 1, 0), (0, 0, 1)]
    backward_pass(oracle, {2: states})
    alone = StageOracle(inst, 1, SddipConfig(), CutPool(inst.T, inst.K))
    for k in range(inst.K):
        assert len(oracle.pool.cuts[2][k]) == len(states)
        for x_hat, cut in zip(states, oracle.pool.cuts[2][k]):
            ((pi, v),) = lagrangian_dual(
                _one_by_one(lambda p: alone.relaxed_values(2, [(k, p)])[0]), [x_hat])
            assert np.array_equal(cut.pi, pi) and cut.v == v
    assert oracle.dual_solves == alone.dual_solves


def test_policy_evaluation_caches_each_batched_terminal_solve():
    # at T = 2 the K terminal solves of the first-stage state run as one
    # batch, each cached under solve_stage's key: solve_stage then hits
    # for every k and returns what the same batch on a fresh oracle
    # returns, at the value of a plain MILP solve of the model
    inst = small_instance()
    oracle = StageOracle(inst, 1, SddipConfig(), CutPool(inst.T, inst.K))
    evaluate_policy(oracle, np.random.default_rng(0))
    x = np.array(oracle.solve_stage(1, 0, np.zeros(inst.I)).x_bits, dtype=float)
    solves = oracle.stage_solves
    assert solves == 1 + inst.K
    fresh = StageOracle(inst, 1, SddipConfig(), CutPool(inst.T, inst.K))
    refs = fresh.solve_stages(inst.T, x, range(inst.K))
    for k, ref in enumerate(refs):
        sol = oracle.solve_stage(inst.T, k, x)
        assert oracle.stage_solves == solves
        assert sol.value == ref.value and sol.x_bits == ref.x_bits
        model, _, _ = fresh._stage_model(inst.T, k, x, None, fresh.dual_bound.value)
        plain = solve_milp(model).objective
        assert abs(sol.value - plain) <= 1e-9 * max(1.0, abs(plain))
    assert fresh.stage_solves == inst.K


# (stage_solves, dual_solves) of these runs at SddipConfig(max_iters=10),
# with every terminal solve on its own
RUN_COUNTERS = (
    ("small", lambda: small_instance(), (26, 18)),
    ("capacity-20", lambda: small_instance(h=np.full((2, 3), 20.0)), (26, 18)),
    ("three-stage", lambda: _wide_windows(generate_instance(3, 3, 2, 1, 3, 0.8)), (23, 12)),
)


@pytest.mark.parametrize("label, make, counters", RUN_COUNTERS,
                         ids=[case[0] for case in RUN_COUNTERS])
def test_batched_terminal_solves_keep_the_run_counters(label, make, counters):
    rep = run(make(), 1, SddipConfig(max_iters=10))
    assert (rep.stage_solves, rep.dual_solves) == counters


def test_an_infeasible_terminal_batch_raises_as_one_solve_does(monkeypatch):
    # a row no copy z can meet makes realization 1 infeasible: the batches
    # that hold it raise what solve_stage raises for it
    inst = small_instance()
    oracle = StageOracle(inst, 1, SddipConfig(), CutPool(inst.T, inst.K))
    stage_model = oracle._stage_model

    def infeasible_at_k1(t, k, *args):
        model, lay, blocks = stage_model(t, k, *args)
        if k == 1:
            model.add_row({int(lay.z_copy[0]): 1.0}, ">=", 2.0)
        return model, lay, blocks

    monkeypatch.setattr(oracle, "_stage_model", infeasible_at_k1)
    x = np.zeros(inst.I)
    message = "stage 2 solve returned Infeasible"
    with pytest.raises(RuntimeError, match=message):
        oracle.solve_stage(2, 1, x)
    with pytest.raises(RuntimeError, match=message):
        oracle.solve_stages(2, x, range(inst.K))
    with pytest.raises(RuntimeError, match=message):
        oracle.relaxed_values(2, [(k, np.zeros(inst.I)) for k in range(inst.K)])
    assert not oracle._stage_cache


def test_a_terminal_batch_that_does_not_close_at_its_root_ends_batching(monkeypatch):
    # at capacity 40 some relaxed terminal MILPs of this instance need
    # more than the root as a batch of two: that batch gives no solution,
    # and the oracle then solves every terminal model alone, as a run that
    # never batches does
    inst = generate_instance(3, 2, 4, 3, 3, 0.8, capacity=40.0)
    config = SddipConfig(max_iters=1)
    batches = []
    solve_milps = sddip.solve_milps
    monkeypatch.setattr(sddip, "solve_milps",
                        lambda models: batches.append(solve_milps(models)) or batches[-1])
    rep = run(inst, 1, config)
    assert len(batches) > 1 and batches[-1] is None
    assert all(sols is not None for sols in batches[:-1])
    monkeypatch.setattr(sddip, "solve_milps", lambda models: None)
    alone = run(inst, 1, config)
    # solved alone, a pinned terminal model is split on its states
    assert _without_counters(rep) == _without_counters(alone)
    assert rep.counters["split_solves"] < alone.counters["split_solves"]


def _without_counters(report):
    doc = json.loads(report.to_json())
    doc.pop("counters")
    return doc


def test_terminal_solves_take_the_batch_path_alone(monkeypatch):
    # solve_stage and relaxed_values at t = T, one job each, give what the
    # batch entry points (solve_stages, relaxed_values) give for all K; a
    # batch makes no one-model solve (_solve_once), a single job makes one
    stages = []
    solve_once = StageOracle._solve_once
    monkeypatch.setattr(StageOracle, "_solve_once",
                        lambda self, t, *a: stages.append(t) or solve_once(self, t, *a))
    inst = small_instance()
    oracle, batch = (StageOracle(inst, 1, SddipConfig(), CutPool(inst.T, inst.K))
                     for _ in range(2))
    x, pi = np.array([0.0, 1.0, 0.0]), np.array([40.0, -25.0, 10.0])
    pinned = batch.solve_stages(inst.T, x, range(inst.K))
    relaxed = batch.relaxed_values(inst.T, [(k, pi) for k in range(inst.K)])
    assert stages == []
    for k in range(inst.K):
        sol, ((L, z),) = oracle.solve_stage(inst.T, k, x), oracle.relaxed_values(inst.T, [(k, pi)])
        assert (sol.value, sol.x_bits) == (pinned[k].value, pinned[k].x_bits)
        assert L == relaxed[k][0] and np.array_equal(z, relaxed[k][1])
    assert stages == [inst.T] * (2 * inst.K) and oracle.stage_solves == batch.stage_solves
    assert oracle.dual_solves == batch.dual_solves == inst.K
    oracle.solve_stage(1, 0, np.zeros(inst.I))
    assert stages[2 * inst.K:] == [1]


def _three_stage_instance():
    """The T = 3, I = 3, K = 3 Type 1 instance of the multi_stage recipe."""
    return generate_instance(1, 3, 3, 1, 3, 0.3, eps_mu=40, eps_S_lo=0.05, eps_S_hi=3.0)


STAGE_TWO_CASES = (
    ("type1", _three_stage_instance, 1, "exact"),
    ("type3-ub", lambda: stretch_to_three_stages(
        make_pattern_instance(TYPE3_PATTERNS[0], seed=1, K=4)), 3, "ub"),
)


@pytest.mark.parametrize("label, make, ttype, mode", STAGE_TWO_CASES,
                         ids=[case[0] for case in STAGE_TWO_CASES])
def test_lockstep_searches_below_the_terminal_stage_add_the_cuts_of_searches_alone(
        monkeypatch, label, make, ttype, mode):
    # a backward pass over a T = 3 forward pass's trial states adds, per
    # stage, realization and trial state, the cut each search returns when
    # run alone, with the same solves; stage 2's searches run in lockstep
    inst, config = make(), SddipConfig(bound_mode=mode)
    batches = []
    solve_batch = StageOracle._solve_batch
    monkeypatch.setattr(StageOracle, "_solve_batch",
                        lambda self, t, jobs: batches.append((t, len(jobs)))
                        or solve_batch(self, t, jobs))
    oracle, alone = (StageOracle(inst, ttype, config, CutPool(inst.T, inst.K))
                     for _ in range(2))
    _, trial_states = forward_pass(oracle, 2, np.random.default_rng(0))
    forward_pass(alone, 2, np.random.default_rng(0))
    batches.clear()
    backward_pass(oracle, trial_states)
    assert (2, len(trial_states[2]) * inst.K) in batches  # stage 2's first step
    steps_at_two = sum(t == 2 for t, _ in batches)
    for t in (3, 2):
        for x_hat in trial_states[t]:
            for k in range(inst.K):
                ((pi, v),) = lagrangian_dual(
                    _one_by_one(lambda p: alone.relaxed_values(t, [(k, p)])[0]), [x_hat])
                alone.pool.add(t, k, Cut(v, pi))
    assert steps_at_two > 1 or not oracle.batches(2)  # stage 2's searches take steps
    assert oracle.pool.num_cuts(2) == alone.pool.num_cuts(2) > 0
    assert oracle.pool.num_cuts(3) == alone.pool.num_cuts(3) > 0
    for (t, k, mine), (t_alone, k_alone, cut) in zip(oracle.pool.all_cuts(),
                                                     alone.pool.all_cuts()):
        assert (t, k) == (t_alone, k_alone)
        assert np.array_equal(mine.pi, cut.pi) and mine.v == cut.v
    assert (oracle.stage_solves, oracle.dual_solves) == (alone.stage_solves, alone.dual_solves)


def _run_passes(oracle, iterations):
    rng = np.random.default_rng(0)
    for _ in range(iterations):
        _, trial_states = forward_pass(oracle, 2, rng)
        backward_pass(oracle, trial_states)


def test_a_flagged_block_of_a_stage_two_batch_probes_from_its_batch_solution(monkeypatch):
    # the audit flags the second block of the first stage-2 batch: the
    # probe at 10x the big-M finds a flat face, the batch solution stands,
    # and the flag costs the probe alone, as for the block solved alone;
    # every cut still under-approximates its stage value function
    inst = _three_stage_instance()
    plain = StageOracle(inst, 1, SddipConfig(), CutPool(inst.T, inst.K))
    _run_passes(plain, 3)
    flagged, blocks = [], []
    solve_batch = StageOracle._solve_batch

    def recording(self, t, jobs):
        out = solve_batch(self, t, jobs)
        if t == 2 and out is not None and not blocks:
            blocks.append(out[1][0].x)
        return out

    audit = reformulate.audit_dual_bounds

    def audit_once(lay, x):
        if not flagged and blocks and x is blocks[0]:
            flagged.append(1)
            return lay.audit_families[0]
        return audit(lay, x)

    monkeypatch.setattr(StageOracle, "_solve_batch", recording)
    monkeypatch.setattr(reformulate, "audit_dual_bounds", audit_once)
    oracle = StageOracle(inst, 1, SddipConfig(), CutPool(inst.T, inst.K))
    _run_passes(oracle, 3)
    assert flagged and oracle.dual_bound.escalations == 0 and oracle.batches(2)
    assert oracle.stage_solves == plain.stage_solves + 1
    assert oracle.dual_solves == plain.dual_solves
    assert oracle.pool.num_cuts(2) == plain.pool.num_cuts(2) > 0
    for (t, k, cut), (_, _, other) in zip(oracle.pool.all_cuts(), plain.pool.all_cuts()):
        assert np.array_equal(cut.pi, other.pi) and cut.v == other.v
        for bits in itertools.product((0.0, 1.0), repeat=inst.I):
            truth = exact_value_function(inst, 1, t, np.array(bits), k)
            assert cut.v + float(cut.pi @ np.array(bits)) <= truth + 1e-6 * max(1.0, abs(truth))


def test_an_escalation_inside_a_stage_two_batch_solves_the_rest_again(monkeypatch):
    # the audit flags the first block of the first stage-2 batch and no
    # probe finds a flat face: the big-M escalates from that block's batch
    # solution, and the other blocks are solved again, as one batch at the
    # new big-M; the cuts stay valid
    inst = _three_stage_instance()
    batches, flagged = [], []  # (stage, jobs, big-M, first block's x) of each batch
    solve_batch = StageOracle._solve_batch

    def recording(self, t, jobs):
        bound = self.dual_bound.value
        out = solve_batch(self, t, jobs)
        batches.append((t, len(jobs), bound, out[0][0].x if out else None))
        return out

    audit = reformulate.audit_dual_bounds

    def audit_once(lay, x):
        if not flagged and batches and batches[-1][0] == 2 and x is batches[-1][3]:
            flagged.append(len(batches) - 1)
            return lay.audit_families[0]
        return audit(lay, x)

    monkeypatch.setattr(StageOracle, "_solve_batch", recording)
    monkeypatch.setattr(reformulate, "audit_dual_bounds", audit_once)
    monkeypatch.setattr(reformulate, "FLAT_FACE_REL", -1.0)
    oracle = StageOracle(inst, 1, SddipConfig(), CutPool(inst.T, inst.K))
    M = oracle.dual_bound.value
    _run_passes(oracle, 3)
    (at,) = flagged
    assert oracle.dual_bound.escalations == 1 and oracle.dual_bound.value == 10.0 * M
    t, jobs, bound, _ = batches[at]
    assert (t, bound) == (2, M) and jobs >= 3
    assert batches[at + 1][:3] == (2, jobs - 1, 10.0 * M)
    assert oracle.pool.num_cuts(2) > 0
    for t, k, cut in oracle.pool.all_cuts():
        for bits in itertools.product((0.0, 1.0), repeat=inst.I):
            truth = exact_value_function(inst, 1, t, np.array(bits), k)
            assert cut.v + float(cut.pi @ np.array(bits)) <= truth + 1e-6 * max(1.0, abs(truth))


def test_a_type3_ub_batch_checks_each_block_for_psd(monkeypatch):
    # stage-2 "ub" models branch, so their batches do not close at the
    # root; with a batch that returns each model's own solution, every
    # block's PSD blocks are checked, as a solve of one model checks them
    inst = stretch_to_three_stages(make_pattern_instance(TYPE3_PATTERNS[0], seed=1, K=4))
    oracle = StageOracle(inst, 3, SddipConfig(bound_mode="ub"), CutPool(inst.T, inst.K))
    monkeypatch.setattr(sddip, "solve_milps", lambda models: [solve_milp(m) for m in models])
    audited = []
    audit = misdp.audit_inner_psd
    monkeypatch.setattr(misdp, "audit_inner_psd",
                        lambda blocks, x: audited.append((len(blocks), x)) or audit(blocks, x))
    x = np.array([0.0, 0.0, 1.0])
    sols = oracle.solve_stages(2, x, range(inst.K))
    assert oracle.batches(2) and oracle.stage_solves == inst.K
    assert [n for n, _ in audited] == [2] * inst.K
    alone = StageOracle(inst, 3, SddipConfig(bound_mode="ub"), CutPool(inst.T, inst.K))
    for k, (sol, (_, bx)) in enumerate(zip(sols, audited)):
        lay = oracle._compiled[(2, oracle.dual_bound.value)].lay
        assert sddip._bits(round_integral(bx, lay.x)) == sol.x_bits
        # the block's route, a plain MILP solve, on a fresh build of its model
        model, _, _ = alone._stage_model(2, k, x, None, alone.dual_bound.value)
        ref = solve_milp(model)
        assert sol.value == ref.objective
        assert sol.x_bits == sddip._bits(round_integral(ref.x, lay.x))
        split = alone.solve_stage(2, k, x).value  # split on its states
        assert abs(sol.value - split) <= 1e-9 * max(1.0, abs(split))


def test_a_stage_two_batch_that_fails_at_its_root_ends_batching_for_stage_two_only(
        monkeypatch):
    # the first stage-2 batch gives no solution: stage 2 then solves one
    # model at a time, terminal batches go on, and the report equals that
    # of a run in which every batch closes
    inst, config = _three_stage_instance(), SddipConfig(max_iters=10)
    ref = run(inst, 1, config)
    stages, calls = [], []  # the stage of each batch; (stage, closed) of each
    solve_batch = StageOracle._solve_batch
    monkeypatch.setattr(StageOracle, "_solve_batch",
                        lambda self, t, jobs: stages.append(t) or solve_batch(self, t, jobs))
    solve_milps = sddip.solve_milps

    def failing_first_at_two(models):
        t = stages[-1]
        sols = None if t == 2 and not calls.count((2, False)) else solve_milps(models)
        calls.append((t, sols is not None))
        return sols

    monkeypatch.setattr(sddip, "solve_milps", failing_first_at_two)
    rep = run(inst, 1, config)
    assert [c for c in calls if c[0] == 2] == [(2, False)]
    assert (3, True) in calls[calls.index((2, False)):]
    assert all(closed for t, closed in calls if t == 3)
    # the stage-2 models solved alone are split on their states
    assert _without_counters(rep) == _without_counters(ref)
    assert rep.counters["split_solves"] > ref.counters["split_solves"]


def test_oracle_worst_case_is_the_direct_worst_case_computed_once_per_key(monkeypatch):
    inst = _three_stage_instance()
    oracle = StageOracle(inst, 1, SddipConfig(risk=True), CutPool(inst.T, inst.K))
    computed = []
    worst_case = sddip.worst_case
    monkeypatch.setattr(sddip, "worst_case",
                        lambda *a, stage, **kw: computed.append(stage)
                        or worst_case(*a, stage=stage, **kw))
    x, q = np.array([1.0, 0.0, 0.0]), np.array([-900.0, -1500.0, -2400.0])
    first = oracle.worst_case(2, x, q)
    direct = worst_case(inst, oracle.ttype, x, q, stage=2, risk=oracle.risk_spec(1))
    assert first.value == direct.value and np.array_equal(first.p, direct.p)
    assert np.array_equal(first.q_cvar, direct.q_cvar)
    assert oracle.worst_case(2, x.copy(), list(q)) is first
    assert computed == [2]
    oracle.worst_case(2, x, q + 1.0)
    oracle.worst_case(3, x, q)
    oracle.worst_case(2, np.array([0.0, 1.0, 0.0]), q)
    oracle.worst_case(2, x, q)
    assert computed == [2, 2, 3, 2]


# (stage_solves, dual_solves) of the multi_stage benchmark cases at seed 1
MULTI_STAGE_COUNTERS = (
    ((3, 3, 6), None, (50, 30)),
    ((4, 3, 3), None, (38, 21)),
    ((4, 3, 3), dict(risk_lambda=0.5, risk_alpha=0.9), (38, 21)),
    ((5, 3, 3), None, (50, 27)),
    ((3, 5, 3), None, (26, 15)),
)


@pytest.mark.parametrize("shape, risk, counters", MULTI_STAGE_COUNTERS,
                         ids=["T%d-I%d-K%d" % c[0] + ("-risk" if c[1] else "")
                              for c in MULTI_STAGE_COUNTERS])
def test_batched_stage_solves_keep_the_multi_stage_counters(shape, risk, counters):
    T, I, K = shape
    inst = generate_instance(1, T, I, 1, K, 0.3, eps_mu=40, eps_S_lo=0.05, eps_S_hi=3.0)
    config = SddipConfig(max_iters=30, seed=1, **(risk or {}))
    rep = run(inst, 1, config)
    assert (rep.stage_solves, rep.dual_solves) == counters


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


def _type3_lb_oracle():
    inst = make_pattern_instance(TYPE3_PATTERNS[0], seed=1)
    return inst, StageOracle(inst, 3, SddipConfig(bound_mode="lb"), CutPool(inst.T, inst.K))


def test_type3_lb_policy_evaluation_reuses_the_forward_stage_one_solve(monkeypatch):
    # the forward pass's stage-1 cut loop appends eigen rows; its solution
    # is cached under the model it solved, rows included, so evaluating
    # the policy right after runs no stage-1 cut loop
    inst, oracle = _type3_lb_oracle()
    loops = []
    outer = misdp.solve_misdp_outer
    monkeypatch.setattr(misdp, "solve_misdp_outer",
                        lambda *a: loops.append(1) or outer(*a))
    rng = np.random.default_rng(0)
    sol1, _ = forward_pass(oracle, 1, rng)
    assert len(loops) == 1 and oracle._eigen_rows[1]
    evaluate_policy(oracle, rng)
    assert len(loops) == 1
    x0 = np.zeros(inst.I)
    assert oracle.solve_stage(1, 0, x0) is sol1
    # a fresh solve of the model with the stored rows replayed, split on
    # its states as the oracle splits it, appends none and returns the
    # cached solution; a loop of plain MILP rounds reaches its value
    model, lay, blocks = oracle._stage_model(1, 0, x0, None, oracle.dual_bound.value)
    rows = model.num_rows
    plain = outer(model.copy(), blocks).objective
    fresh = outer(model, blocks, functools.partial(oracle._split, 1, x0, lay.x))
    assert model.num_rows == rows
    assert float(fresh.objective) == sol1.value
    assert sddip._bits(round_integral(fresh.x, lay.x)) == sol1.x_bits
    assert abs(plain - sol1.value) <= 1e-9 * max(1.0, abs(plain))


def test_type3_lb_stage_cache_keys_on_the_accepted_solve_not_its_probe(monkeypatch):
    # an audit that flags once makes solve_with_dual_bound probe at 10x
    # the big-M; the probe's cut loop appends rows after the accepted
    # solve at M, whose solution is stored at the M solve's row count.
    # The probe here replays the M solve's rows and needs no new one, so
    # its loop is made to append one more valid cut, as a loop on another
    # big-M may
    inst, oracle = _type3_lb_oracle()
    audit = reformulate.audit_dual_bounds
    flagged = []

    def audit_once(lay, x):
        if not flagged:
            flagged.append(1)
            return lay.audit_families[0]
        return audit(lay, x)

    outer = misdp.solve_misdp_outer
    loops = []

    def outer_with_a_cut_in_the_probe(model, blocks, split):
        sol = outer(model, blocks, split)
        loops.append(1)
        if len(loops) == 2:
            misdp._append_cut((model,), blocks[0], np.ones(blocks[0].dim))
        return sol

    monkeypatch.setattr(reformulate, "audit_dual_bounds", audit_once)
    monkeypatch.setattr(misdp, "solve_misdp_outer", outer_with_a_cut_in_the_probe)
    counts = []  # the eigen rows of each model solved
    solve_once = oracle._solve_once

    def counting(*args):
        out = solve_once(*args)
        counts.append(out[3])
        return out

    monkeypatch.setattr(oracle, "_solve_once", counting)
    x0 = np.zeros(inst.I)
    sol = oracle.solve_stage(1, 0, x0)
    assert flagged and oracle.dual_bound.escalations == 0
    at_m, after_probe = counts  # the solve at M, then the probe at 10x M
    assert at_m < after_probe == len(oracle._eigen_rows[1])
    assert oracle._stage_cache == {(1, 0, (0,) * inst.I, 0, at_m): sol}
    # a lookup with the probe's rows stored is another model: it solves
    solves = oracle.stage_solves
    again = oracle.solve_stage(1, 0, x0)
    assert oracle.stage_solves == solves + 1 and again is not sol
    assert oracle._stage_cache[(1, 0, (0,) * inst.I, 0, counts[-1])] is again


def _type3_lb_stretch_oracle():
    inst = stretch_to_three_stages(make_pattern_instance(TYPE3_PATTERNS[0], seed=1, K=4))
    return inst, StageOracle(inst, 3, SddipConfig(bound_mode="lb"), CutPool(inst.T, inst.K))


def test_type3_lb_psd_stages_run_one_search_after_another(monkeypatch):
    # a PSD stage of the "lb" route never batches: each relaxed solve runs
    # its own cut loop, whose eigen rows the next solve replays, so the
    # searches of stage 2 run one after another; the terminal stage batches
    inst, oracle = _type3_lb_stretch_oracle()
    assert [oracle.batches(t) for t in (1, 2, 3)] == [False, False, True]
    _, trial_states = forward_pass(oracle, 2, np.random.default_rng(0))
    calls, loops = [], []
    relaxed = oracle.relaxed_values
    monkeypatch.setattr(oracle, "relaxed_values",
                        lambda t, jobs: calls.append((t, len(jobs))) or relaxed(t, jobs))
    outer = misdp.solve_misdp_outer
    monkeypatch.setattr(misdp, "solve_misdp_outer", lambda *a: loops.append(1) or outer(*a))
    backward_pass(oracle, trial_states)
    at_two = [n for t, n in calls if t == 2]
    assert at_two and set(at_two) == {1} and len(loops) == sum(at_two)
    assert max(n for t, n in calls if t == 3) == len(trial_states[3]) * inst.K > 1


def test_type3_lb_stage_lookups_follow_the_solves_before_them(monkeypatch):
    # each stage-2 cut loop here appends a valid row (Z[0, 0] >= 0), so a
    # solve moves the row count of the next lookup: solve_stages looks each
    # k up after the solves before it, as solve_stage one k at a time does
    outer = misdp.solve_misdp_outer

    def appending(model, blocks, split):
        sol = outer(model, blocks, split)
        model.add_row({int(blocks[0].cols[0, 0]): 1.0}, ">=", 0.0)
        return sol

    monkeypatch.setattr(misdp, "solve_misdp_outer", appending)
    x = np.array([0.0, 0.0, 1.0])
    (_, batch), (_, alone) = _type3_lb_stretch_oracle(), _type3_lb_stretch_oracle()
    batch.solve_stage(2, 1, x)
    sols = batch.solve_stages(2, x, [0, 1])
    refs = [alone.solve_stage(2, k, x) for k in (1, 0, 1)][1:]
    assert batch.stage_solves == alone.stage_solves == 3
    assert [(s.value, s.x_bits) for s in sols] == [(r.value, r.x_bits) for r in refs]
    assert batch._stage_cache.keys() == alone._stage_cache.keys()


def test_type3_ub_dd_rows_are_written_once_per_compiled_model(monkeypatch):
    # the DD rows belong to the compiled "ub" stage model: a new cut
    # version re-extends it without writing them again
    inst = make_pattern_instance(TYPE3_PATTERNS[0], seed=1)
    oracle = StageOracle(inst, 3, SddipConfig(bound_mode="ub"), CutPool(inst.T, inst.K))
    calls = []
    add_dd = misdp.add_dd_inner_general
    monkeypatch.setattr(misdp, "add_dd_inner_general",
                        lambda *a: calls.append(1) or add_dd(*a))
    rng = np.random.default_rng(0)
    _, trial_states = forward_pass(oracle, 1, rng)
    backward_pass(oracle, trial_states)
    assert oracle.pool.num_cuts(2) > 0
    forward_pass(oracle, 1, rng)  # stage 1 again, under the second cut version
    assert oracle._compiled[(1, oracle.dual_bound.value)].cuts == oracle.pool.num_cuts(2)
    assert len(calls) == sum(1 for comp in oracle._compiled.values() if comp.blocks) == 1


def test_tree_evaluation_solves_the_children_of_each_state_once(monkeypatch):
    # the three stage-2 children of the first-stage state share one state,
    # whose terminal children are solved, as one batch, once
    inst = _three_stage_instance()
    oracle = StageOracle(inst, 1, SddipConfig(), CutPool(inst.T, inst.K))
    calls = []
    solve_stages = oracle.solve_stages

    def recording(t, x_prev, ks):
        out = solve_stages(t, x_prev, ks)
        calls.append((t, sddip._bits(x_prev), [sol.x_bits for sol in out]))
        return out

    monkeypatch.setattr(oracle, "solve_stages", recording)
    evaluate_policy(oracle, np.random.default_rng(0))
    (x1,), children = calls[0][2], calls[1][2]
    assert len(set(children)) < len(children)
    assert [(t, x) for t, x, _ in calls] == [(1, (0,) * inst.I), (2, x1), (3, children[0])]


def test_forward_pass_structure_two_stage():
    inst = small_instance()
    pool = CutPool(inst.T, inst.K)
    cfg = SddipConfig(num_paths=3)
    oracle = StageOracle(inst, 1, cfg, pool)
    rng = np.random.default_rng(0)
    sol1, trial_states = forward_pass(oracle, 3, rng)
    assert list(trial_states) == [2]
    assert trial_states[2] == [sol1.x_bits]
    assert np.isfinite(sol1.value)


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
    sol_a, states_a = forward_pass(oracle, 2, np.random.default_rng(1))
    sol_b, states_b = forward_pass(oracle, 2, np.random.default_rng(999))
    assert sol_a.value == sol_b.value
    assert states_a == states_b


def _record_forward_pass(monkeypatch, inst, num_paths):
    """forward_pass on a fresh oracle, recording the stage of each
    StageOracle.worst_case call, each ambiguity worst case it computes,
    each solve_stage call and each stage-model solve."""
    oracle = StageOracle(inst, 1, SddipConfig(), CutPool(inst.T, inst.K))
    seen = {"worst_case": [], "computed": [], "solve_stage": [], "model_solve": []}

    def recording(key, fn, stage_of):
        def wrapped(*args, **kw):
            seen[key].append(stage_of(*args, **kw))
            return fn(*args, **kw)
        return wrapped

    monkeypatch.setattr(oracle, "worst_case", recording(
        "worst_case", oracle.worst_case, lambda t, *a: t))
    monkeypatch.setattr(sddip, "worst_case", recording(
        "computed", sddip.worst_case, lambda *a, stage, **kw: stage))
    monkeypatch.setattr(oracle, "solve_stage", recording(
        "solve_stage", oracle.solve_stage, lambda t, *a: t))
    monkeypatch.setattr(oracle, "_solve_once", recording(
        "model_solve", oracle._solve_once, lambda t, *a: t))
    sol1, trial_states = forward_pass(oracle, num_paths, np.random.default_rng(0))
    return sol1, trial_states, seen


def test_two_stage_forward_pass_solves_stage_one_only(monkeypatch):
    # stage 2's decisions are no trial state at T = 2: no path is walked
    sol1, trial_states, seen = _record_forward_pass(monkeypatch, small_instance(), 3)
    assert seen["worst_case"] == seen["computed"] == []
    assert seen["solve_stage"] == [1] and set(seen["model_solve"]) == {1}
    assert trial_states == {2: [sol1.x_bits]}


def test_three_stage_forward_pass_stops_before_stage_three(monkeypatch):
    inst = _wide_windows(generate_instance(3, 3, 2, 1, 3, 0.8))
    sol1, trial_states, seen = _record_forward_pass(monkeypatch, inst, 4)
    assert seen["worst_case"] == [2] * 4
    assert seen["computed"] == [2]  # the four paths leave one state, one q
    assert seen["solve_stage"] == [1] + [2] * 4
    assert 3 not in seen["model_solve"]
    assert trial_states[2] == [sol1.x_bits]
    assert trial_states[3] and len(set(trial_states[3])) == len(trial_states[3])


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
        _, trial_states = forward_pass(oracle, 1, rng)
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
    sol0, states = forward_pass(oracle, 1, rng)
    backward_pass(oracle, states)
    sol1, _ = forward_pass(oracle, 1, rng)
    assert sol1.value >= sol0.value - 1e-9 * max(1.0, abs(sol0.value))


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


def test_risk_averse_three_stage_run_solves_to_the_risk_averse_value():
    # the CVaR blend moves the value at T = 3: the run meets the exact
    # risk-averse value, which is not the risk-neutral one
    from ddro.bench import exact_multistage_value

    inst = generate_instance(4, 3, 3, 1, 3, 0.3, eps_mu=40.0, eps_S_lo=0.05, eps_S_hi=3.0,
                             risk_lambda=0.5, risk_alpha=0.9)
    averse = exact_multistage_value(inst, 1, risk=True)
    neutral = exact_multistage_value(inst, 1)
    assert averse == pytest.approx(-7271.754, abs=1e-3)
    assert neutral == pytest.approx(-7301.758, abs=1e-3)
    rep = run(inst, 1, SddipConfig(risk=True))
    assert rep.status == "Optimal"
    for bound in (rep.lb_per_iter[-1], rep.ub_estimate):
        assert abs(bound - averse) <= 1e-6 * abs(averse)


def test_config_risk_override_runs_as_the_instance_blend():
    # risk_lambda and risk_alpha in the config turn the blend on and
    # replace the instance's values: the report is the one of a risk run
    # on an instance that carries them
    def make(**risk):
        return generate_instance(4, 3, 3, 1, 3, 0.3, eps_mu=40.0, eps_S_lo=0.05,
                                 eps_S_hi=3.0, **risk)

    base = make()
    assert np.all(base.risk_lambda == 0.0) and np.all(base.risk_alpha == 0.95)
    override = run(base, 1, SddipConfig(risk_lambda=0.5, risk_alpha=0.9)).to_json()
    blended = run(make(risk_lambda=0.5, risk_alpha=0.9), 1, SddipConfig(risk=True)).to_json()
    assert override == blended
    assert override != run(base, 1, SddipConfig()).to_json()
    # each override replaces its own value alone, at every stage but the last
    for cfg, spec in ((SddipConfig(risk_lambda=0.5, risk_alpha=0.9), RiskSpec(0.5, 0.9)),
                      (SddipConfig(risk_alpha=0.9), RiskSpec(0.0, 0.9)),
                      (SddipConfig(risk_lambda=0.5), RiskSpec(0.5, 0.95))):
        oracle = StageOracle(base, 1, cfg, CutPool(base.T, base.K))
        assert [oracle.risk_spec(t) for t in (1, 2, 3)] == [spec, spec, None]


def test_an_escalation_drops_the_stage_cache_and_the_kept_models(monkeypatch):
    # an escalation of the big-M is permanent for the run: every cached
    # solution and kept model was made at the old big-M, so both go, and a
    # lookup that hit before solves again
    inst = _three_stage_instance()
    oracle = StageOracle(inst, 1, SddipConfig(), CutPool(inst.T, inst.K))
    x0 = np.zeros(inst.I)
    first = oracle.solve_stage(1, 0, x0)
    assert oracle.solve_stage(1, 0, x0) is first
    M = oracle.dual_bound.value
    assert (1, M) in oracle._compiled
    audit = reformulate.audit_dual_bounds
    flagged = []

    def audit_once(lay, x):
        if not flagged:
            flagged.append(1)
            return lay.audit_families[0]
        return audit(lay, x)

    monkeypatch.setattr(reformulate, "audit_dual_bounds", audit_once)
    monkeypatch.setattr(reformulate, "FLAT_FACE_REL", -1.0)  # no probe finds a flat face
    stage_two = oracle.solve_stage(2, 0, first.x_bits)
    assert flagged and oracle.dual_bound.escalations == 1
    assert oracle._compiled == {}
    assert list(oracle._stage_cache.values()) == [stage_two]
    solves = oracle.stage_solves
    again = oracle.solve_stage(1, 0, x0)
    assert again is not first and oracle.stage_solves == solves + 1
    assert list(oracle._compiled) == [(1, 10.0 * M)]
    assert again.value == pytest.approx(first.value, rel=1e-9)


def test_single_stage_run_evaluates_its_one_stage():
    # at T = 1 stage 1 is the terminal stage: the policy's cost is its value
    inst = generate_instance(1, 1, 3, 1, 3, 0.3)
    rep = run(inst, 1, SddipConfig(max_iters=5))
    assert rep.status == "Optimal" and rep.ub_mode == "tree"
    assert rep.ub_estimate == rep.lb_per_iter[-1] == -2554.5


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
    # with a shorter subgradient search the cuts still close the gap
    from ddro.bench import enumerate_two_stage

    inst = generate_instance(100, 2, 3, 1, 10, 0.8)
    ref = enumerate_two_stage(inst, 1).objective
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


def test_type2_patterns_run_no_flat_face_probe(monkeypatch):
    # the hull rows leave the collinear supports' duals no free direction
    # to park at the big-M box, so no solve needs a probe
    oracles = []

    class Recording(StageOracle):
        def __init__(self, *args):
            super().__init__(*args)
            oracles.append(self)

    monkeypatch.setattr(sddip, "StageOracle", Recording)
    for pat in TYPE2_PATTERNS:
        for seed in (1, 2):
            rep = run(make_pattern_instance(pat, seed=seed), 2,
                      SddipConfig(max_iters=30, seed=seed))
            assert rep.status == "Optimal", (pat.name, seed)
            assert oracles[-1].dual_bound.probes == 0, (pat.name, seed)
            assert oracles[-1].dual_bound.escalations == 0, (pat.name, seed)
    assert len(oracles) == 6


def test_type2_hull_rows_keep_empty_sets_detected():
    # a support scaled down leaves the single-facility state (0, 0, 1)
    # with an empty set; the support is still collinear, so the model
    # carries hull rows, and the empty set still ends the run
    inst = make_pattern_instance(TYPE2_PATTERNS[0], seed=1)
    inst = replace_fields(inst, support=(inst.support[0], inst.support[1] * 0.6))
    assert not is_nonempty(inst, AmbiguityType.TYPE2, np.array([0.0, 0.0, 1.0]))
    m, _, _ = build_stage(inst, 2, 1, np.zeros(inst.I), inst.xi1())
    assert sum(name.startswith("hull_") for name in m.row_names) == 12
    rep = run(inst, 2, SddipConfig(max_iters=10, seed=1))
    assert (rep.status, rep.termination) == ("Unbounded", "empty_ambiguity_stage_2")


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
    DD copy ("ub"), the pool's cuts (add_cut_rows), the eigen rows, and
    the z-copy costs -pi."""
    inst = oracle.inst
    xi = inst.stage_support(t)[k]
    if t == inst.T:
        block = build_stage_block(inst, t, x_prev, xi)
        model, z = block.model, block.z_copy
    else:
        model, lay, blocks = build_stage(inst, int(oracle.ttype), t, x_prev, xi,
                                         risk=oracle.risk_spec(t), dual_bound=dual_bound)
        if oracle.config.bound_mode == "ub":
            model = misdp.add_dd_inner_general(model, blocks)
        add_cut_rows(model, lay, oracle.pool.rows_for_stage_model(t))
        for row in oracle._eigen_rows.get(t, []):
            model.add_row(row, ">=", 0.0)
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
        oracle._eigen_rows[1] = [
            blocks[b].quadratic_form_coeffs(rng.normal(size=blocks[b].dim))
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


def _stretched(pattern):
    return stretch_to_three_stages(make_pattern_instance(pattern, seed=1, K=4))


# (label, instance maker, ambiguity type, bound mode) of the split checks:
# the Type 1-3 pattern suites at K = 4, the two_stage benchmark's I = 6
# instance, and two T = 3 instances, whose stage 2 is intermediate
SPLIT_CASES = (
    *((f"p{p.name}", functools.partial(make_pattern_instance, p, seed=1, K=4), p.ttype, mode)
      for p in TYPE1_PATTERNS + TYPE2_PATTERNS + TYPE3_PATTERNS
      for mode in (("lb", "ub") if p.ttype == 3 else ("exact",))),
    ("t1-I6", lambda: generate_instance(1, 2, 6, 2, 4, 0.8), 1, "exact"),
    ("t1-T3", lambda: _three_stage_instance(), 1, "exact"),
    ("p3-1-T3", functools.partial(_stretched, TYPE3_PATTERNS[0]), 3, "lb"),
    ("p3-1-T3", functools.partial(_stretched, TYPE3_PATTERNS[0]), 3, "ub"),
)


@pytest.mark.parametrize("risk", (False, True), ids=("neutral", "risk"))
@pytest.mark.parametrize("label, make, ttype, mode", SPLIT_CASES,
                         ids=[f"{case[0]}-{case[3]}" for case in SPLIT_CASES])
def test_a_split_stage_solve_has_the_value_of_the_whole_milp(label, make, ttype, mode, risk):
    # every stage with a continuation, at the empty state and at the last
    # two states of a first-stage build, at the first and last realization;
    # the "lb" models carry the eigen rows of a forward pass
    inst = make()
    blend = dict(risk_lambda=0.5, risk_alpha=0.9) if risk else {}
    oracle = StageOracle(inst, ttype, SddipConfig(bound_mode=mode, **blend),
                         CutPool(inst.T, inst.K))
    if mode == "lb":
        forward_pass(oracle, 1, np.random.default_rng(0))
        assert oracle._eigen_rows
    before, checked = oracle.counters["split_solves"], 0
    for t in range(1, inst.T):
        x_prevs = [np.zeros(inst.I)]
        if t > 1:
            x_prevs += [np.array(x, dtype=float)
                        for x in budget_states(inst, t - 1, np.zeros(inst.I), 16)[-2:]]
        for x_prev in x_prevs:
            for k in sorted({0, len(inst.stage_support(t)) - 1}):
                model, lay, _ = oracle._stage_model(t, k, x_prev, None, oracle.dual_bound.value)
                split = oracle._split(t, x_prev, lay.x, model)
                whole = solve_milp(model).objective
                assert abs(split.objective - whole) <= 1e-9 * max(1.0, abs(whole))
                checked += 1
    assert checked == oracle.counters["split_solves"] - before > 0
    assert oracle.counters["split_fallbacks"] == 0


def _state_values(model, x_cols, states):
    """solve_milp's optimum of the model at each state, fixed by bounds."""
    values = []
    for state in states:
        fixed = model.copy()
        for col, b in zip(x_cols, state):
            fixed.set_bounds(int(col), float(b), float(b))
        values.append(solve_milp(fixed).objective)
    return values


@pytest.mark.parametrize("label, make, ttype, t", (
    ("terminal", small_instance, 1, 2),
    ("p2-1", lambda: make_pattern_instance(TYPE2_PATTERNS[0], seed=1, K=4), 2, 1)))
def test_a_split_stage_solve_decides_for_the_first_tied_state(label, make, ttype, t):
    # the value is the least state value, and the decision the first state
    # in budget_states order within SPLIT_TIE_REL of it; these models tie
    inst = make()
    oracle = StageOracle(inst, ttype, SddipConfig(), CutPool(inst.T, inst.K))
    x_prevs = ([np.zeros(inst.I)] if t == 1 else
               [np.array(x, dtype=float) for x in budget_states(inst, 1, np.zeros(inst.I), 16)])
    ties = 0
    for x_prev in x_prevs:
        for k in range(len(inst.stage_support(t))):
            model, lay, _ = oracle._stage_model(t, k, x_prev, None, oracle.dual_bound.value)
            states = budget_states(inst, t, x_prev, sddip.SPLIT_STATES)
            values = _state_values(model, lay.x, states)
            best = min(values)
            tied = [x for x, v in zip(states, values)
                    if v <= best + sddip.SPLIT_TIE_REL * max(1.0, abs(best))]
            sol = oracle.solve_stage(t, k, x_prev)
            assert sol.x_bits == tied[0]
            assert abs(sol.value - best) <= 1e-9 * max(1.0, abs(best))
            ties += len(tied) > 1
    assert ties and oracle.counters["split_fallbacks"] == 0


def test_a_split_reports_the_least_copy_value_and_the_first_tied_copy(monkeypatch):
    # copy values stubbed: the first copy within SPLIT_TIE_REL of the least
    # value gives the decision, and the least value is the objective
    inst = small_instance()
    oracle = StageOracle(inst, 1, SddipConfig(), CutPool(inst.T, inst.K))
    x0 = np.zeros(inst.I)
    model, lay, _ = oracle._stage_model(1, 0, x0, None, oracle.dual_bound.value)
    sols = lpmilp.solve_fixed_milps(model, lay.x, budget_states(inst, 1, x0, 16))
    best, tol = -1000.0, sddip.SPLIT_TIE_REL
    for first, picked in ((best * (1 - 0.5 * tol), 0), (best * (1 - 2 * tol), 1)):
        stub = [dataclasses.replace(sol, objective=v)
                for sol, v in zip(sols, (first, best, best + 1.0, best))]
        monkeypatch.setattr(sddip, "solve_fixed_milps", lambda *args, stub=stub: stub)
        split = oracle._split(1, x0, lay.x, model)
        assert split.objective == best and split.x is stub[picked].x


def _over_the_row(inst):
    """inst with facility 0's stage-1 cost at the cap of budget_states,
    above the tolerance of the MILP's budget row."""
    f = np.array(inst.f)
    f[0, 0] = inst.N + BUDGET_STATE_TOL * max(1.0, inst.N)
    return replace_fields(inst, f=f)


@pytest.mark.parametrize("failure", ("infeasible", "not-at-root"))
def test_a_failed_split_falls_back_to_the_whole_milp_and_ends_splitting_its_stage(
        monkeypatch, failure):
    # "infeasible": budget_states lists (1, 0, 0), which the budget row
    # rejects, so its copy and the batch are infeasible; "not-at-root": a
    # batch stubbed to give what one that does not close at its root
    # gives.  Either way the stage-1 solve takes the whole MILP's value,
    # stage 1 solves whole from then on, and stage 2 still splits
    inst = small_instance()
    if failure == "infeasible":
        inst = _over_the_row(inst)
        assert (1, 0, 0) in budget_states(inst, 1, np.zeros(inst.I), 16)
    else:
        fixed = sddip.solve_fixed_milps
        monkeypatch.setattr(sddip, "solve_fixed_milps",
                            lambda model, cols, values: None if len(values) == 4
                            else fixed(model, cols, values))
    oracle = StageOracle(inst, 1, SddipConfig(), CutPool(inst.T, inst.K))
    x0 = np.zeros(inst.I)
    model, _, _ = oracle._stage_model(1, 0, x0, None, oracle.dual_bound.value)
    sol = oracle.solve_stage(1, 0, x0)
    assert sol.value == solve_milp(model).objective
    assert oracle.counters == {"split_solves": 0, "split_blocks": 0, "split_fallbacks": 1}
    assert oracle.batches(1) and not oracle._splitting[1]
    oracle.solve_stage(2, 0, np.array(sol.x_bits, dtype=float))
    assert oracle.counters == {"split_solves": 1, "split_blocks": 3, "split_fallbacks": 1}
    oracle.pool.add(2, 0, Cut(-1e6, np.zeros(inst.I)))  # a new stage-1 model
    oracle.solve_stage(1, 0, x0)
    assert oracle.counters["split_fallbacks"] == 1 and oracle.stage_solves == 3


def test_a_stage_solve_with_too_many_states_solves_whole_without_enumerating_them():
    # I = 40 with every state in budget: the stage-1 solve lists no states
    # (budget_states stops past SPLIT_STATES) and solves the whole MILP;
    # the stage keeps splitting, and the failed listing is kept
    inst = replace_fields(generate_instance(1, 2, 40, 1, 2, 0.8), N=1e5)
    oracle = StageOracle(inst, 1, SddipConfig(), CutPool(inst.T, inst.K))
    x0 = np.zeros(inst.I)
    model, _, _ = oracle._stage_model(1, 0, x0, None, oracle.dual_bound.value)
    assert oracle.solve_stage(1, 0, x0).value == solve_milp(model).objective
    assert oracle._states == {(1, (0,) * inst.I): None} and oracle._splitting[1]
    assert oracle.counters == {"split_solves": 0, "split_blocks": 0, "split_fallbacks": 1}


def test_run_reports_its_split_and_probe_counters(monkeypatch):
    # on the Type 3 "lb" route of pattern 3-1 every split is a stage-1
    # cut-loop round at the empty state, over the 4 states of a one-build
    # budget; an audit that flags once runs one probe.  The counters are
    # deterministic and in to_json()
    inst = make_pattern_instance(TYPE3_PATTERNS[0], seed=1)
    audit = reformulate.audit_dual_bounds

    def solve():
        flagged = []

        def audit_once(lay, x):
            if not flagged:
                flagged.append(1)
                return lay.audit_families[0]
            return audit(lay, x)

        monkeypatch.setattr(reformulate, "audit_dual_bounds", audit_once)
        return run(inst, 3, SddipConfig(max_iters=3, bound_mode="lb"))

    rep = solve()
    counters = rep.counters
    assert set(counters) == {"split_solves", "split_blocks", "split_fallbacks", "dual_probes"}
    assert counters["split_solves"] > rep.iterations
    assert counters["split_blocks"] == 4 * counters["split_solves"]
    assert (counters["split_fallbacks"], counters["dual_probes"]) == (0, 1)
    assert json.loads(rep.to_json())["counters"] == counters
    assert solve().to_json() == rep.to_json()

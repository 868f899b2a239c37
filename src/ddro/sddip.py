"""Decomposition engine: sampled forward passes, backward passes that
price Lagrangian cuts, cut pooling, bound tracking, and termination.

A cut (v, pi) for the stage value function comes from relaxing a binary
copy of the incoming state: for ANY multiplier pi, the relaxed stage
value L(pi) satisfies Q(x, xi) >= L(pi) + pi'x for every binary x, so
early stopping of the dual search is always safe.  The dual itself is
maximized by subgradient ascent with best-iterate retention followed by
a finite cutting-plane polish; when the state dimension is small the
stage values of all binary states are enumerated (and cached) and the
dual reduces to one exact hypograph LP.

Upper bounds evaluate the current policy: exactly for two-stage runs
(first-stage cost plus the worst case over the exact terminal values),
by full support-tree recursion while the tree is small, and by
Monte-Carlo path sampling under the stage-wise worst-case distributions
otherwise; the mode is flagged in the report.

Forward-pass paths and per-realization dual solves are independent
work items; the cut pool is append-only and updated between passes.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import misdp
from .ambiguity import AmbiguityType, EmptyAmbiguity, RiskSpec, worst_case, is_nonempty
from .lpmilp import OPTIMAL, LinearModel, round_integral, solve_lp, solve_milp
from .model import Instance, build_stage_block
from .reformulate import (DualAtBound, audit_dual_bounds, build_stage,
                          default_dual_bound, on_flat_face)

LB_MONOTONE_SLACK = 1e-9


@dataclass(frozen=True)
class Cut:
    v: float
    pi: np.ndarray
    origin: str = "Lagrangian"


class CutPool:
    """Per-stage, per-realization, append-only collections of cuts.

    cuts[t][k] under-approximates Q_t(., xi_t^k) for t in [2, T]; the
    stage-(t-1) model consumes them as rows on its continuation proxies.
    """

    def __init__(self, T: int, K: int):
        self.cuts: dict[int, list[list[Cut]]] = {
            t: [[] for _ in range(K)] for t in range(2, T + 1)
        }

    def add(self, t: int, k: int, cut: Cut) -> None:
        self.cuts[t][k].append(cut)

    def num_cuts(self, t: int) -> int:
        """Cuts in cuts[t]; with appends only, a version of that stage."""
        return sum(len(lst) for lst in self.cuts[t])

    def rows_for_stage_model(self, t: int):
        """(v, pi) pairs per realization for the stage-t model's proxies."""
        return [[(c.v, c.pi) for c in lst] for lst in self.cuts[t + 1]]

    def all_cuts(self):
        for t, per_k in sorted(self.cuts.items()):
            for k, lst in enumerate(per_k):
                for cut in lst:
                    yield t, k, cut


@dataclass(frozen=True)
class SddipConfig:
    max_iters: int = 30
    num_paths: int = 2
    tol: float = 1e-6
    seed: int = 0
    risk: bool = False
    risk_lambda: float | None = None  # override the instance blend weights
    risk_alpha: float | None = None  # override the instance CVaR levels
    bound_mode: str = "exact"  # "exact" (types 1-2) | "lb" | "ub" (type 3)
    dual_bound: float | None = None
    max_dual_escalations: int = 3
    subgradient_iters: int = 50
    dual_enum_states: int = 256  # enumerate h(z) when 2^I <= this
    stall_window: int = 5
    ub_paths: int = 200
    tree_limit: float = 1e5


def replace_config(cfg: SddipConfig, **kw) -> SddipConfig:
    return dataclasses.replace(cfg, **kw)


def config_from_json(text: str) -> SddipConfig:
    doc = json.loads(text)
    known = {f.name for f in dataclasses.fields(SddipConfig)}
    extra = set(doc) - known - {"type"}
    if extra:
        raise ValueError(f"unknown run-config keys: {sorted(extra)}")
    return SddipConfig(**{k: v for k, v in doc.items() if k in known})


@dataclass
class SolveReport:
    lb_per_iter: list[float] = field(default_factory=list)
    eigen_cuts_per_stage: dict = field(default_factory=dict)
    ub_estimate: float = float("nan")
    ub_stderr: float = 0.0
    gap: float = float("nan")
    first_stage_x: list[int] = field(default_factory=list)
    iterations: int = 0
    stage_solves: int = 0
    dual_solves: int = 0
    wall_time: float = 0.0
    ub_mode: str = ""
    status: str = ""
    termination: str = ""
    ambiguity_type: int = 0
    bound_mode: str = ""
    seed: int = 0
    iter_rows: list[dict] = field(default_factory=list)

    def to_json(self, include_timing: bool = False) -> str:
        doc = dataclasses.asdict(self)
        if not include_timing:
            doc.pop("wall_time")
            doc["iter_rows"] = [
                {k: v for k, v in row.items() if k != "seconds"}
                for row in doc["iter_rows"]
            ]
        return json.dumps(doc, sort_keys=True, indent=1)

    def to_csv(self) -> str:
        lines = ["iter,lb,ub,gap,seconds"]
        for row in self.iter_rows:
            ub = "" if row["ub"] is None or np.isnan(row["ub"]) else f"{row['ub']:.10g}"
            gap = "" if row["gap"] is None or np.isnan(row["gap"]) else f"{row['gap']:.10g}"
            lines.append(f"{row['iter']},{row['lb']:.10g},{ub},{gap},{row['seconds']:.3f}")
        return "\n".join(lines) + "\n"


@dataclass
class StageSolution:
    value: float
    x_bits: tuple[int, ...]
    theta: np.ndarray | None
    g_cost: float


def _bits(x) -> tuple[int, ...]:
    return tuple(int(round(float(b))) for b in np.asarray(x).ravel())


class StageOracle:
    """Builds and solves stage subproblems with caching, PSD handling,
    and big-M escalation on the dual-bound audit."""

    def __init__(self, inst: Instance, ttype: int, config: SddipConfig,
                 pool: CutPool):
        self.inst = inst
        self.ttype = AmbiguityType(int(ttype))
        if self.ttype == AmbiguityType.TYPE3 and config.bound_mode not in ("lb", "ub"):
            raise ValueError("type 3 stage models need bound_mode 'lb' or 'ub'")
        if self.ttype != AmbiguityType.TYPE3 and config.bound_mode != "exact":
            raise ValueError(f"bound_mode {config.bound_mode!r} applies to type 3 only")
        self.config = config
        self.pool = pool
        self.dual_bound = (config.dual_bound if config.dual_bound is not None
                           else default_dual_bound(inst))
        self.escalations = 0
        self.stage_solves = 0
        self.dual_solves = 0
        self._terminal_cache: dict = {}
        self._stage_cache: dict = {}
        self._eigen_registry: dict[int, list[tuple[int, np.ndarray]]] = {}

    def risk_spec(self, t: int) -> RiskSpec | None:
        if not self.config.risk:
            return None
        return RiskSpec(float(self.inst.risk_lambda[t]), float(self.inst.risk_alpha[t]))

    # -- terminal stage ----------------------------------------------------
    def _solve_terminal(self, k: int, x_prev) -> StageSolution:
        key = (k, _bits(x_prev))
        hit = self._terminal_cache.get(key)
        if hit is not None:
            return hit
        inst = self.inst
        xi = inst.stage_support(inst.T)[k]
        block = build_stage_block(inst, inst.T, np.asarray(x_prev, dtype=float), xi)
        sol = solve_milp(block.model)
        self.stage_solves += 1
        if sol.status != OPTIMAL:
            raise RuntimeError(f"terminal stage solve returned {sol.status}")
        out = StageSolution(float(sol.objective),
                            _bits(round_integral(sol.x, block.x)),
                            None, float(sol.objective))
        self._terminal_cache[key] = out
        return out

    # -- compiled stages ---------------------------------------------------
    def solve_stage(self, t: int, k: int, x_prev) -> StageSolution:
        """Value/decision of the stage-t subproblem at (x_prev, xi_t^k)."""
        inst = self.inst
        if t == inst.T:
            return self._solve_terminal(k, x_prev)
        key = (t, k, _bits(x_prev), self.pool.num_cuts(t + 1), self.dual_bound,
               len(self._eigen_registry.get(t, ())))
        hit = self._stage_cache.get(key)
        if hit is not None:
            return hit
        sol, lay, _ = self._solve_compiled(t, k, x_prev, pi=None)
        out = StageSolution(float(sol.objective),
                            _bits(round_integral(sol.x, lay.x)),
                            np.asarray(sol.x)[lay.theta].copy(),
                            lay.cost_value(inst, sol.x))
        self._stage_cache[key] = out
        return out

    def _solve_compiled(self, t: int, k: int, x_prev, pi):
        """Build and solve a compiled (non-terminal) stage model, handling
        the dual-bound audit: a dual parked on the big-M box is accepted
        on a flat optimal face (reformulate.on_flat_face); otherwise the
        bound escalates permanently."""
        while True:
            sol, lay, blocks = self._solve_once(t, k, x_prev, pi, self.dual_bound)
            try:
                audit_dual_bounds(lay, sol.x)
                return sol, lay, blocks
            except DualAtBound as err:
                if on_flat_face(sol, lambda b: self._solve_once(t, k, x_prev, pi, b)[0],
                                self.dual_bound):
                    return sol, lay, blocks
                self._handle_dual_at_bound(t, sol, lay, err)

    def _solve_once(self, t: int, k: int, x_prev, pi, dual_bound):
        inst = self.inst
        xi = inst.stage_support(t)[k]
        cuts = self.pool.rows_for_stage_model(t)
        as_copy = pi is not None
        model, lay, blocks = build_stage(
            inst, int(self.ttype), t, None if as_copy else np.asarray(x_prev, float),
            xi, cuts=cuts, risk=self.risk_spec(t), x_prev_as_copy=as_copy,
            dual_bound=dual_bound)
        if self.ttype == AmbiguityType.TYPE3:
            if self.config.bound_mode == "ub":
                model = misdp.add_dd_inner_general(model, blocks)
            else:
                for b_idx, v in self._eigen_registry.get(t, []):
                    model.add_row(blocks[b_idx].quadratic_form_coeffs(v), ">=", 0.0)
        if as_copy:
            for i, col in enumerate(lay.z_copy):
                model.set_objective(int(col), -float(pi[i]))
        sol = self._solve_model_with_registry(t, model, blocks)
        if sol.status != OPTIMAL:
            raise RuntimeError(f"stage {t} solve returned {sol.status}")
        if self.ttype == AmbiguityType.TYPE3 and self.config.bound_mode == "ub":
            misdp.audit_inner_psd(blocks, sol.x)
        return sol, lay, blocks

    def _solve_model_with_registry(self, t: int, model: LinearModel, blocks):
        if self.ttype == AmbiguityType.TYPE3 and self.config.bound_mode == "lb":
            new_vecs: list[tuple[int, np.ndarray]] = []
            sol = misdp.solve_misdp_outer(model, blocks, vectors=new_vecs)
            self.stage_solves += 1
            if new_vecs:
                self._eigen_registry.setdefault(t, []).extend(new_vecs)
            return sol
        sol = solve_milp(model)
        self.stage_solves += 1
        return sol

    def _handle_dual_at_bound(self, t: int, sol, lay, err) -> None:
        x_hat = round_integral(sol.x, lay.x)
        if not is_nonempty(self.inst, self.ttype, x_hat, stage=t + 1):
            raise EmptyAmbiguity(
                f"stage {t + 1} ambiguity set empty at state {list(x_hat)}",
                stage=t + 1, x=x_hat)
        if self.escalations >= self.config.max_dual_escalations:
            raise DualAtBound(
                f"dual bound {self.dual_bound:g} still binding after "
                f"{self.escalations} escalations", family=err.family)
        self.dual_bound *= 10.0
        self.escalations += 1
        self._stage_cache.clear()

    # -- copied-state evaluations for the Lagrangian dual -------------------
    def relaxed_value(self, t: int, k: int, pi: np.ndarray):
        """L(pi): stage model with a free binary copy z of the incoming
        state and objective term -pi'z; returns (value, z*)."""
        inst = self.inst
        self.dual_solves += 1
        if t == inst.T:
            xi = inst.stage_support(t)[k]
            block = build_stage_block(inst, t, None, xi, x_prev_as_copy=True)
            model, z_cols = block.model, block.z_copy
            for i, col in enumerate(z_cols):
                model.set_objective(int(col), -float(pi[i]))
            sol = solve_milp(model)
            self.stage_solves += 1
            if sol.status != OPTIMAL:
                raise RuntimeError(f"relaxed terminal solve returned {sol.status}")
            return float(sol.objective), round_integral(sol.x, z_cols)
        sol, lay, _ = self._solve_compiled(t, k, None, pi=np.asarray(pi, dtype=float))
        return float(sol.objective), round_integral(sol.x, lay.z_copy)

    def state_values(self, t: int, k: int, states: np.ndarray) -> np.ndarray:
        """Stage values h(z) for an array of binary states (enumerated dual)."""
        return np.array([self.solve_stage(t, k, z).value for z in states])


def _all_binary_states(I: int) -> np.ndarray:
    out = np.zeros((2**I, I))
    for s in range(2**I):
        out[s] = [(s >> i) & 1 for i in range(I)]
    return out


def _hypograph_dual(h: np.ndarray, states: np.ndarray, x_hat: np.ndarray):
    """Exact Lagrangian dual over enumerated states: max_w,pi w subject to
    w <= h(z) + pi'(x_hat - z); at a binary x_hat the optimum is tight."""
    n_states, I = states.shape
    m = LinearModel()
    w = m.add_var(-np.inf, np.inf, obj=-1.0, name="w")
    pi = m.add_vars(I, -np.inf, np.inf, prefix="pi_")
    for s in range(n_states):
        coeffs = {w: 1.0}
        diff = states[s] - x_hat
        for i in range(I):
            if diff[i] != 0.0:
                coeffs[int(pi[i])] = diff[i]
        m.add_row(coeffs, "<=", float(h[s]))
    sol = solve_lp(m)
    if sol.status != OPTIMAL:
        raise RuntimeError(f"dual hypograph LP returned {sol.status}")
    pi_val = np.asarray(sol.x)[pi]
    v = float(np.min(h - states @ pi_val))
    return pi_val, v


def lagrangian_dual(evaluate, x_hat, max_iters: int = 50, step_rule=None):
    """Maximize g(pi) = L(pi) + pi'x_hat for a relaxed-stage evaluator
    evaluate(pi) -> (L(pi), z*).

    Subgradient ascent (step a/(b+m), best-iterate retention) warm-starts
    a cutting-plane polish over the visited states; any stopping point
    yields a valid cut, so the phases only affect tightness.  Returns
    (pi, L(pi)) for the best multiplier found.
    """
    x_hat = np.asarray(x_hat, dtype=float)
    I = x_hat.size
    pi = np.zeros(I)
    L0, z0 = evaluate(pi)
    seen: dict[tuple, float] = {_bits(z0): L0 + float(pi @ z0)}
    best_pi, best_L, best_g = pi.copy(), L0, L0 + float(pi @ x_hat)
    if step_rule is None:
        a = max(1.0, abs(L0)) / I
        step_rule = lambda m_it: a / (10.0 + m_it)
    z_star = z0
    for m_it in range(max_iters):
        sub = x_hat - z_star
        if not np.any(sub):
            break
        pi = pi + step_rule(m_it) * sub
        L, z_star = evaluate(pi)
        seen[_bits(z_star)] = L + float(pi @ z_star)  # h(z*) recovered
        g = L + float(pi @ x_hat)
        if g > best_g:
            best_pi, best_L, best_g = pi.copy(), L, g
    # cutting-plane polish on the hypograph of the visited states
    for _ in range(40):
        states = np.array([list(b) for b in seen])
        h = np.array([seen[_bits(s)] for s in states])
        try:
            pi_cand, _ = _hypograph_dual(h, states, x_hat)
        except RuntimeError:
            break
        L, z_star = evaluate(pi_cand)
        g = L + float(pi_cand @ x_hat)
        if g > best_g:
            best_pi, best_L, best_g = pi_cand.copy(), L, g
        bits = _bits(z_star)
        if bits in seen:
            break
        seen[bits] = L + float(pi_cand @ z_star)
    return best_pi, best_L


def _dual_cut(oracle: StageOracle, t: int, k: int, x_hat) -> Cut:
    inst = oracle.inst
    cfg = oracle.config
    relaxed = (oracle.ttype == AmbiguityType.TYPE3 and cfg.bound_mode == "lb"
               and t < inst.T)
    origin = "RelaxedLagrangian" if relaxed else "Lagrangian"
    if 2**inst.I <= cfg.dual_enum_states:
        states = _all_binary_states(inst.I)
        h = oracle.state_values(t, k, states)
        oracle.dual_solves += 1
        pi, v = _hypograph_dual(h, states, np.asarray(x_hat, dtype=float))
        return Cut(v=v, pi=pi, origin=origin)
    pi, v = lagrangian_dual(lambda p: oracle.relaxed_value(t, k, p),
                            x_hat, max_iters=cfg.subgradient_iters)
    return Cut(v=v, pi=pi, origin=origin)


def forward_pass(inst: Instance, ttype: int, pool: CutPool, num_paths: int,
                 rng: np.random.Generator, config: SddipConfig | None = None,
                 oracle: StageOracle | None = None):
    """Sample trial states under the stage-wise worst-case distributions.

    Returns (lb, trial_states, first_stage, path_costs): lb is the
    stage-1 model value under the current pool; trial_states[t] holds
    the distinct incoming states for the stage-t backward duals.
    """
    cfg = config or SddipConfig(num_paths=num_paths)
    oracle = oracle or StageOracle(inst, ttype, cfg, pool)
    sol1 = oracle.solve_stage(1, 0, np.zeros(inst.I))
    trial_states: dict[int, list[tuple[int, ...]]] = {t: [] for t in range(2, inst.T + 1)}
    if inst.T >= 2:
        trial_states[2].append(sol1.x_bits)
    path_costs = [_sample_path(oracle, sol1, rng, trial_states) for _ in range(num_paths)]
    return sol1.value, trial_states, sol1, path_costs


def _sample_path(oracle: StageOracle, sol1: StageSolution, rng: np.random.Generator,
                 trial_states: dict | None = None) -> float:
    """Cost of one path from the stage-1 solution, each stage's
    realization drawn from the worst-case distribution of the stage
    before; each distinct state a stage passes on is appended to
    trial_states[t + 1] when trial_states is given."""
    inst = oracle.inst
    x_prev = np.array(sol1.x_bits, dtype=float)
    theta = sol1.theta
    cost = sol1.g_cost
    for t in range(2, inst.T + 1):
        risk = oracle.risk_spec(t - 1)
        wc = worst_case(inst, oracle.ttype, x_prev, theta, stage=t, risk=risk)
        k = int(rng.choice(inst.K, p=wc.sampling_weights(risk)))
        sol = oracle.solve_stage(t, k, x_prev)
        cost += sol.g_cost
        x_prev = np.array(sol.x_bits, dtype=float)
        theta = sol.theta
        if (trial_states is not None and t < inst.T
                and sol.x_bits not in trial_states[t + 1]):
            trial_states[t + 1].append(sol.x_bits)
    return cost


def _is_sampled(inst: Instance, config: SddipConfig) -> bool:
    """Whether the policy is evaluated by sampled paths: more than two
    stages and a support tree with more than tree_limit scenarios."""
    return inst.T > 2 and inst.K ** (inst.T - 1) > config.tree_limit


def backward_pass(inst: Instance, ttype: int, pool: CutPool, trial_states,
                  config: SddipConfig | None = None,
                  oracle: StageOracle | None = None) -> CutPool:
    """Append one multi-cut family per (stage, realization, trial state)."""
    cfg = config or SddipConfig()
    oracle = oracle or StageOracle(inst, ttype, cfg, pool)
    for t in range(inst.T, 1, -1):
        for x_hat in trial_states.get(t, ()):  # distinct incoming states
            for k in range(inst.K):
                cut = _dual_cut(oracle, t, k, np.array(x_hat, dtype=float))
                pool.add(t, k, cut)
    return pool


def evaluate_policy(oracle: StageOracle, rng: np.random.Generator):
    """Upper-bound evaluation of the current policy; see module docstring."""
    inst = oracle.inst
    ttype = oracle.ttype
    memo: dict = {}

    def recurse(t: int, k: int, x_prev) -> float:
        key = (t, k, _bits(x_prev))
        if key in memo:
            return memo[key]
        sol = oracle.solve_stage(t, k, x_prev)
        if t == inst.T:
            memo[key] = sol.value
            return sol.value
        x_now = np.array(sol.x_bits, dtype=float)
        q = np.array([recurse(t + 1, kp, x_now) for kp in range(inst.K)])
        wc = worst_case(inst, ttype, x_now, q, stage=t + 1,
                        risk=oracle.risk_spec(t))
        val = sol.g_cost + wc.value
        memo[key] = val
        return val

    if not _is_sampled(inst, oracle.config):
        mode = "exact" if inst.T == 2 else "tree"
        return recurse(1, 0, np.zeros(inst.I)), 0.0, mode
    sol1 = oracle.solve_stage(1, 0, np.zeros(inst.I))
    costs = np.array([_sample_path(oracle, sol1, rng) for _ in range(oracle.config.ub_paths)])
    return float(costs.mean()), float(costs.std(ddof=1) / np.sqrt(len(costs))), "sampled"


def run(inst: Instance, ttype: int, config: SddipConfig | None = None) -> SolveReport:
    """Iterate forward/backward passes to convergence; see SolveReport."""
    cfg = config or SddipConfig()
    if cfg.risk_lambda is not None or cfg.risk_alpha is not None:
        from .model import replace_fields

        updates = {}
        if cfg.risk_lambda is not None:
            updates["risk_lambda"] = np.full(inst.T, float(cfg.risk_lambda))
        if cfg.risk_alpha is not None:
            updates["risk_alpha"] = np.full(inst.T, float(cfg.risk_alpha))
        inst = replace_fields(inst, **updates)
        cfg = replace_config(cfg, risk=True, risk_lambda=None, risk_alpha=None)
    pool = CutPool(inst.T, inst.K)
    oracle = StageOracle(inst, ttype, cfg, pool)
    rng = np.random.default_rng(cfg.seed)
    report = SolveReport(ambiguity_type=int(ttype), bound_mode=cfg.bound_mode,
                         seed=cfg.seed)
    t_start = time.perf_counter()
    incumbents: dict[tuple[int, ...], float] = {}
    ub = float("nan")
    ub_err = 0.0
    ub_mode = ""
    try:
        for it in range(1, cfg.max_iters + 1):
            t_iter = time.perf_counter()
            lb, trial_states, sol1, _ = forward_pass(
                inst, ttype, pool, cfg.num_paths, rng, cfg, oracle)
            if report.lb_per_iter and lb < report.lb_per_iter[-1] - LB_MONOTONE_SLACK * max(
                    1.0, abs(lb)):
                raise AssertionError("lower bound decreased across iterations")
            report.lb_per_iter.append(lb)
            report.iterations = it
            w = cfg.stall_window
            stalled = (len(report.lb_per_iter) >= w and abs(lb - report.lb_per_iter[-w])
                       <= cfg.tol * max(1.0, abs(lb)))
            # a sampled run evaluates its policy only on its last iteration
            if not _is_sampled(inst, cfg) or stalled or it == cfg.max_iters:
                ub, ub_err, ub_mode = evaluate_policy(oracle, rng)
                incumbents[sol1.x_bits] = ub
            gap = (ub - lb) / max(1.0, abs(ub)) if np.isfinite(ub) else float("nan")
            report.iter_rows.append({
                "iter": it, "lb": lb, "ub": ub, "gap": gap,
                "seconds": time.perf_counter() - t_iter,
            })
            exactish = ub_mode in ("exact", "tree")
            if exactish and np.isfinite(ub) and ub - lb <= cfg.tol * max(1.0, abs(ub)):
                report.termination = "gap_closed"
                break
            if stalled:
                report.termination = "lb_stalled"
                break
            backward_pass(inst, ttype, pool, trial_states, cfg, oracle)
        else:
            report.termination = "max_iters"
        report.status = "Optimal" if report.termination == "gap_closed" else "BoundLimit"
    except EmptyAmbiguity as exc:
        report.status = "Unbounded"
        report.termination = f"empty_ambiguity_stage_{exc.stage}"
    report.ub_estimate = ub
    report.ub_stderr = ub_err
    report.ub_mode = ub_mode
    if report.lb_per_iter and np.isfinite(ub):
        report.gap = (ub - report.lb_per_iter[-1]) / max(1.0, abs(ub))
    if incumbents:
        best = min(incumbents.values())
        ties = [b for b, v in incumbents.items() if v <= best + 1e-9 * max(1.0, abs(best))]
        report.first_stage_x = list(min(ties))
    report.stage_solves = oracle.stage_solves
    report.dual_solves = oracle.dual_solves
    report.eigen_cuts_per_stage = {
        str(t): len(v) for t, v in sorted(oracle._eigen_registry.items())}
    report.wall_time = time.perf_counter() - t_start
    return report

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
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import misdp
from .ambiguity import AmbiguityType, EmptyAmbiguity, RiskSpec, worst_case, is_nonempty
from .lpmilp import OPTIMAL, LinearModel, round_integral, solve_lp, solve_milp
# build_stage_block is no longer called here, but perfbench/spans.py traces it by this name
from .model import Instance, build_stage_block, set_stage_data  # noqa: F401
from .reformulate import (DualBound, VarLayout, add_cut_rows, build_stage, default_dual_bound,
                          solve_with_dual_bound)

LB_MONOTONE_SLACK = 1e-9
DUAL_ENUM_STATES = 256  # the dual enumerates h(z) when 2^I <= this
SUBGRADIENT_ITERS = 50  # subgradient steps of the non-enumerated dual
STALL_WINDOW = 5  # iterations over which an unmoved lb means a stall
UB_PATHS = 200  # sampled paths of a sampled policy evaluation
TREE_LIMIT = 1e5  # policies are evaluated on sampled paths above K^(T-1) = this


@dataclass(frozen=True)
class Cut:
    v: float
    pi: np.ndarray


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
        """Cuts in cuts[t]; with appends only, a version of that stage.
        There are none past the terminal stage."""
        return sum(len(lst) for lst in self.cuts.get(t, ()))

    def rows_for_stage_model(self, t: int):
        """(v, pi) pairs per realization for the stage-t model's proxies."""
        return [[(c.v, c.pi) for c in lst] for lst in self.cuts.get(t + 1, ())]

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

    def __post_init__(self):
        for name in ("max_iters", "num_paths"):
            val = getattr(self, name)
            if isinstance(val, bool) or not isinstance(val, numbers.Integral) or val < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {val!r}")
        tol = self.tol
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 <= tol < math.inf:
            raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
        if self.bound_mode not in ("exact", "lb", "ub"):
            raise ValueError(f"bound_mode must be exact, lb or ub, got {self.bound_mode!r}")
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
        if not isinstance(self.risk, bool):
            raise ValueError(f"risk must be true or false, got {self.risk!r}")
        for name, closed in (("risk_lambda", True), ("risk_alpha", False)):
            val = getattr(self, name)
            if val is None:
                continue
            if isinstance(val, bool) or not isinstance(val, numbers.Real) or not (
                    0 <= val <= 1 if closed else 0 < val < 1):
                span = "[0, 1]" if closed else "(0, 1)"
                raise ValueError(f"{name} must lie in {span}, got {val!r}")


def replace_config(cfg: SddipConfig, **kw) -> SddipConfig:
    return dataclasses.replace(cfg, **kw)


def config_from_json(text: str) -> SddipConfig:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"run config must be a JSON object, got {type(doc).__name__}")
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
    dual_escalations: int = 0
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
    theta: np.ndarray  # continuation proxies; empty at the terminal stage
    g_cost: float


def _bits(x) -> tuple[int, ...]:
    return tuple(int(round(float(b))) for b in np.asarray(x).ravel())


@dataclass
class _Compiled:
    """A stage model compiled once for copying: built without cuts, and
    `extended`, its copy with the pool's cuts at `cuts` cuts (plus the DD
    rows on the "ub" route)."""

    model: LinearModel
    lay: VarLayout
    blocks: list
    cuts: int = -1
    extended: LinearModel | None = None


class StageOracle:
    """Builds and solves stage subproblems with caching, PSD handling,
    and big-M escalation on the dual-bound audit.

    Every stage t = 1..T takes the same path; the terminal stage is the
    one whose model (reformulate.build_stage) has no continuation, hence
    no cuts, audited duals or PSD blocks.  Stage models are compiled once
    and re-solved by patching: the oracle keeps one model per (stage,
    big-M), whose rows are assembled once (see lpmilp.LinearModel).  In
    each, the incoming state is the binary copy z.  A solve takes a copy
    and writes its data (model.set_stage_data): the demand right-hand
    sides of the realization, and the bounds of z -- pinned at the state,
    or, for the Lagrangian relaxation, free in [0, 1] with costs -pi.
    Then it appends only what the kept model lacks.  For the cut rows, a
    copy extended by the pool's cuts is kept while the number of cuts in
    the stage's pool is unchanged; the eigen rows of the "lb" route are
    appended per solve.  The solved model has the columns, rows, row
    order and coefficients of a fresh build, so results do not change.
    An escalation of the big-M bound drops the kept models along with
    the stage cache.
    """

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
        self.dual_bound = DualBound(default_dual_bound(inst))
        self.stage_solves = 0
        self.dual_solves = 0
        self._stage_cache: dict = {}
        self._compiled: dict[tuple, _Compiled] = {}
        self._eigen_registry: dict[int, list[tuple[int, np.ndarray]]] = {}

    def risk_spec(self, t: int) -> RiskSpec | None:
        """The blend of the stage-t inner measure, which carries the
        stage-(t+1) parameters; the terminal stage has no inner measure."""
        if not self.config.risk or t == self.inst.T:
            return None
        return RiskSpec(float(self.inst.risk_lambda[t]), float(self.inst.risk_alpha[t]))

    def solve_stage(self, t: int, k: int, x_prev) -> StageSolution:
        """Value/decision of the stage-t subproblem at (x_prev, xi_t^k)."""
        inst = self.inst
        key = (t, k, _bits(x_prev), self.pool.num_cuts(t + 1),
               len(self._eigen_registry.get(t, ())))
        hit = self._stage_cache.get(key)
        if hit is not None:
            return hit
        sol, lay, _ = self._solve_compiled(t, k, x_prev, pi=None)
        value = float(sol.objective)  # at t = T, the stage cost itself
        out = StageSolution(value, _bits(round_integral(sol.x, lay.x)),
                            np.asarray(sol.x)[lay.theta].copy(),
                            value if t == inst.T else lay.cost_value(inst, sol.x))
        self._stage_cache[key] = out
        return out

    def _solve_compiled(self, t: int, k: int, x_prev, pi):
        """Build and solve a compiled stage model through
        reformulate.solve_with_dual_bound, with the emptiness check of the
        next stage's ambiguity set as its hook.  An escalation is
        permanent for the run, so it empties the stage cache and drops
        the kept models."""
        def check_nonempty(sol, lay):
            x_hat = round_integral(sol.x, lay.x)
            if not is_nonempty(self.inst, self.ttype, x_hat, stage=t + 1):
                raise EmptyAmbiguity(
                    f"stage {t + 1} ambiguity set empty at state {list(x_hat)}",
                    stage=t + 1, x=x_hat)

        escalations = self.dual_bound.escalations
        out = solve_with_dual_bound(lambda b: self._solve_once(t, k, x_prev, pi, b),
                                    self.dual_bound, check_nonempty)
        if self.dual_bound.escalations != escalations:
            self._stage_cache.clear()
            self._compiled.clear()
        return out

    def _stage_model(self, t: int, k: int, x_prev, pi, dual_bound: float):
        """(model, layout, PSD blocks) of one stage-t solve at big-M
        dual_bound: a copy of the kept model with the pool's cuts, the
        eigen rows found so far, the data of (k, x_prev) and the costs -pi."""
        inst = self.inst
        comp = self._compiled.get((t, dual_bound))
        if comp is None:
            model, lay, blocks = build_stage(
                inst, int(self.ttype), t, np.zeros(inst.I), np.zeros(inst.J),
                risk=self.risk_spec(t), dual_bound=dual_bound)
            model.validate()
            comp = self._compiled[(t, dual_bound)] = _Compiled(model, lay, blocks)
        cuts = self.pool.num_cuts(t + 1)
        if comp.cuts != cuts:
            extended = comp.model.copy()
            add_cut_rows(extended, comp.lay, self.pool.rows_for_stage_model(t))
            if self.config.bound_mode == "ub" and comp.blocks:
                extended = misdp.add_dd_inner_general(extended, comp.blocks)
            extended.validate()
            comp.cuts, comp.extended = cuts, extended
        model = comp.extended.copy()
        for b_idx, v in self._eigen_registry.get(t, []):
            model.add_row(comp.blocks[b_idx].quadratic_form_coeffs(v), ">=", 0.0)
        set_stage_data(model, comp.lay.dem, comp.lay.z_copy, x_prev,
                       inst.stage_support(t)[k], pi)
        return model, comp.lay, comp.blocks

    def _solve_once(self, t: int, k: int, x_prev, pi, dual_bound):
        model, lay, blocks = self._stage_model(t, k, x_prev, pi, dual_bound)
        mode = self.config.bound_mode  # "lb" and "ub" are Type 3 routes
        if mode == "lb" and blocks:  # the terminal stage has no PSD blocks
            new_vecs: list[tuple[int, np.ndarray]] = []
            sol = misdp.solve_misdp_outer(model, blocks, vectors=new_vecs)
            if new_vecs:
                self._eigen_registry.setdefault(t, []).extend(new_vecs)
        else:
            sol = solve_milp(model)
        self.stage_solves += 1
        if sol.status != OPTIMAL:
            raise RuntimeError(f"stage {t} solve returned {sol.status}")
        if mode == "ub":
            misdp.audit_inner_psd(blocks, sol.x)
        return sol, lay, blocks

    # -- copied-state evaluations for the Lagrangian dual -------------------
    def relaxed_value(self, t: int, k: int, pi: np.ndarray):
        """L(pi): stage model with a free binary copy z of the incoming
        state and objective term -pi'z; returns (value, z*)."""
        self.dual_solves += 1
        sol, lay, _ = self._solve_compiled(t, k, None, np.asarray(pi, dtype=float))
        return float(sol.objective), round_integral(sol.x, lay.z_copy)


def _all_binary_states(I: int) -> np.ndarray:
    """Every binary state, row s holding the bits of s (lowest first)."""
    return ((np.arange(2**I)[:, None] >> np.arange(I)) & 1).astype(float)


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


def lagrangian_dual(evaluate, x_hat):
    """Maximize g(pi) = L(pi) + pi'x_hat for a relaxed-stage evaluator
    evaluate(pi) -> (L(pi), z*).

    SUBGRADIENT_ITERS steps of subgradient ascent (step a/(10+m) with
    a = max(1, |L(0)|)/I, best-iterate retention) warm-start
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
    a = max(1.0, abs(L0)) / I
    z_star = z0
    for m_it in range(SUBGRADIENT_ITERS):
        sub = x_hat - z_star
        if not np.any(sub):
            break
        pi = pi + a / (10.0 + m_it) * sub
        L, z_star = evaluate(pi)
        seen[_bits(z_star)] = L + float(pi @ z_star)  # h(z*) recovered
        g = L + float(pi @ x_hat)
        if g > best_g:
            best_pi, best_L, best_g = pi.copy(), L, g
    # cutting-plane polish on the hypograph of the visited states
    for _ in range(40):
        states = np.array([list(b) for b in seen])
        h = np.array(list(seen.values()))
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
    if 2**inst.I <= DUAL_ENUM_STATES:
        states = _all_binary_states(inst.I)
        h = np.array([oracle.solve_stage(t, k, z).value for z in states])
        oracle.dual_solves += 1
        pi, v = _hypograph_dual(h, states, np.asarray(x_hat, dtype=float))
        return Cut(v=v, pi=pi)
    pi, v = lagrangian_dual(lambda p: oracle.relaxed_value(t, k, p), x_hat)
    return Cut(v=v, pi=pi)


def forward_pass(oracle: StageOracle, num_paths: int, rng: np.random.Generator):
    """Sample trial states under the stage-wise worst-case distributions.

    Returns (lb, trial_states, first_stage, path_costs): lb is the
    stage-1 model value under the oracle's current pool; trial_states[t]
    holds the distinct incoming states for the stage-t backward duals.
    """
    inst = oracle.inst
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


def _is_sampled(inst: Instance) -> bool:
    """Whether the policy is evaluated by sampled paths: more than two
    stages and a support tree with more than TREE_LIMIT scenarios."""
    return inst.T > 2 and inst.K ** (inst.T - 1) > TREE_LIMIT


def backward_pass(oracle: StageOracle, trial_states) -> CutPool:
    """Append one multi-cut family per (stage, realization, trial state)
    to the oracle's pool."""
    inst, pool = oracle.inst, oracle.pool
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

    if not _is_sampled(inst):
        mode = "exact" if inst.T == 2 else "tree"
        return recurse(1, 0, np.zeros(inst.I)), 0.0, mode
    sol1 = oracle.solve_stage(1, 0, np.zeros(inst.I))
    costs = np.array([_sample_path(oracle, sol1, rng) for _ in range(UB_PATHS)])
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
    oracle = StageOracle(inst, ttype, cfg, CutPool(inst.T, inst.K))
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
            lb, trial_states, sol1, _ = forward_pass(oracle, cfg.num_paths, rng)
            if report.lb_per_iter and lb < report.lb_per_iter[-1] - LB_MONOTONE_SLACK * max(
                    1.0, abs(lb)):
                raise AssertionError("lower bound decreased across iterations")
            report.lb_per_iter.append(lb)
            report.iterations = it
            w = STALL_WINDOW
            stalled = (len(report.lb_per_iter) >= w and abs(lb - report.lb_per_iter[-w])
                       <= cfg.tol * max(1.0, abs(lb)))
            # a sampled run evaluates its policy only on its last iteration
            if not _is_sampled(inst) or stalled or it == cfg.max_iters:
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
            backward_pass(oracle, trial_states)
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
    report.dual_escalations = oracle.dual_bound.escalations
    report.eigen_cuts_per_stage = {
        str(t): len(v) for t, v in sorted(oracle._eigen_registry.items())}
    report.wall_time = time.perf_counter() - t_start
    return report

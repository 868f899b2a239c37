"""Decomposition engine: forward passes, backward passes that price
Lagrangian cuts, cut pooling, bound tracking, and termination.

A cut (v, pi) for the stage value function comes from relaxing a binary
copy of the incoming state: for ANY multiplier pi, the relaxed stage
value L(pi) satisfies Q(x, xi) >= L(pi) + pi'x for every binary x, so
early stopping of the dual search is always safe.  Every cut comes from
one route, subgradient ascent on the dual with best-iterate retention
(lagrangian_dual over StageOracle.relaxed_values).  Trial states are
binary, and a cut is tight at its trial state x_hat once a step's
relaxed solution z* equals x_hat.  A search that stops short still
leaves a valid cut; since Optimal needs an exactly evaluated upper bound
to meet the lower bound, a loose cut costs iterations or ends the run in
BoundLimit, never in a wrong Optimal.

Upper bounds evaluate the current policy: exactly for two-stage runs
(first-stage cost plus the worst case over the exact terminal values),
by full support-tree recursion while the tree is small, and by
Monte-Carlo path sampling under the stage-wise worst-case distributions
otherwise; the mode is flagged in the report.

One walker, _sample_path, draws every sampled path: forward passes walk
to stage T-1 for trial states, the sampled evaluation to stage T for
costs.  Every stage without a cut loop -- all but the PSD stages of the
Type 3 "lb" route -- runs its dual searches in lockstep, and the tree
evaluation solves the K children of a state together; their MILPs go to
HiGHS in batches (StageOracle).  A stage solve at a pinned state is
split on its facility states, one copy per state with the binaries
fixed, and its decision among tied states follows a fixed rule
(StageOracle._split).  Each worst case is computed once per run
(StageOracle.worst_case).  The cut pool is append-only, updated per
pass.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import misdp
from .ambiguity import (AmbiguityType, EmptyAmbiguity, RiskSpec, WorstCase, is_nonempty,
                        worst_case)
from .lpmilp import (OPTIMAL, LinearModel, Solution, round_integral, solve_fixed_milps,
                     solve_milp, solve_milps)
# perfbench/spans.py traces solve_lp and build_stage_block by these names;
# neither is called here
from .lpmilp import solve_lp  # noqa: F401
from .model import Instance, budget_states, build_stage_block, set_stage_data  # noqa: F401
from .reformulate import (DualBound, VarLayout, add_cut_rows, build_stage, default_dual_bound,
                          solve_with_dual_bound)

LB_MONOTONE_SLACK = 1e-9
SUBGRADIENT_ITERS = 50  # subgradient steps of the Lagrangian dual
STALL_WINDOW = 5  # iterations over which an unmoved lb means a stall
UB_PATHS = 200  # sampled paths of a sampled policy evaluation
TREE_LIMIT = 1e5  # policies are evaluated on sampled paths above K^(T-1) = this
SANDWICH_REL_SLACK = 1e-6  # run_type3_bounds accepts lb <= ub + this * max(1, |ub|)
# A pinned solve with more budget-feasible states is not split: the copies
# cost about linearly in their number (10 copies of the benchmark's
# 122-column I = 9 model took 2.8 ms, that model whole 13 ms), and
# enumeration stops past this many.
SPLIT_STATES = 16
SPLIT_TIE_REL = 1e-7  # states within this * max(1, |best|) of the best value tie


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
    """What a run found and did.  stage_solves counts stage solves, not
    MILPs: every stage model solved, the relaxed solves of the Lagrangian
    duals and the big-M probes and re-solves among them.  A stage solve
    on the Type 3 "lb" route is one eigen-cut loop of several LPs and
    MILPs, and a hit of the stage cache is no solve.  dual_solves counts
    the relaxed evaluations of the duals alone.  counters holds the
    oracle's split_solves, split_blocks and split_fallbacks (see
    StageOracle) and dual_probes, the flat-face probes of the run's big-M
    (reformulate.DualBound.probes)."""

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
    counters: dict = field(default_factory=dict)
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
    """A stage model compiled once for copying: built without cuts (with
    the DD rows on the "ub" route), and `extended`, its copy with the
    pool's cuts at `cuts` cuts."""

    model: LinearModel
    lay: VarLayout
    blocks: list
    cuts: int = -1
    extended: LinearModel | None = None


class StageOracle:
    """Builds and solves stage subproblems with caching, PSD handling,
    big-M escalation on the dual-bound audit, and batching.

    Every solve goes through one entry point, _solve_jobs, for a list of
    (k, x_prev, pi) jobs at one stage: pinned states for solve_stages,
    copied states for relaxed_values.  A stage without a cut loop (the
    terminal stage, every Type 1/2 stage, every Type 3 "ub" stage) solves
    two or more jobs as one block-diagonal MILP searched at its root
    alone (lpmilp.solve_milps).  Each block, in job order, is the first
    round of its own reformulate.solve_with_dual_bound: the blocks are
    audited in turn (and checked for PSD on the "ub" route), a flagged
    one probes at 10x the big-M from its batch solution, which is neither
    solved nor counted again, and an escalation solves the jobs after it
    again, at the new big-M, as a new batch.  dual_bound counts the
    escalations and the probes of the run.  Type 2 stage models of a
    rank-deficient support carry the hull rows of
    reformulate.build_type2_stage, so their duals have no free direction
    to leave at the box: a flag there means an empty set at the
    solution's state, which the emptiness hook reports after the probe,
    or a big-M too small.  The first batch of a stage
    that does not close at its root ends batching for that stage alone,
    whose jobs then run one by one: models that branch, or take tens of
    milliseconds, cost more batched.  Type 3 "lb" stages with PSD blocks
    never batch: their relaxed solves append eigen rows, so solve order
    decides the rows, and their jobs and dual searches run one after
    another (batches).
    Stage models are compiled once and re-solved by patching: the oracle
    keeps one model per (stage, big-M), whose rows are assembled once
    (see lpmilp.LinearModel).  In each, the incoming state is the binary
    copy z.  A solve takes a copy
    and writes its data (model.set_stage_data): the demand right-hand
    sides of the realization, and the bounds of z -- pinned at the state,
    or, for the Lagrangian relaxation, free in [0, 1] with costs -pi.
    On the "ub" route the kept model carries the DD rows of its PSD
    blocks, written once when it is compiled.  Each solve appends only
    what the kept model lacks: for the cut rows, a copy extended by the
    pool's cuts is kept while the number of cuts in the stage's pool is
    unchanged; the eigen rows of the "lb" route, stored as the cut loop
    appended them, are replayed per solve.  The solved model equals a
    fresh build that adds the stage block, the DD rows, the cuts and the
    eigen rows in that order.
    The stage cache holds one entry per pinned solve, keyed on the
    model it solved: (t, k, state, cuts in the pool of stage t+1, eigen
    rows of the solved model).  On the "lb" route the cut loop appends
    eigen rows during the solve, so the entry lands past the row count
    of the lookup that missed, where the next lookup finds it; a re-solve
    there would replay the same rows in the same order.  The count is the
    accepted solve's own: a flat-face probe at 10x the big-M
    (reformulate.solve_with_dual_bound) may append rows after it, and a
    lookup that counts those misses.  Other routes append no eigen rows.
    An escalation of the big-M bound drops the kept models along with
    the stage cache.
    A worst case (ambiguity.worst_case) depends on its stage, state and
    stage values alone, so worst_case computes each once per run.
    Every pinned solve -- _solve_once with x_prev given: the plain MILP,
    each MILP round of the "lb" cut loop, and each probe -- is split on
    the facility states of (t, x_prev), model.budget_states, listed once
    per key in lexicographic order: one copy of the model per state with
    x fixed there by its bounds, all solved as one batch searched at its
    root (lpmilp.solve_fixed_milps).  The value is the least copy value,
    and it is the MILP's optimum: the model's feasible set is the union
    of its slices at fixed x, and the list holds every x the budget row
    admits, since its tolerance is looser than HiGHS's, while a listed x
    the row rejects makes its copy, and so the batch, infeasible.  So
    every lower bound built on a stage value keeps its proof.  The
    decision (x, theta, g_cost) comes from the first state in the list
    whose copy value is within SPLIT_TIE_REL * max(1, |value|) of the
    least one: that copy's solution is feasible for the model and at
    most that far above its optimum, and the oracle, not HiGHS, picks
    among tied states.  A key with more than SPLIT_STATES states is
    solved whole, and so is a batch that fails, infeasible or open at
    its root; the first failed batch of a stage ends splitting there, as
    a failed stage batch ends batching.  Relaxed solves, whose copy z is
    free, and the jobs of a stage batch are not split.  counters counts
    the split solves, their copies and the solves that fell back.
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
        self._eigen_rows: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        self._worst: dict[tuple, WorstCase] = {}
        # whether stage t batches: not where a cut loop runs, and not after
        # one of its batches failed at its root
        self._batching = {t: config.bound_mode != "lb" or t == inst.T
                          for t in range(1, inst.T + 1)}
        # whether stage t splits its pinned solves: not after one split failed
        self._splitting = dict.fromkeys(range(1, inst.T + 1), True)
        self._states: dict[tuple, list | None] = {}
        self.counters = dict.fromkeys(("split_solves", "split_blocks", "split_fallbacks"), 0)

    def risk_spec(self, t: int) -> RiskSpec | None:
        """The blend of the stage-t inner measure, which carries the
        stage-(t+1) parameters; the terminal stage has no inner measure.
        The config's risk_lambda or risk_alpha, where set, replaces the
        instance's value at every stage and turns the blend on."""
        cfg, inst = self.config, self.inst
        lam, alpha = cfg.risk_lambda, cfg.risk_alpha
        if not (cfg.risk or lam is not None or alpha is not None) or t == inst.T:
            return None
        return RiskSpec(float(inst.risk_lambda[t] if lam is None else lam),
                        float(inst.risk_alpha[t] if alpha is None else alpha))

    def batches(self, t: int) -> bool:
        """Whether the jobs of stage t still run as one batch (see StageOracle)."""
        return self._batching[t]

    def worst_case(self, t: int, x_prev, q) -> WorstCase:
        """ambiguity.worst_case over the stage-t set at x_prev with stage
        values q, under the stage-(t-1) risk blend; computed once per
        (t, state, q) for the run."""
        q = np.asarray(q, dtype=float)
        key = (t, _bits(x_prev), q.tobytes())
        if key not in self._worst:
            self._worst[key] = worst_case(self.inst, self.ttype, np.asarray(x_prev, dtype=float),
                                          q, stage=t, risk=self.risk_spec(t - 1))
        return self._worst[key]

    def solve_stage(self, t: int, k: int, x_prev) -> StageSolution:
        """Value/decision of the stage-t subproblem at (x_prev, xi_t^k)."""
        return self.solve_stages(t, x_prev, [k])[0]

    def solve_stages(self, t: int, x_prev, ks) -> list[StageSolution]:
        """solve_stage(t, k, x_prev) for each k in ks, the misses as one
        batch.  The stage cache is read at the eigen rows stored now, and
        written at those of the model solved, which include the rows its
        cut loop appended (see StageOracle); where a cut loop runs, each
        lookup follows the solves before it."""
        if not self._batching[t] and len(ks) > 1:
            return [self.solve_stage(t, k, x_prev) for k in ks]
        keys = [self._stage_key(t, k, x_prev) for k in ks]
        out = [self._stage_cache.get(key) for key in keys]
        missed = [j for j, sol in enumerate(out) if sol is None]
        solved = self._solve_jobs(t, [(ks[j], x_prev, None) for j in missed])
        for j, (sol, lay, _, eigen_rows) in zip(missed, solved):
            out[j] = self._stage_solution(t, sol, lay)
            self._stage_cache[self._stage_key(t, ks[j], x_prev, eigen_rows)] = out[j]
        return out

    def relaxed_values(self, t: int, jobs):
        """(L(pi), z*) of each (k, pi) job, as one batch: the stage-t
        model at realization k with a free binary copy z of the incoming
        state and objective term -pi'z, and its relaxed copy z*."""
        self.dual_solves += len(jobs)
        solved = self._solve_jobs(t, [(k, None, np.asarray(pi, dtype=float)) for k, pi in jobs])
        return [(float(sol.objective), round_integral(sol.x, lay.z_copy))
                for sol, lay, _, _ in solved]

    def _stage_key(self, t: int, k: int, x_prev, eigen_rows: int | None = None) -> tuple:
        """The stage-cache key at eigen_rows rows, by default those stored now."""
        rows = len(self._eigen_rows.get(t, ())) if eigen_rows is None else eigen_rows
        return (t, k, _bits(x_prev), self.pool.num_cuts(t + 1), rows)

    def _stage_solution(self, t: int, sol, lay: VarLayout) -> StageSolution:
        value = float(sol.objective)  # at t = T, the stage cost itself
        return StageSolution(value, _bits(round_integral(sol.x, lay.x)),
                             np.asarray(sol.x)[lay.theta].copy(),
                             value if t == self.inst.T else lay.cost_value(self.inst, sol.x))

    def _solve_jobs(self, t: int, jobs) -> list:
        """The accepted _solve_once result of each (k, x_prev, pi) job at
        stage t, in job order: one batch while the stage batches, each
        block accepted by _solve_compiled from its batch solution, and the
        jobs after an escalation batched again at the new big-M."""
        out = []
        while len(out) < len(jobs):
            rest = jobs[len(out):]
            batch = self._solve_batch(t, rest) if len(rest) > 1 and self._batching[t] else None
            if batch is None:
                return out + [self._solve_compiled(t, k, x_prev, pi) for k, x_prev, pi in rest]
            for (k, x_prev, pi), first in zip(rest, batch):
                escalations = self.dual_bound.escalations
                out.append(self._solve_compiled(t, k, x_prev, pi, first))
                if self.dual_bound.escalations != escalations:
                    break
        return out

    def _solve_batch(self, t: int, jobs):
        """The _solve_once result of each job at the current big-M, from one
        block-diagonal MILP (lpmilp.solve_milps), or None if it does not
        close at its root, which ends batching for stage t."""
        bound = self.dual_bound.value
        built = [self._stage_model(t, k, x_prev, pi, bound) for k, x_prev, pi in jobs]
        sols = solve_milps([model for model, _, _ in built])
        if sols is None:
            self._batching[t] = False
            return None
        self.stage_solves += len(jobs)
        if self.config.bound_mode == "ub":
            for sol, (_, _, blocks) in zip(sols, built):
                misdp.audit_inner_psd(blocks, sol.x)
        # a stage that batches runs no cut loop, so it has no eigen rows
        return [(sol, lay, blocks, 0) for sol, (_, lay, blocks) in zip(sols, built)]

    def _solve_compiled(self, t: int, k: int, x_prev, pi, first=None):
        """Build and solve a compiled stage model through
        reformulate.solve_with_dual_bound, from the _solve_once result
        first if given, with the emptiness check of the next stage's
        ambiguity set as its hook; returns the accepted _solve_once
        result.  An escalation is permanent for the run, so it empties
        the stage cache and drops the kept models."""
        def check_nonempty(sol, lay):
            x_hat = round_integral(sol.x, lay.x)
            if not is_nonempty(self.inst, self.ttype, x_hat, stage=t + 1):
                raise EmptyAmbiguity(
                    f"stage {t + 1} ambiguity set empty at state {list(x_hat)}",
                    stage=t + 1, x=x_hat)

        escalations = self.dual_bound.escalations
        out = solve_with_dual_bound(lambda b: self._solve_once(t, k, x_prev, pi, b),
                                    self.dual_bound, check_nonempty, first)
        if self.dual_bound.escalations != escalations:
            self._stage_cache.clear()
            self._compiled.clear()
        return out

    def _stage_model(self, t: int, k: int, x_prev, pi, dual_bound: float):
        """(model, layout, PSD blocks) of one stage-t solve at big-M
        dual_bound: a copy of the kept model (DD rows included on the "ub"
        route) with the pool's cuts, the eigen rows found so far, the data
        of (k, x_prev) and the costs -pi."""
        inst = self.inst
        comp = self._compiled.get((t, dual_bound))
        if comp is None:
            model, lay, blocks = build_stage(
                inst, int(self.ttype), t, np.zeros(inst.I), np.zeros(inst.J),
                risk=self.risk_spec(t), dual_bound=dual_bound)
            if self.config.bound_mode == "ub" and blocks:
                model = misdp.add_dd_inner_general(model, blocks)
            model.validate()
            comp = self._compiled[(t, dual_bound)] = _Compiled(model, lay, blocks)
        cuts = self.pool.num_cuts(t + 1)
        if comp.cuts != cuts:
            extended = comp.model.copy()
            add_cut_rows(extended, comp.lay, self.pool.rows_for_stage_model(t))
            extended.validate()
            comp.cuts, comp.extended = cuts, extended
        model = comp.extended.copy()
        for row in self._eigen_rows.get(t, ()):
            model.add_row(row, ">=", 0.0)
        set_stage_data(model, comp.lay.dem, comp.lay.z_copy, x_prev,
                       inst.stage_support(t)[k], pi)
        return model, comp.lay, comp.blocks

    def _solve_once(self, t: int, k: int, x_prev, pi, dual_bound):
        """(solution, layout, PSD blocks, eigen rows of the solved model):
        the rows replayed plus those the cut loop appended."""
        model, lay, blocks = self._stage_model(t, k, x_prev, pi, dual_bound)
        split = None if x_prev is None else functools.partial(self._split, t, x_prev, lay.x)
        mode = self.config.bound_mode  # "lb" and "ub" are Type 3 routes
        if mode == "lb" and blocks:  # the terminal stage has no PSD blocks
            done = model.num_rows
            sol = misdp.solve_misdp_outer(model, blocks, split)
            if model.num_rows > done:
                self._eigen_rows.setdefault(t, []).extend(
                    zip(model.row_cols[done:], model.row_vals[done:]))
        else:
            sol = (split and split(model)) or solve_milp(model)
        self.stage_solves += 1
        if sol.status != OPTIMAL:
            raise RuntimeError(f"stage {t} solve returned {sol.status}")
        if mode == "ub":
            misdp.audit_inner_psd(blocks, sol.x)
        return sol, lay, blocks, len(self._eigen_rows.get(t, ()))

    def _split(self, t: int, x_prev, x_cols, model: LinearModel) -> Solution | None:
        """The model's MILP at a pinned state, split on the stage-t states
        of x_prev (model.budget_states, listed once per (t, x_prev)): one
        copy per state with the columns x_cols fixed there, as one batch
        searched at its root (lpmilp.solve_fixed_milps).  The objective
        is the least copy value, and x the solution of the first copy, in
        list order, within SPLIT_TIE_REL of it.  None where the model is
        to be solved whole: more than SPLIT_STATES states, or a batch
        that fails, which ends splitting for stage t (see StageOracle)."""
        if not self._splitting[t]:
            return None
        key = (t, _bits(x_prev))
        if key not in self._states:
            self._states[key] = budget_states(self.inst, t, x_prev, SPLIT_STATES)
        states = self._states[key]
        sols = None if states is None else solve_fixed_milps(model, x_cols, states)
        if sols is None:
            self.counters["split_fallbacks"] += 1
            if states is not None:
                self._splitting[t] = False
            return None
        self.counters["split_solves"] += 1
        self.counters["split_blocks"] += len(sols)
        best = min(sol.objective for sol in sols)
        tied = best + SPLIT_TIE_REL * max(1.0, abs(best))
        pick = next(sol for sol in sols if sol.objective <= tied)
        return Solution(OPTIMAL, pick.x, best, pick.node_count)


def lagrangian_dual(evaluate, x_hats):
    """Searches in lockstep, one per trial state x_hat, each maximizing
    g(pi) = L(pi) + pi'x_hat of its relaxed stage by subgradient ascent
    from pi = 0: at most SUBGRADIENT_ITERS steps a/(10+m) along
    x_hat - z*, with a = max(1, |L(0)|)/I.  evaluate([(search, pi)])
    returns [(L(pi), z*)], called once a step with the searches still
    active.  Returns the best (pi, L(pi)) of each search.

    Any multiplier yields a valid cut.  A search stops once z* equals
    x_hat: then g(pi) = h(x_hat), the stage value at x_hat, which bounds
    g from above, so at a binary x_hat the cut is tight.
    """
    x_hats = [np.asarray(x, dtype=float) for x in x_hats]
    pis = [np.zeros(x.size) for x in x_hats]
    first = evaluate(list(enumerate(pis)))
    z_stars = [z for _, z in first]
    best = [(pi, L, L) for pi, (L, _) in zip(pis, first)]  # g(0) = L(0)
    steps = [max(1.0, abs(L)) / x.size for (L, _), x in zip(first, x_hats)]
    active = range(len(x_hats))
    for m_it in range(SUBGRADIENT_ITERS):
        active = [j for j in active if np.any(x_hats[j] != z_stars[j])]
        if not active:
            break
        for j in active:
            pis[j] = pis[j] + steps[j] / (10.0 + m_it) * (x_hats[j] - z_stars[j])
        for j, (L, z_star) in zip(active, evaluate([(j, pis[j]) for j in active])):
            z_stars[j] = z_star
            g = L + float(pis[j] @ x_hats[j])
            if g > best[j][2]:
                best[j] = (pis[j], L, g)
    return [(pi, L) for pi, L, _ in best]


def forward_pass(oracle: StageOracle, num_paths: int, rng: np.random.Generator):
    """Sample trial states under the stage-wise worst-case distributions.

    Returns (first_stage, trial_states): the stage-1 solution under the
    oracle's current pool, whose value is the lower bound, and per t the
    distinct incoming states of the stage-t backward duals, taken from
    num_paths paths walked to stage T-1 (at T = 2, stage 1 alone).
    """
    inst = oracle.inst
    sol1 = oracle.solve_stage(1, 0, np.zeros(inst.I))
    trial_states: dict[int, list[tuple[int, ...]]] = {t: [] for t in range(2, inst.T + 1)}
    if inst.T >= 2:
        trial_states[2].append(sol1.x_bits)
    for _ in range(num_paths):
        for t, sol in enumerate(_sample_path(oracle, sol1, rng, inst.T - 1), start=3):
            if sol.x_bits not in trial_states[t]:
                trial_states[t].append(sol.x_bits)
    return sol1, trial_states


def _sample_path(oracle: StageOracle, sol1: StageSolution, rng: np.random.Generator,
                 last: int):
    """Yield the stage solutions of one path from the stage-1 solution,
    stages 2..last, each stage's realization drawn from the worst-case
    distribution of the stage before."""
    sol = sol1
    for t in range(2, last + 1):
        x_prev = np.array(sol.x_bits, dtype=float)
        wc = oracle.worst_case(t, x_prev, sol.theta)
        k = int(rng.choice(oracle.inst.K, p=wc.sampling_weights(oracle.risk_spec(t - 1))))
        sol = oracle.solve_stage(t, k, x_prev)
        yield sol


def _is_sampled(inst: Instance) -> bool:
    """Whether the policy is evaluated by sampled paths: more than two
    stages and a support tree with more than TREE_LIMIT scenarios."""
    return inst.T > 2 and inst.K ** (inst.T - 1) > TREE_LIMIT


def backward_pass(oracle: StageOracle, trial_states) -> CutPool:
    """Append one multi-cut family per (stage, realization, trial state)
    to the oracle's pool, each from the Lagrangian dual at that state: a
    stage's searches in lockstep where it batches, else one after another
    (see StageOracle)."""
    inst, pool = oracle.inst, oracle.pool
    for t in range(inst.T, 1, -1):
        jobs = [(x_hat, k) for x_hat in trial_states.get(t, ()) for k in range(inst.K)]
        for group in [jobs] if oracle.batches(t) else [[job] for job in jobs]:
            cuts = lagrangian_dual(
                lambda steps, group=group: oracle.relaxed_values(
                    t, [(group[j][1], pi) for j, pi in steps]),
                [x_hat for x_hat, _ in group])
            for (_, k), (pi, v) in zip(group, cuts):
                pool.add(t, k, Cut(v=v, pi=pi))
    return pool


def evaluate_policy(oracle: StageOracle, rng: np.random.Generator):
    """Upper-bound evaluation of the current policy; see module docstring."""
    inst = oracle.inst

    @functools.cache
    def continuation(t: int, x_bits) -> float:
        """The worst case over stage t+1 from the stage-t state x_bits
        (none past the terminal stage), with the K stage-(t+1) solves as
        one batch."""
        if t == inst.T:
            return 0.0
        x = np.array(x_bits, dtype=float)
        q = [sol.value if t + 1 == inst.T else sol.g_cost + continuation(t + 1, sol.x_bits)
             for sol in oracle.solve_stages(t + 1, x, range(inst.K))]
        return oracle.worst_case(t + 1, x, q).value

    sol1 = oracle.solve_stage(1, 0, np.zeros(inst.I))
    if not _is_sampled(inst):
        mode = "exact" if inst.T == 2 else "tree"
        return sol1.g_cost + continuation(1, sol1.x_bits), 0.0, mode
    costs = np.array([sum((sol.g_cost for sol in _sample_path(oracle, sol1, rng, inst.T)),
                          sol1.g_cost) for _ in range(UB_PATHS)])
    return float(costs.mean()), float(costs.std(ddof=1) / np.sqrt(len(costs))), "sampled"


def run(inst: Instance, ttype: int, config: SddipConfig | None = None) -> SolveReport:
    """Iterate forward/backward passes to convergence; see SolveReport."""
    cfg = config or SddipConfig()
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
            sol1, trial_states = forward_pass(oracle, cfg.num_paths, rng)
            lb = sol1.value
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
    report.counters = {**oracle.counters, "dual_probes": oracle.dual_bound.probes}
    report.eigen_cuts_per_stage = {
        str(t): len(v) for t, v in sorted(oracle._eigen_rows.items())}
    report.wall_time = time.perf_counter() - t_start
    return report


def run_type3_bounds(inst: Instance, config: SddipConfig | None = None):
    """Lower and upper bound runs for the Type 3 model; asserts lb <= ub."""
    cfg = config if config is not None else SddipConfig()
    t0 = time.perf_counter()
    lb_report = run(inst, 3, replace_config(cfg, bound_mode="lb"))
    ub_report = run(inst, 3, replace_config(cfg, bound_mode="ub"))
    lb = lb_report.lb_per_iter[-1]
    ub = ub_report.ub_estimate
    if lb > ub + SANDWICH_REL_SLACK * max(1.0, abs(ub)):
        raise AssertionError(f"bound sandwich violated: lb={lb} > ub={ub}")
    lb_report.wall_time = time.perf_counter() - t0
    return lb_report, ub_report

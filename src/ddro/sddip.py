"""Decomposition engine: forward passes, backward passes that price
Lagrangian cuts, cut pooling, bound tracking, and termination.

A cut (v, pi) for the stage value function comes from relaxing a binary
copy of the incoming state: for ANY multiplier pi, the relaxed stage
value L(pi) satisfies Q(x, xi) >= L(pi) + pi'x for every binary x, so
early stopping of the dual search is always safe.  Every cut comes from
one route, Polyak steps on the dual with best-iterate retention
(lagrangian_dual over StageOracle.relaxed_values), aimed at the dual's
known optimum: trial states are binary, and at a binary x_hat the dual
optimum is the pinned stage value h(x_hat), which the oracle's stage
cache supplies.  A cut is tight at its trial state once its dual value
meets that target, or once a step's relaxed solution z* equals x_hat.
A search that stops short still leaves a valid cut; since Optimal needs
an exactly evaluated upper bound to meet the lower bound, a loose cut
costs iterations or ends the run in BoundLimit, never in a wrong
Optimal.

Each iteration starts with the policy evaluation (evaluate_policy),
whose stage-1 solve gives the lower bound and whose result, the current
policy's exact worst-case cost at every T, the upper bound: a recursion
that solves every realization at every state the policy visits, the K
of a state together.  The forward pass then only samples trial states,
reading the evaluation's solves back from the stage cache; an
iteration that closes its gap or stalls walks none.  The backward pass
sends each stage's missing targets with the K relaxed solves at pi = 0,
which every trial state's search shares, and then steps the stage's
searches in lockstep.  Each of these -- a state's K children in the
evaluation, a stage's targets and first step, a step of its searches
-- is one call of StageOracle.solve_level, and at every stage without
a cut loop -- all but the PSD stages of the Type 3 "lb" route -- its
MILPs go to HiGHS as one batch (StageOracle): HiGHS's fixed
cost per call, not the size of the model, sets the cost of these small
MILPs.  A stage solve at a pinned state outside a batch is split on
its facility states, one copy per state with the binaries fixed, and
its decision among tied states follows a fixed rule
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
from .lpmilp import (OPTIMAL, LinearModel, RowBlock, Solution, round_integral,
                     solve_fixed_milps, solve_milp, solve_milps)
from .model import Instance, budget_states, set_stage_data
from .reformulate import (DualBound, VarLayout, add_cut_rows, build_stage, default_dual_bound,
                          solve_with_dual_bound)
# perfbench/spans.py traces solve_lp and build_stage_block by these names;
# neither is called here
from .lpmilp import solve_lp  # noqa: F401
from .model import build_stage_block  # noqa: F401

LB_MONOTONE_SLACK = 1e-9
SUBGRADIENT_ITERS = 50  # most steps of one Lagrangian dual search
STALL_WINDOW = 5  # iterations over which an unmoved lb means a stall
SANDWICH_REL_SLACK = 1e-6  # run_type3_bounds accepts lb <= ub + this * max(1, |ub|)
# A pinned solve with more budget-feasible states is not split: the copies
# cost about linearly in their number (10 copies of the benchmark's
# 122-column I = 9 model took 2.8 ms, that model whole 13 ms), and
# enumeration stops past this many.
SPLIT_STATES = 16
SPLIT_TIE_REL = 1e-7  # states within this * max(1, |best|) of the best value tie


class RelaxedStateEmpty(RuntimeError):
    """A relaxed stage solve, whose free copy z may reach states no trial
    state leads to, reached one whose next ambiguity set is empty."""


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
    """What a run found and did.  ub_estimate is the exact worst-case
    cost of the last iteration's policy (evaluate_policy), NaN only if
    the run ended before evaluating one; the run is Optimal once it is
    within tol of the last lower bound.  stage_solves counts stage
    solves, not MILPs: every stage model solved, the relaxed solves of
    the Lagrangian duals, the pinned solves of their targets that miss
    the stage cache (none at T = 2, where the policy evaluation has
    solved them), and the big-M probes and re-solves among them.  A
    stage solve on the Type 3 "lb" route is one eigen-cut loop of
    several LPs and MILPs, and a hit of the stage cache is no solve.
    dual_solves counts the relaxed evaluations of the duals alone: per
    backward stage, K at pi = 0, which all of the stage's searches share
    whatever the number of trial states, and then one per search per
    further step.
    counters holds the oracle's split_solves, split_blocks and
    split_fallbacks (see StageOracle), psd_milp_rounds and psd_lp_solves,
    the MILP rounds and fixed-integer LP solves of the Type 3 "lb"
    route's eigen-cut loops (misdp.solve_misdp_outer; 0 on other
    routes), and dual_probes, the flat-face probes of the run's big-M
    (reformulate.DualBound.probes)."""

    lb_per_iter: list[float] = field(default_factory=list)
    eigen_cuts_per_stage: dict = field(default_factory=dict)
    ub_estimate: float = float("nan")
    gap: float = float("nan")
    first_stage_x: list[int] = field(default_factory=list)
    iterations: int = 0
    stage_solves: int = 0
    dual_solves: int = 0
    dual_escalations: int = 0
    wall_time: float = 0.0
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
    (k, x_prev, pi) jobs at one stage, which solve_level sends: the
    pinned states that miss the stage cache, then the relaxed jobs with
    a free copy of the state.  A stage without a cut loop (the
    terminal stage, every Type 1/2 stage, every Type 3 "ub" stage) solves
    two or more jobs as one block-diagonal MILP searched at its root
    alone (lpmilp.solve_milps).  Each block, in job order, is the first
    round of its own reformulate.solve_with_dual_bound: the blocks are
    audited in turn, a flagged one probes at 10x the big-M from its batch
    solution, which is neither solved nor counted again, and an
    escalation solves the jobs after it again, at the new big-M, as a new
    batch.  dual_bound counts the escalations and the probes of the run.
    Type 2 stage models of a rank-deficient support carry the hull rows
    of reformulate.build_type2_stage, so their duals have no free
    direction to leave at the box: a flag there means an empty set at
    the solution's state, which the emptiness hook reports before the
    probe, or a big-M too small.  The first batch of a stage that does
    not close at its root ends batching for that stage alone,
    whose jobs then run one by one: models that branch, or take tens of
    milliseconds, cost more batched.  Type 3 "lb" stages with PSD blocks
    never batch, since each of their solves is a cut loop: their jobs run
    one by one, in job order.
    Stage models are compiled once and re-solved by patching: the oracle
    keeps one model per (stage, big-M), whose rows are assembled once
    (see lpmilp.LinearModel).  In each, the incoming state is the binary
    copy z.  A solve takes a copy
    and writes its data (model.set_stage_data): the demand right-hand
    sides of the realization, and the bounds of z -- pinned at the state,
    or, for the Lagrangian relaxation, free in [0, 1] with costs -pi.
    On the "ub" route the kept model carries the DD rows of its PSD
    blocks, and on the "lb" route their seed rows
    (misdp.add_dd_star_rows), the fixed DD* directions that start the
    cut loop, written once when it is compiled; seed rows are not eigen
    rows, and eigen_cuts_per_stage does not count them.  Each solve
    appends only what the kept model lacks: for the cut rows, a copy
    extended by the pool's cuts is kept while the number of cuts in the
    stage's pool is unchanged; the eigen rows of the "lb" route, stored
    as the cut loop appended them, are replayed per solve.  The solved
    model equals a fresh build that adds the stage block, the DD or seed
    rows, the cuts and the eigen rows in that order.
    The stage cache holds one entry per pinned solve, keyed on (t, k,
    state, cuts in the pool of stage t+1).  On the "lb" route a hit may
    come from a model with fewer eigen rows than a solve would replay
    now, and its value is still a lower bound: a stage's eigen rows are
    only appended, so the model the hit solved -- stage block, seed rows
    and cuts as now, the eigen rows stored then and those its cut loop
    appended -- has a subset of the rows of the current one, and so
    relaxes it; its value is at most a fresh solve's.  Every eigen row
    v'Mv >= 0 holds on the whole PSD cone, so either value is at most the
    stage value of the MISDP, and any cut or bound built on it stays
    valid; SDDiP needs valid cuts and bounds, not one solve order (Zou,
    Ahmed & Sun 2019).  A flat-face probe at 10x the big-M
    (reformulate.solve_with_dual_bound) may append rows after the
    accepted solve, which is the entry stored.  Other routes append no
    eigen rows.  An escalation of the big-M bound drops the kept models
    along with the stage cache.
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
    the split solves, their copies and the solves that fell back, and
    the MILP rounds and LP solves of every eigen-cut loop
    (misdp.PSD_COUNTERS).
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
        self._eigen_rows: dict[int, RowBlock] = {}
        self._worst: dict[tuple, WorstCase] = {}
        # whether stage t batches: not where a cut loop runs, and not after
        # one of its batches failed at its root
        self._batching = {t: config.bound_mode != "lb" or t == inst.T
                          for t in range(1, inst.T + 1)}
        # whether stage t splits its pinned solves: not after one split failed
        self._splitting = dict.fromkeys(range(1, inst.T + 1), True)
        self._states: dict[tuple, list | None] = {}
        self.counters = dict.fromkeys(
            ("split_solves", "split_blocks", "split_fallbacks", *misdp.PSD_COUNTERS), 0)

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
        return self.solve_level(t, [(k, x_prev)])[0][0]

    def solve_level(self, t: int, pinned, relaxed=()):
        """(solve_stage(t, k, x_prev) of each (k, x_prev) in pinned,
        relaxed_values(t, relaxed)), from one _solve_jobs call: the
        stage-cache misses in order, then the relaxed jobs.  On the Type 3
        "lb" route a hit may come from a model with fewer eigen rows than
        a solve would replay now; its value is still a lower bound (see
        StageOracle)."""
        cuts = self.pool.num_cuts(t + 1)
        keys = [(t, k, _bits(x_prev), cuts) for k, x_prev in pinned]
        out = [self._stage_cache.get(key) for key in keys]
        missed = [j for j, sol in enumerate(out) if sol is None]
        jobs = ([(*pinned[j], None) for j in missed]
                + [(k, None, np.asarray(pi, dtype=float)) for k, pi in relaxed])
        self.dual_solves += len(relaxed)
        solved = self._solve_jobs(t, jobs) if jobs else []
        for j, (sol, lay, _) in zip(missed, solved):
            out[j] = self._stage_cache[keys[j]] = self._stage_solution(t, sol, lay)
        return out, [(float(sol.objective), round_integral(sol.x, lay.z_copy))
                     for sol, lay, _ in solved[len(missed):]]

    def relaxed_values(self, t: int, jobs):
        """(L(pi), z*) of each (k, pi) job, as one batch: the stage-t
        model at realization k with a free binary copy z of the incoming
        state and objective term -pi'z, and its relaxed copy z*."""
        return self.solve_level(t, (), jobs)[1]

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
        return [(sol, lay, blocks) for sol, (_, lay, blocks) in zip(sols, built)]

    def _solve_compiled(self, t: int, k: int, x_prev, pi, first=None):
        """Build and solve a compiled stage model through
        reformulate.solve_with_dual_bound, from the _solve_once result
        first if given, with the emptiness check of the next stage's
        ambiguity set as its hook; returns the accepted _solve_once
        result, its blocks checked for PSD on the "ub" route, batched or
        lone.  An escalation is permanent for the run, so it empties the
        stage cache and drops the kept models.  A relaxed solve raises
        RelaxedStateEmpty in place of EmptyAmbiguity: the policy
        evaluation solves every trial state pinned before the backward
        pass relaxes it, so an empty set reachable from it has ended the
        run Unbounded."""
        def check_nonempty(sol, lay):
            x_hat = round_integral(sol.x, lay.x)
            if not is_nonempty(self.inst, self.ttype, x_hat, stage=t + 1):
                msg = f"stage {t + 1} ambiguity set empty at state {[int(b) for b in x_hat]}"
                if x_prev is None:
                    raise RelaxedStateEmpty(f"{msg}, reached by a relaxed stage-{t} solve")
                raise EmptyAmbiguity(msg, stage=t + 1, x=x_hat)

        escalations = self.dual_bound.escalations
        out = solve_with_dual_bound(lambda b: self._solve_once(t, k, x_prev, pi, b),
                                    self.dual_bound, check_nonempty, first)
        if self.dual_bound.escalations != escalations:
            self._stage_cache.clear()
            self._compiled.clear()
        if self.config.bound_mode == "ub":
            misdp.audit_inner_psd(out[2], out[0].x)
        return out

    def _stage_model(self, t: int, k: int, x_prev, pi, dual_bound: float):
        """(model, layout, PSD blocks) of one stage-t solve at big-M
        dual_bound: a copy of the kept model (DD rows included on the "ub"
        route, seed rows on the "lb" route) with the pool's cuts, the eigen
        rows found so far, the data of (k, x_prev) and the costs -pi."""
        inst = self.inst
        comp = self._compiled.get((t, dual_bound))
        if comp is None:
            model, lay, blocks = build_stage(
                inst, int(self.ttype), t, np.zeros(inst.I), np.zeros(inst.J),
                risk=self.risk_spec(t), dual_bound=dual_bound)
            if self.config.bound_mode == "ub" and blocks:
                misdp.add_dd_inner_general(model, blocks)
            elif self.config.bound_mode == "lb" and blocks:
                misdp.add_dd_star_rows(model, blocks)
            model.validate()
            comp = self._compiled[(t, dual_bound)] = _Compiled(model, lay, blocks)
        cuts = self.pool.num_cuts(t + 1)
        if comp.cuts != cuts:
            extended = comp.model.copy()
            add_cut_rows(extended, comp.lay, self.pool.rows_for_stage_model(t))
            extended.validate()
            comp.cuts, comp.extended = cuts, extended
        model = comp.extended.copy()
        eigen = self._eigen_rows.get(t)
        if eigen is not None:
            model.add_rows(eigen.cols, eigen.vals, ">=", 0.0, start=eigen.start)
        set_stage_data(model, comp.lay.dem, comp.lay.z_copy, x_prev,
                       inst.stage_support(t)[k], pi)
        return model, comp.lay, comp.blocks

    def _solve_once(self, t: int, k: int, x_prev, pi, dual_bound):
        """(solution, layout, PSD blocks) of one stage-t solve at big-M
        dual_bound, storing the eigen rows its cut loop appended."""
        model, lay, blocks = self._stage_model(t, k, x_prev, pi, dual_bound)
        split = None if x_prev is None else functools.partial(self._split, t, x_prev, lay.x)
        if self.config.bound_mode == "lb" and blocks:  # no PSD blocks at the terminal stage
            done = model.num_rows
            sol = misdp.solve_misdp_outer(model, blocks, split, self.counters)
            if model.num_rows > done:
                found = model.rows(done)
                self._eigen_rows[t] = (RowBlock.join([self._eigen_rows[t], found])
                                       if t in self._eigen_rows else found)
        else:
            sol = (split and split(model)) or solve_milp(model)
        self.stage_solves += 1
        if sol.status != OPTIMAL:
            raise RuntimeError(f"stage {t} solve returned {sol.status}")
        return sol, lay, blocks

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


def lagrangian_dual(evaluate, x_hats, targets, first):
    """Searches in lockstep, one per trial state x_hat with target h,
    each maximizing g(pi) = L(pi) + pi'x_hat of its relaxed stage from
    pi = 0, whose (L(0), z*) first gives, by Polyak's step for a known
    optimum: pi += (h - g(pi)) / |x_hat - z*|^2 * (x_hat - z*), at most
    SUBGRADIENT_ITERS steps.  evaluate([(search, pi)]) returns
    [(L(pi), z*)], called once a step with the searches still active.  A
    search stops once z* equals x_hat, or once its best g reaches
    h - 1e-9 * max(1, |h|).  Returns the best (pi, L(pi)) of each search.

    Why h, the pinned stage value at x_hat, is the dual optimum: with
    the copy z binary and h(z) the stage value at state z (+inf where
    infeasible), max over pi of g(pi) = max_pi min_z h(z) + pi'(x_hat - z)
    is the convex envelope of h at x_hat, by LP duality over the finitely
    many z.  A binary x_hat is a vertex of the cube, so the only convex
    combination of binary points equal to it is x_hat itself, and the
    envelope there is h(x_hat).  So g never exceeds h, a search that
    meets its target (z* = x_hat gives g(pi) = h(x_hat) exactly) holds a
    cut tight at x_hat, and x_hat - z* is a supergradient of the concave
    g, along which the step closes the gap h - g in the linear model.
    Any pi still gives a valid cut: L(pi) <= h(z) - pi'z for every binary
    z, so L(pi) + pi'x <= h(x) at every binary state x.  A target that g
    reaches early, as where the Type 3 "lb" route appends eigen rows
    after the pinned solve and so raises the relaxed stage above it,
    stops the search there with a valid cut.
    """
    x_hats = [np.asarray(x, dtype=float) for x in x_hats]
    pis = [np.zeros(x.size) for x in x_hats]
    best = [(None, None, -math.inf)] * len(x_hats)  # (pi, L(pi), g(pi)) of the best g
    active, values = list(range(len(x_hats))), first
    for step in range(1 + SUBGRADIENT_ITERS):
        stepping = []
        for j, (L, z_star) in zip(active, values):
            g = L + float(pis[j] @ x_hats[j])
            if g > best[j][2]:
                best[j] = (pis[j], L, g)
            h, d = targets[j], x_hats[j] - z_star
            if d.any() and best[j][2] < h - 1e-9 * max(1.0, abs(h)):
                pis[j] = pis[j] + (h - g) / float(d @ d) * d
                stepping.append(j)
        active = stepping
        if not active or step == SUBGRADIENT_ITERS:
            break
        values = evaluate([(j, pis[j]) for j in active])
    return [(pi, L) for pi, L, _ in best]


def forward_pass(oracle: StageOracle, num_paths: int, rng: np.random.Generator):
    """Sample trial states under the stage-wise worst-case distributions.

    Returns (first_stage, trial_states): the stage-1 solution under the
    oracle's current pool and per t the distinct incoming states of the
    stage-t backward duals, taken from num_paths paths walked to stage
    T-1 (at T = 2, stage 1 alone).  Each path draws its realization at
    stage t from the worst case at its state, with the stage-(t-1)
    continuation proxies as stage values.  Run after evaluate_policy
    under the same pool, as run does, every stage solve it asks for is a
    hit of the stage cache, since the evaluation solved every
    realization at every state the policy visits; so it draws and reads,
    and solves nothing, unless a big-M escalation emptied the cache
    meanwhile.
    """
    inst = oracle.inst
    sol1 = oracle.solve_stage(1, 0, np.zeros(inst.I))
    trial_states: dict[int, list[tuple[int, ...]]] = {t: [] for t in range(2, inst.T + 1)}
    if inst.T >= 2:
        trial_states[2].append(sol1.x_bits)
    for _ in range(num_paths):
        sol = sol1
        for t in range(2, inst.T):
            x_prev = np.array(sol.x_bits, dtype=float)
            wc = oracle.worst_case(t, x_prev, sol.theta)
            k = int(rng.choice(inst.K, p=wc.sampling_weights(oracle.risk_spec(t - 1))))
            sol = oracle.solve_stage(t, k, x_prev)
            if sol.x_bits not in trial_states[t + 1]:
                trial_states[t + 1].append(sol.x_bits)
    return sol1, trial_states


def backward_pass(oracle: StageOracle, trial_states) -> CutPool:
    """Append one multi-cut family per (stage, realization, trial state)
    to the oracle's pool, each from the Lagrangian dual at that state,
    aimed at the pinned stage value there.  From stage T down to 2, one
    solve_level call per stage gives the targets of all its trial states
    -- through the stage cache, so at the terminal stage the policy
    evaluation has solved them all, and below it only the cuts just
    added make them miss -- together with the first step of every
    search: L_k(0), with z free and no multiplier term, does not depend
    on x_hat, so the K relaxed solves at pi = 0 serve every trial state.
    The stage's searches then step in lockstep: each step's relaxed
    solves go to relaxed_values together, which batches them where the
    stage batches and else solves them in job order (see StageOracle)."""
    inst, pool = oracle.inst, oracle.pool
    K = inst.K
    for t in range(inst.T, 1, -1):
        x_hats = trial_states.get(t, ())
        if not x_hats:
            continue
        targets, first = oracle.solve_level(
            t, [(k, np.array(x_hat, dtype=float)) for x_hat in x_hats for k in range(K)],
            [(k, np.zeros(inst.I)) for k in range(K)])
        cuts = lagrangian_dual(
            lambda steps: oracle.relaxed_values(t, [(j % K, pi) for j, pi in steps]),
            [x_hat for x_hat in x_hats for _ in range(K)], [sol.value for sol in targets],
            first * len(x_hats))
        for j, (pi, v) in enumerate(cuts):
            pool.add(t, j % K, Cut(v=v, pi=pi))
    return pool


def evaluate_policy(oracle: StageOracle) -> float:
    """The current policy's exact worst-case cost, an upper bound: its
    stage-1 cost plus continuation(1, x_1), where continuation(t, x) is
    the worst case at (t+1, x), under the stage-t risk blend, of the
    costs g_k + continuation(t+1, x_k) of the K stage-(t+1) decisions
    at x, and continuation(T, .) = 0.  A decision at (t, k, x_prev)
    depends only on the state (the pool is fixed meanwhile, and the
    stage cache keyed on it), the worst case at (t+1, x) only on x and
    its costs, and the risk blend only on the stage; so continuation,
    memoized on (t, x), runs once per visited pair, and its K stage
    solves are one solve_level call, whose stage-cache misses HiGHS
    solves as one batch where the stage batches.  With R_t the states
    reachable at stage t, one evaluation makes at most 1 + sum over t =
    1..T-1 of min(K^(t-1), |R_t|) * K stage solves and one worst case
    per visited state; |R_t| <= 2^I, and the K^(T-1) scenarios are never
    walked."""
    sol1 = oracle.solve_stage(1, 0, np.zeros(oracle.inst.I))
    return sol1.g_cost + _continuation(oracle, {}, 1, sol1.x_bits)


def _continuation(oracle: StageOracle, memo: dict, t: int, x_bits) -> float:
    """The worst case over stage t+1 from the stage-t state x_bits (none
    past the terminal stage), with the K stage-(t+1) solves as one call,
    memoized in memo on (t, x_bits).  A module function, not a memoized
    closure: a recursive closure is a reference cycle, which would keep
    the oracle, with its models and HiGHS handles, alive after the run
    until the cyclic garbage collector runs."""
    inst = oracle.inst
    if t == inst.T:
        return 0.0
    if (t, x_bits) not in memo:
        x = np.array(x_bits, dtype=float)
        sols, _ = oracle.solve_level(t + 1, [(k, x) for k in range(inst.K)])
        q = [sol.value if t + 1 == inst.T
             else sol.g_cost + _continuation(oracle, memo, t + 1, sol.x_bits) for sol in sols]
        memo[t, x_bits] = oracle.worst_case(t + 1, x, q).value
    return memo[t, x_bits]


def run(inst: Instance, ttype: int, config: SddipConfig | None = None) -> SolveReport:
    """Iterate to convergence; see SolveReport.  Each iteration first
    evaluates its policy (evaluate_policy), whose cost is the upper
    bound, and reads the stage-1 solution it solved, whose value is the
    lower bound; an iteration that closes the gap or stalls ends the run
    there, and any other walks its forward pass, which reads the
    evaluation's solves back, and adds the cuts of its backward pass."""
    cfg = config or SddipConfig()
    oracle = StageOracle(inst, ttype, cfg, CutPool(inst.T, inst.K))
    rng = np.random.default_rng(cfg.seed)
    report = SolveReport(ambiguity_type=int(ttype), bound_mode=cfg.bound_mode,
                         seed=cfg.seed)
    t_start = time.perf_counter()
    incumbents: dict[tuple[int, ...], float] = {}
    ub = float("nan")
    try:
        for it in range(1, cfg.max_iters + 1):
            t_iter = time.perf_counter()
            ub = evaluate_policy(oracle)
            sol1 = oracle.solve_stage(1, 0, np.zeros(inst.I))  # solved by the evaluation
            lb = sol1.value
            if report.lb_per_iter and lb < report.lb_per_iter[-1] - LB_MONOTONE_SLACK * max(
                    1.0, abs(lb)):
                raise AssertionError("lower bound decreased across iterations")
            report.lb_per_iter.append(lb)
            report.iterations = it
            w = STALL_WINDOW
            stalled = (len(report.lb_per_iter) >= w and abs(lb - report.lb_per_iter[-w])
                       <= cfg.tol * max(1.0, abs(lb)))
            incumbents[sol1.x_bits] = ub
            gap = (ub - lb) / max(1.0, abs(ub)) if np.isfinite(ub) else float("nan")
            report.iter_rows.append({
                "iter": it, "lb": lb, "ub": ub, "gap": gap,
                "seconds": time.perf_counter() - t_iter,
            })
            if np.isfinite(ub) and ub - lb <= cfg.tol * max(1.0, abs(ub)):
                report.termination = "gap_closed"
                break
            if stalled:
                report.termination = "lb_stalled"
                break
            _, trial_states = forward_pass(oracle, cfg.num_paths, rng)
            backward_pass(oracle, trial_states)
        else:
            report.termination = "max_iters"
        report.status = "Optimal" if report.termination == "gap_closed" else "BoundLimit"
    except EmptyAmbiguity as exc:
        report.status = "Unbounded"
        report.termination = f"empty_ambiguity_stage_{exc.stage}"
    report.ub_estimate = ub
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
    """Lower and upper bound runs for the Type 3 model; asserts lb <= ub
    unless either run ended Unbounded, which has no bound to compare."""
    cfg = config if config is not None else SddipConfig()
    t0 = time.perf_counter()
    lb_report = run(inst, 3, replace_config(cfg, bound_mode="lb"))
    ub_report = run(inst, 3, replace_config(cfg, bound_mode="ub"))
    if "Unbounded" not in (lb_report.status, ub_report.status):
        lb = lb_report.lb_per_iter[-1]
        ub = ub_report.ub_estimate
        if lb > ub + SANDWICH_REL_SLACK * max(1.0, abs(ub)):
            raise AssertionError(f"bound sandwich violated: lb={lb} > ub={ub}")
    lb_report.wall_time = time.perf_counter() - t0
    return lb_report, ub_report

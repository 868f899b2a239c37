"""LP/MILP core for the stage subproblems.

A thin, deterministic layer over HiGHS exposing the model container used
throughout the kit: bounded variables with continuous/integer/binary
flags, single-relation rows, minimization objective, constraint duals
and reduced costs on LP solves, and a CPLEX-LP-dialect text export for
cross-checking against external solvers.  Dual values follow the
sensitivity convention: the marginal is the derivative of the optimal
objective with respect to the row's right-hand side.

Models are solved on HiGHS handles from the bindings scipy bundles, not
through scipy.optimize.milp/linprog, whose per-call option checks and
input validation cost more than HiGHS itself on the small stage models
here.  Each thread keeps two handles, one for MILPs and one for LPs,
and gives each its fixed options once; an option HiGHS rejects raises
HighsCallError.  A solve passes the model as one row-wise matrix with
row bounds, sets the options that vary per call, and runs.

MILP options: mip_rel_gap = 0 (each solve is proved optimal) and
mip_heuristic_run_feasibility_jump = False, fixed; per call,
mip_max_nodes = SolverConfig.node_limit and presolve on (off only for
the retry of a model presolve mislabels).  Feasibility Jump is a primal
heuristic HiGHS 1.12 runs before every MILP, at a fixed cost per call
that dominates the small stage models here: an 18-column, 15-row
terminal block took 11 ms per solve with it and 4.7 ms without (one
node either way, 2-core Xeon).  LP options: presolve on, fixed; per
call, an iteration cap of 10*(n + m + SolverConfig.iteration_cap_base).

A solver invocation is single-threaded and reentrant; distinct
LinearModel values may be solved from several threads.  MILP solves
then run one at a time: under a module lock, each points file
descriptor 1 at descriptor 2, to keep HiGHS's stray lines off stdout,
and restores it when the solve ends.
"""

from __future__ import annotations

import os
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy import sparse

# scipy's bundled HiGHS bindings are a private module: every name ddro
# uses from it is imported here, and tests/test_highs_bindings.py fails
# by name if a scipy release moves one.
from scipy.optimize._highspy._core import (HighsLp, HighsModelStatus, HighsStatus,
                                           HighsVarType, MatrixFormat, _Highs,
                                           kSolutionStatusFeasible)

CONTINUOUS = 0
INTEGER = 1
BINARY = 2

_KIND_NAMES = {CONTINUOUS: "continuous", INTEGER: "integer", BINARY: "binary"}
_RELATIONS = ("<=", "=", ">=")

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"
GAP_LIMIT = "GapLimit"


class NumericalFailure(RuntimeError):
    """Solver hit its iteration cap or reported a numerical breakdown."""


@dataclass(frozen=True)
class SolverConfig:
    """Solver limits, centralized.

    The other HiGHS options are fixed, not configurable, and set once
    per kept handle: MILP solves run with mip_rel_gap = 0, so every
    solve is proved optimal, with presolve on, and with the Feasibility
    Jump heuristic off, which saved about 6 ms per stage MILP (see the
    module docstring).
    """

    node_limit: int = 200_000  # a MILP stopped here reports GapLimit
    iteration_cap_base: int = 1000  # LP iteration cap = 10*(n + m + base)


DEFAULT_CONFIG = SolverConfig()


class LinearModel:
    """Mixed-integer linear model: minimize c'x subject to rows and bounds."""

    def __init__(self) -> None:
        self.objective: list[float] = []
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.integrality: list[int] = []
        self.names: list[str] = []
        self.row_cols: list[np.ndarray] = []
        self.row_vals: list[np.ndarray] = []
        self.row_rel: list[str] = []
        self.row_rhs: list[float] = []
        self.row_names: list[str] = []

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @property
    def num_rows(self) -> int:
        return len(self.row_rhs)

    def add_var(self, lb: float, ub: float, kind: int = CONTINUOUS,
                obj: float = 0.0, name: str | None = None) -> int:
        if lb > ub:
            raise ValueError(f"lb {lb} > ub {ub}")
        if kind == BINARY and (lb < 0.0 or ub > 1.0):
            raise ValueError("binary variable bounds must lie within [0, 1]")
        idx = self.num_vars
        self.objective.append(float(obj))
        self.lower.append(float(lb))
        self.upper.append(float(ub))
        self.integrality.append(int(kind))
        self.names.append(name if name is not None else f"v{idx}")
        return idx

    def add_vars(self, count: int, lb: float, ub: float, kind: int = CONTINUOUS,
                 prefix: str = "v") -> np.ndarray:
        return np.array([self.add_var(lb, ub, kind, name=f"{prefix}{self.num_vars}")
                         for _ in range(count)], dtype=int)

    def add_row(self, coeffs, rel: str, rhs: float, name: str | None = None) -> int:
        """Append a constraint; coeffs is a {col: val} dict or (cols, vals) pair."""
        if rel not in _RELATIONS:
            raise ValueError(f"relation must be one of {_RELATIONS}")
        if isinstance(coeffs, dict):
            cols = np.fromiter(coeffs.keys(), dtype=int, count=len(coeffs))
            vals = np.fromiter(coeffs.values(), dtype=float, count=len(coeffs))
        else:
            cols, vals = coeffs
            cols = np.asarray(cols, dtype=int)
            vals = np.asarray(vals, dtype=float)
        if cols.size and (cols.min() < 0 or cols.max() >= self.num_vars):
            raise ValueError("row references unknown column")
        idx = self.num_rows
        self.row_cols.append(cols)
        self.row_vals.append(vals)
        self.row_rel.append(rel)
        self.row_rhs.append(float(rhs))
        self.row_names.append(name if name is not None else f"r{idx}")
        return idx

    def set_objective(self, col: int, coef: float) -> None:
        self.objective[col] = float(coef)

    def add_objective(self, col: int, coef: float) -> None:
        self.objective[col] += float(coef)

    def set_bounds(self, col: int, lb: float, ub: float) -> None:
        if lb > ub:
            raise ValueError(f"lb {lb} > ub {ub}")
        self.lower[col] = float(lb)
        self.upper[col] = float(ub)

    def dense_row(self, r: int) -> np.ndarray:
        row = np.zeros(self.num_vars)
        np.add.at(row, self.row_cols[r], self.row_vals[r])
        return row

    def copy(self) -> "LinearModel":
        m = LinearModel()
        m.objective = list(self.objective)
        m.lower = list(self.lower)
        m.upper = list(self.upper)
        m.integrality = list(self.integrality)
        m.names = list(self.names)
        m.row_cols = list(self.row_cols)
        m.row_vals = list(self.row_vals)
        m.row_rel = list(self.row_rel)
        m.row_rhs = list(self.row_rhs)
        m.row_names = list(self.row_names)
        return m

    def validate(self) -> None:
        if not np.all(np.isfinite(self.objective)):
            raise ValueError("objective coefficients must be finite")
        if self.row_vals and not np.all(np.isfinite(np.concatenate(self.row_vals))):
            raise ValueError("constraint coefficients must be finite")
        if np.any(np.isnan(self.row_rhs)):
            raise ValueError("right-hand sides must not be NaN")
        lower, upper = np.asarray(self.lower), np.asarray(self.upper)
        if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
            raise ValueError("variable bounds must not be NaN")
        bad = (np.asarray(self.integrality) == BINARY) & ((lower < 0.0) | (upper > 1.0))
        if np.any(bad):
            name = self.names[int(np.flatnonzero(bad)[0])]
            raise ValueError(f"binary variable {name} has bounds outside [0, 1]")

    def _matrix(self) -> sparse.csr_matrix:
        if not self.num_rows:
            return sparse.csr_matrix((0, self.num_vars))
        indptr = np.zeros(self.num_rows + 1, dtype=np.int64)
        np.cumsum([cols.size for cols in self.row_cols], out=indptr[1:])
        a = sparse.csr_matrix(
            (np.concatenate(self.row_vals), np.concatenate(self.row_cols), indptr),
            shape=(self.num_rows, self.num_vars),
        )
        a.sum_duplicates()  # a column repeated in a row sums, as in COO input
        return a


@dataclass
class LpSolution:
    status: str
    x: np.ndarray | None
    objective: float | None
    duals: np.ndarray | None
    reduced_costs: np.ndarray | None


@dataclass
class MipSolution:
    status: str
    x: np.ndarray | None
    objective: float | None
    best_bound: float | None
    node_count: int = 0


class HighsCallError(RuntimeError):
    """HiGHS rejected a call: an option it does not know or a model it
    cannot load."""


# Options each kept handle is given once; see the module docstring.
_FIXED_OPTIONS = {
    "milp": {"output_flag": False, "mip_rel_gap": 0.0,
             "mip_heuristic_run_feasibility_jump": False},
    "lp": {"output_flag": False, "presolve": "on"},
}
_handles = threading.local()
_VAR_TYPES = (HighsVarType.kContinuous, HighsVarType.kInteger)


def _handle(kind: str) -> _Highs:
    """This thread's kept HiGHS handle for "milp" or "lp" solves."""
    highs = getattr(_handles, kind, None)
    if highs is None:
        highs = _Highs()
        _set_options(highs, _FIXED_OPTIONS[kind])
        setattr(_handles, kind, highs)
    return highs


def _set_options(highs: _Highs, options: dict) -> None:
    for name, value in options.items():
        if highs.setOptionValue(name, value) != HighsStatus.kOk:
            raise HighsCallError(f"HiGHS rejected option {name} = {value!r}")


def _highs_lp(model: LinearModel, integer: bool) -> HighsLp:
    """The model as one HighsLp: the row-wise matrix with row bounds."""
    model.validate()
    a = model._matrix()
    rhs = np.asarray(model.row_rhs)
    rel = np.asarray(model.row_rel, dtype="<U2")
    lp = HighsLp()
    lp.num_col_ = model.num_vars
    lp.num_row_ = model.num_rows
    lp.col_cost_ = np.asarray(model.objective)
    lp.col_lower_ = np.asarray(model.lower)
    lp.col_upper_ = np.asarray(model.upper)
    lp.row_lower_ = np.where(rel == "<=", -np.inf, rhs)
    lp.row_upper_ = np.where(rel == ">=", np.inf, rhs)
    matrix = lp.a_matrix_
    matrix.format_ = MatrixFormat.kRowwise
    matrix.num_col_ = model.num_vars
    matrix.num_row_ = model.num_rows
    matrix.start_ = a.indptr
    matrix.index_ = a.indices
    matrix.value_ = a.data
    if integer:
        lp.integrality_ = [_VAR_TYPES[kind != CONTINUOUS] for kind in model.integrality]
    return lp


def milp(highs: _Highs, lp: HighsLp) -> None:
    """passModel + run on the thread's MILP handle.

    Every MILP solve calls this module-level name once, so that the
    benchmark's traced run can time HiGHS apart from marshalling by
    patching it; ROADMAP item 1 moves that timing into counters.
    """
    if highs.passModel(lp) == HighsStatus.kError:
        raise HighsCallError("HiGHS could not load the model")
    highs.run()


def linprog(highs: _Highs, lp: HighsLp) -> None:
    """passModel + run on the thread's LP handle; see milp."""
    if highs.passModel(lp) == HighsStatus.kError:
        raise HighsCallError("HiGHS could not load the model")
    highs.run()


def solve_lp(model: LinearModel, config: SolverConfig = DEFAULT_CONFIG) -> LpSolution:
    """Solve the continuous relaxation, returning duals and reduced costs."""
    lp = _highs_lp(model, integer=False)
    highs = _handle("lp")
    cap = 10 * (model.num_vars + model.num_rows + config.iteration_cap_base)
    _set_options(highs, {"simplex_iteration_limit": cap, "ipm_iteration_limit": cap})
    linprog(highs, lp)
    status = highs.getModelStatus()
    info = highs.getInfo()
    if status == HighsModelStatus.kInfeasible:
        return LpSolution(INFEASIBLE, None, None, None, None)
    if status == HighsModelStatus.kUnbounded:
        return LpSolution(UNBOUNDED, None, None, None, None)
    if status != HighsModelStatus.kOptimal:
        raise NumericalFailure(f"LP solve failed: {highs.modelStatusToString(status)}")
    sol = highs.getSolution()
    return LpSolution(OPTIMAL, np.array(sol.col_value),
                      info.objective_function_value,
                      np.array(sol.row_dual), np.array(sol.col_dual))


def solve_milp(model: LinearModel, config: SolverConfig = DEFAULT_CONFIG) -> MipSolution:
    """Exact branch-and-bound solve (zero relative gap) via HiGHS."""
    return _solve_milp_once(model, config, presolve=True)


# A MILP stopped at one of these limits reports GapLimit, with the
# incumbent if it has one.
_LIMITS = (HighsModelStatus.kTimeLimit, HighsModelStatus.kIterationLimit,
           HighsModelStatus.kSolutionLimit)


def _solve_milp_once(model: LinearModel, config: SolverConfig,
                     presolve: bool) -> MipSolution:
    integer = any(kind != CONTINUOUS for kind in model.integrality)
    lp = _highs_lp(model, integer)
    highs = _handle("milp")
    _set_options(highs, {"presolve": "on" if presolve else "off",
                         "mip_max_nodes": config.node_limit})
    with _stdout_to_stderr():
        milp(highs, lp)
    status = highs.getModelStatus()
    info = highs.getInfo()
    nodes = max(info.mip_node_count, 0) if integer else 0
    if status == HighsModelStatus.kInfeasible:
        return MipSolution(INFEASIBLE, None, None, None, nodes)
    if status == HighsModelStatus.kUnbounded:
        return MipSolution(UNBOUNDED, None, None, None, nodes)
    if status in _LIMITS:
        if info.primal_solution_status != kSolutionStatusFeasible:
            return MipSolution(GAP_LIMIT, None, None, info.mip_dual_bound, nodes)
        sol = highs.getSolution()
        return MipSolution(GAP_LIMIT, np.array(sol.col_value),
                           info.objective_function_value, info.mip_dual_bound, nodes)
    if status == HighsModelStatus.kUnboundedOrInfeasible:
        relaxed = solve_lp(model, config)  # classify via the relaxation
        if relaxed.status == UNBOUNDED:
            return MipSolution(UNBOUNDED, None, None, None, nodes)
        if relaxed.status == INFEASIBLE:
            return MipSolution(INFEASIBLE, None, None, None, nodes)
        if relaxed.status == OPTIMAL and presolve:
            # HiGHS presolve mislabels some big-M models whose relaxation
            # is fine; retry the search without it
            return _solve_milp_once(model, config, presolve=False)
    if status != HighsModelStatus.kOptimal:
        raise NumericalFailure(f"MILP solve failed: {highs.modelStatusToString(status)}")
    obj = info.objective_function_value
    bound = info.mip_dual_bound if integer else obj
    sol = highs.getSolution()
    return MipSolution(OPTIMAL, np.array(sol.col_value), obj, bound, nodes)


_stdout_lock = threading.Lock()


@contextmanager
def _stdout_to_stderr():
    """Point file descriptor 1 at descriptor 2 for the block's length.

    HiGHS's MILP search prints lines such as
    "HighsMipSolverData::transformNewIntegerFeasibleSolution tmpSolver.run();"
    straight to descriptor 1, past any Python-level redirect, and would
    corrupt machine-read stdout.  Descriptor 1 is process-wide, so the
    lock lets one swap at a time exist.
    """
    with _stdout_lock:
        sys.stdout.flush()
        saved = os.dup(1)
        os.dup2(2, 1)
        try:
            yield
        finally:
            os.dup2(saved, 1)
            os.close(saved)


def round_integral(sol_x: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Integer values of the given columns, rounded off solver noise."""
    return np.rint(np.asarray(sol_x)[cols]).astype(int)


def _lp_name(name: str) -> str:
    out = "".join(ch if ch.isalnum() or ch in "_." else "_" for ch in name)
    return out if out and not out[0].isdigit() else f"v_{out}"


def _lp_terms(cols: np.ndarray, vals: np.ndarray, names: list[str]) -> str:
    parts = []
    for c, v in zip(cols, vals):
        if v == 0.0:
            continue
        sign = "-" if v < 0 else "+"
        parts.append(f"{sign} {abs(v):.17g} {_lp_name(names[c])}")
    if not parts:
        return "0 " + _lp_name(names[0]) if names else "0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def write_lp(model: LinearModel, path, name: str = "ddro_model") -> None:
    """Export in the CPLEX LP text dialect for external cross-checking."""
    rel_map = {"<=": "<=", "=": "=", ">=": ">="}
    lines = [f"\\ {name}", "Minimize"]
    obj_cols = np.arange(model.num_vars)
    obj_vals = np.asarray(model.objective)
    lines.append(" obj: " + _lp_terms(obj_cols, obj_vals, model.names))
    lines.append("Subject To")
    for r in range(model.num_rows):
        lines.append(
            f" {_lp_name(model.row_names[r])}: "
            + _lp_terms(model.row_cols[r], model.row_vals[r], model.names)
            + f" {rel_map[model.row_rel[r]]} {model.row_rhs[r]:.17g}"
        )
    lines.append("Bounds")
    for i in range(model.num_vars):
        lo, hi = model.lower[i], model.upper[i]
        nm = _lp_name(model.names[i])
        if lo == -np.inf and hi == np.inf:
            lines.append(f" {nm} free")
        elif lo == 0.0 and hi == np.inf:
            continue
        else:
            lo_s = "-inf" if lo == -np.inf else f"{lo:.17g}"
            hi_s = "+inf" if hi == np.inf else f"{hi:.17g}"
            lines.append(f" {lo_s} <= {nm} <= {hi_s}")
    generals = [model.names[i] for i in range(model.num_vars)
                if model.integrality[i] == INTEGER]
    binaries = [model.names[i] for i in range(model.num_vars)
                if model.integrality[i] == BINARY]
    if generals:
        lines.append("Generals")
        lines.extend(" " + _lp_name(nm) for nm in generals)
    if binaries:
        lines.append("Binaries")
        lines.extend(" " + _lp_name(nm) for nm in binaries)
    lines.append("End")
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)

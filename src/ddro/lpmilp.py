"""LP/MILP core for the stage subproblems.

A thin, deterministic layer over scipy's HiGHS interface exposing the
model container used throughout the kit: bounded variables with
continuous/integer/binary flags, single-relation rows, minimization
objective, constraint duals and reduced costs on LP solves, and a
CPLEX-LP-dialect text export for cross-checking against external
solvers.  Dual values follow the sensitivity convention: the marginal is
the derivative of the optimal objective with respect to the row's
right-hand side.

A solver invocation is single-threaded and reentrant; distinct
LinearModel values may be solved from several threads.  MILP solves
then run one at a time: each points file descriptor 1 at descriptor 2,
under a module lock, to keep HiGHS's stray lines off stdout.  There is
no other global state.
"""

from __future__ import annotations

import os
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

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
    """Solver limits, centralized (HiGHS runs with mip_rel_gap = 0)."""

    node_limit: int = 200_000
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
        c = np.asarray(self.objective)
        if not np.all(np.isfinite(c)):
            raise ValueError("objective coefficients must be finite")
        for vals in self.row_vals:
            if not np.all(np.isfinite(vals)):
                raise ValueError("constraint coefficients must be finite")
        for i, kind in enumerate(self.integrality):
            if kind == BINARY and (self.lower[i] < 0.0 or self.upper[i] > 1.0):
                raise ValueError(f"binary variable {self.names[i]} has bounds outside [0, 1]")

    def _matrix(self) -> sparse.csr_matrix:
        data, rows, cols = [], [], []
        for r in range(self.num_rows):
            data.append(self.row_vals[r])
            cols.append(self.row_cols[r])
            rows.append(np.full(self.row_cols[r].size, r, dtype=int))
        if not data:
            return sparse.csr_matrix((0, self.num_vars))
        return sparse.csr_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.num_rows, self.num_vars),
        )


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


def solve_lp(model: LinearModel, config: SolverConfig = DEFAULT_CONFIG) -> LpSolution:
    """Solve the continuous relaxation, returning duals and reduced costs."""
    model.validate()
    n, m = model.num_vars, model.num_rows
    a = model._matrix()
    ub_rows = [r for r in range(m) if model.row_rel[r] != "="]
    eq_rows = [r for r in range(m) if model.row_rel[r] == "="]
    a_ub = b_ub = a_eq = b_eq = None
    sign = np.ones(len(ub_rows))
    if ub_rows:
        sign = np.array([1.0 if model.row_rel[r] == "<=" else -1.0 for r in ub_rows])
        a_ub = sparse.diags(sign) @ a[ub_rows, :]
        b_ub = sign * np.asarray(model.row_rhs)[ub_rows]
    if eq_rows:
        a_eq = a[eq_rows, :]
        b_eq = np.asarray(model.row_rhs)[eq_rows]
    cap = 10 * (n + m + config.iteration_cap_base)
    res = linprog(
        np.asarray(model.objective),
        A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=np.column_stack([model.lower, model.upper]),
        method="highs",
        options={"maxiter": cap, "presolve": True},
    )
    if res.status == 2:
        return LpSolution(INFEASIBLE, None, None, None, None)
    if res.status == 3:
        return LpSolution(UNBOUNDED, None, None, None, None)
    if res.status != 0:
        raise NumericalFailure(f"LP solve failed: {res.message}")
    duals = np.zeros(m)
    if ub_rows:
        duals[ub_rows] = sign * res.ineqlin.marginals
    if eq_rows:
        duals[eq_rows] = res.eqlin.marginals
    reduced = np.asarray(res.lower.marginals) + np.asarray(res.upper.marginals)
    return LpSolution(OPTIMAL, np.asarray(res.x), float(res.fun), duals, reduced)


def solve_milp(model: LinearModel, config: SolverConfig = DEFAULT_CONFIG) -> MipSolution:
    """Exact branch-and-bound solve (zero relative gap) via HiGHS."""
    return _solve_milp_once(model, config, presolve=True)


def _solve_milp_once(model: LinearModel, config: SolverConfig,
                     presolve: bool) -> MipSolution:
    model.validate()
    integrality = np.array([1 if k != CONTINUOUS else 0 for k in model.integrality])
    constraints = []
    if model.num_rows:
        rhs = np.asarray(model.row_rhs)
        lo = np.where(np.isin(model.row_rel, ("=", ">=")), rhs, -np.inf)
        hi = np.where(np.isin(model.row_rel, ("=", "<=")), rhs, np.inf)
        constraints.append(LinearConstraint(model._matrix(), lo, hi))
    with _stdout_to_stderr():
        res = milp(
            np.asarray(model.objective),
            constraints=constraints,
            integrality=integrality,
            bounds=Bounds(np.asarray(model.lower), np.asarray(model.upper)),
            options={"mip_rel_gap": 0.0, "node_limit": config.node_limit,
                     "presolve": presolve},
        )
    nodes = int(getattr(res, "mip_node_count", 0) or 0)
    if res.status == 2:
        return MipSolution(INFEASIBLE, None, None, None, nodes)
    if res.status == 3:
        return MipSolution(UNBOUNDED, None, None, None, nodes)
    if res.status == 1:
        x = np.asarray(res.x) if res.x is not None else None
        obj = float(res.fun) if res.x is not None else None
        bound = getattr(res, "mip_dual_bound", None)
        return MipSolution(GAP_LIMIT, x, obj, bound, nodes)
    if res.status == 4 and "unbounded or infeasible" in str(res.message):
        relaxed = solve_lp(model, config)  # classify via the relaxation
        if relaxed.status == UNBOUNDED:
            return MipSolution(UNBOUNDED, None, None, None, nodes)
        if relaxed.status == INFEASIBLE:
            return MipSolution(INFEASIBLE, None, None, None, nodes)
        if relaxed.status == OPTIMAL and presolve:
            # HiGHS presolve mislabels some big-M models whose relaxation
            # is fine; retry the search without it
            return _solve_milp_once(model, config, presolve=False)
    if res.status != 0:
        raise NumericalFailure(f"MILP solve failed: {res.message}")
    bound = getattr(res, "mip_dual_bound", None)
    if bound is None:
        bound = float(res.fun)
    return MipSolution(OPTIMAL, np.asarray(res.x), float(res.fun), float(bound), nodes)


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

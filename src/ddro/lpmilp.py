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
row bounds, through passModel's array overload (int32 CSR arrays, as
the kept matrix holds them), sets the options that vary per call, and
runs.  The third kind of handle belongs to one WarmLp, a cut loop's LP
that only gains rows: it keeps its model loaded, and each re-solve adds
the new rows (addRows) and restarts dual simplex from the last basis.

The bindings are the extension module scipy.optimize._highspy._core.
Importing it by that name first runs scipy.optimize's package __init__,
which imports scipy.sparse too, and those cost more than many solves
take.  So the module is loaded from its file, looked up in its own
directory under scipy's, and registered in sys.modules under its usual
name; a later import of scipy.optimize reuses that module object.
Where the file is not found, the plain import runs instead.

Rows are append-only and assembled once.  A model keeps its rows in
canonical CSR form (columns sorted, a repeated column summed), built in
numpy and checked as each row first reaches a solve or validate();
copy() shares that matrix, so a copy that gains rows assembles only
those.  What a re-solve changes in place -- right-hand sides (set_rhs),
objective entries and bounds -- is read afresh and checked on every
solve.  A caller can thus compile a model once and re-solve copies of
it, patched and extended, at the cost of the new rows alone.

MILP options: mip_rel_gap = 0 (each solve is proved optimal) and the
primal heuristics Feasibility Jump, RINS and RENS off, fixed; per call,
mip_max_nodes = NODE_LIMIT and presolve on (off only for the retry of a
model presolve mislabels).  HiGHS 1.12 runs these heuristics in every
MILP, at a cost that dominates the small stage models here, whose
solves end at the root anyway: an 18-column, 15-row terminal block took
11 ms per solve with Feasibility Jump and 4.7 ms without; the 22
stage-1 MILPs of the type3_lower benchmark at seed 1 (100 columns,
about 330 rows, one node each) took 1.40 s with RINS and RENS and
0.55 s without (2-core Xeon).  LP options: presolve on, fixed; per
call, an iteration cap of 10*(n + m + ITERATION_CAP_BASE).  The two
limits are module constants, read at each call.

A solver invocation is single-threaded and reentrant; distinct
LinearModel values may be solved from several threads.  MILP solves
then run one at a time: under a module lock, each points file
descriptor 1 at descriptor 2, to keep HiGHS's stray lines off stdout,
and restores it when the solve ends.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from importlib.machinery import PathFinder

import numpy as np
import scipy

_CORE = "scipy.optimize._highspy._core"
_CORE_DIR = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")


def _load_core():
    """scipy's HiGHS bindings: the module already imported, else loaded
    from its extension file in _CORE_DIR and registered under its usual
    name, else (no such file) the plain import."""
    spec = None if _CORE in sys.modules else PathFinder.find_spec(_CORE, [_CORE_DIR])
    try:
        if spec is None:
            return importlib.import_module(_CORE)
        core = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(core)
    except ImportError as exc:
        raise ImportError(f"ddro needs the HiGHS bindings {_CORE}, which scipy "
                          f"{scipy.__version__} does not provide: {exc}") from exc
    sys.modules[_CORE] = core
    return core


# scipy's bundled HiGHS bindings are a private module: every name ddro
# uses from it is read here, and tests/test_highs_bindings.py fails by
# name if a scipy release moves one.
_core = _load_core()
HighsModelStatus = _core.HighsModelStatus
HighsStatus = _core.HighsStatus
MatrixFormat = _core.MatrixFormat
ObjSense = _core.ObjSense
_Highs = _core._Highs
kSolutionStatusFeasible = _core.kSolutionStatusFeasible

CONTINUOUS = 0
INTEGER = 1
BINARY = 2

_RELATIONS = ("<=", "=", ">=")

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"
GAP_LIMIT = "GapLimit"


class NumericalFailure(RuntimeError):
    """Solver hit its iteration cap or reported a numerical breakdown."""


NODE_LIMIT = 200_000  # a MILP stopped here reports GapLimit
ITERATION_CAP_BASE = 1000  # LP iteration cap = 10*(n + m + base)


class LinearModel:
    """Mixed-integer linear model: minimize c'x subject to rows and bounds.

    Rows are append-only (see the module docstring): add_row stores
    read-only arrays, and set_rhs is the one change a stored row takes.
    """

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
        self._rows = _EMPTY_ROWS  # checked CSR of the first _rows.count rows

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
        """Append a constraint; coeffs is a {col: val} dict or (cols, vals) pair.

        The row keeps read-only copies of its columns and values: rows are
        append-only, and copies of the model share the assembled matrix of
        the rows they inherit, so a stored row never changes in place.
        """
        if rel not in _RELATIONS:
            raise ValueError(f"relation must be one of {_RELATIONS}")
        if isinstance(coeffs, dict):
            cols = np.fromiter(coeffs.keys(), dtype=int, count=len(coeffs))
            vals = np.fromiter(coeffs.values(), dtype=float, count=len(coeffs))
        else:
            cols, vals = coeffs
            cols = np.array(cols, dtype=int)
            vals = np.array(vals, dtype=float)
        if cols.size and (cols.min() < 0 or cols.max() >= self.num_vars):
            raise ValueError("row references unknown column")
        cols.flags.writeable = False
        vals.flags.writeable = False
        idx = self.num_rows
        self.row_cols.append(cols)
        self.row_vals.append(vals)
        self.row_rel.append(rel)
        self.row_rhs.append(float(rhs))
        self.row_names.append(name if name is not None else f"r{idx}")
        return idx

    def set_objective(self, col: int, coef: float) -> None:
        self.objective[col] = float(coef)

    def set_rhs(self, row: int, value: float) -> None:
        self.row_rhs[row] = float(value)

    def set_bounds(self, col: int, lb: float, ub: float) -> None:
        if lb > ub:
            raise ValueError(f"lb {lb} > ub {ub}")
        self.lower[col] = float(lb)
        self.upper[col] = float(ub)

    def copy(self) -> "LinearModel":
        """An independent copy that shares the assembled matrix of the
        rows assembled so far (by a solve or validate()), so solving it
        assembles only the rows appended to it."""
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
        m._rows = self._rows
        return m

    def validate(self) -> None:
        """Raise ValueError on input HiGHS would misread: a non-finite
        objective or constraint coefficient, a NaN right-hand side or
        bound, or binary bounds outside [0, 1].

        Rows are assembled into the kept matrix here, and their
        coefficients are checked once, as they enter it; the objective,
        bounds and right-hand sides are checked on every call.
        """
        self._solver_arrays()

    def _solver_arrays(self):
        """(assembled rows, objective, lower, upper, rhs), checked as
        validate() describes."""
        rows = self._row_matrix()
        objective = np.asarray(self.objective, dtype=float)
        if not np.all(np.isfinite(objective)):
            raise ValueError("objective coefficients must be finite")
        if not rows.finite:
            raise ValueError("constraint coefficients must be finite")
        rhs = np.asarray(self.row_rhs, dtype=float)
        if np.any(np.isnan(rhs)):
            raise ValueError("right-hand sides must not be NaN")
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
            raise ValueError("variable bounds must not be NaN")
        bad = (np.asarray(self.integrality) == BINARY) & ((lower < 0.0) | (upper > 1.0))
        if np.any(bad):
            name = self.names[int(np.flatnonzero(bad)[0])]
            raise ValueError(f"binary variable {name} has bounds outside [0, 1]")
        return rows, objective, lower, upper, rhs

    def _row_matrix(self) -> "_RowMatrix":
        """Every row assembled: the kept matrix, extended by the rows
        appended since it was made."""
        done = self._rows
        if done.count != self.num_rows:
            if done.count > self.num_rows:
                raise RuntimeError("rows were removed from a model with assembled rows")
            self._rows = done.extend(_assemble(
                self.row_cols[done.count:], self.row_vals[done.count:],
                self.row_rel[done.count:], self.num_vars))
        return self._rows


@dataclass(frozen=True)
class _RowMatrix:
    """The first `count` rows of a model in row-wise CSR form, canonical as
    scipy.sparse's sum_duplicates leaves it (columns sorted within a row,
    a repeated column summed, explicit zeros kept), with each row's
    relation as two masks.  _assemble builds it in numpy.

    A row is assembled and checked once: copies of a model share the
    object, and appending rows makes a new one for the copy alone.
    """

    count: int
    start: np.ndarray  # int32, as HiGHS's array calls take it
    index: np.ndarray  # int32
    value: np.ndarray
    no_lower: np.ndarray  # relation "<="
    no_upper: np.ndarray  # relation ">="
    finite: bool  # every coefficient of the rows is finite

    def extend(self, tail: "_RowMatrix") -> "_RowMatrix":
        if not self.count:
            return tail
        return _RowMatrix(
            self.count + tail.count,
            np.concatenate([self.start, tail.start[1:] + self.start[-1]]),
            np.concatenate([self.index, tail.index]),
            np.concatenate([self.value, tail.value]),
            np.concatenate([self.no_lower, tail.no_lower]),
            np.concatenate([self.no_upper, tail.no_upper]),
            self.finite and tail.finite)


_EMPTY_ROWS = _RowMatrix(0, np.zeros(1, dtype=np.int32), np.zeros(0, dtype=np.int32),
                         np.zeros(0), np.zeros(0, dtype=bool), np.zeros(0, dtype=bool), True)


def _assemble(row_cols, row_vals, row_rel, num_vars: int) -> _RowMatrix:
    """The given rows in canonical CSR form, built in one pass.

    Entries are sorted by (row, column) with a stable sort, and the
    entries of a repeated column are summed in the order they were
    given, left to right, as sum_duplicates does.  np.add.at sums that
    way; np.add.reduceat would add a run of three or more as
    first + (rest), which differs in the last bit.  Explicit zeros stay,
    also where repeated columns cancel.
    """
    count = len(row_cols)
    rows = np.repeat(np.arange(count), [cols.size for cols in row_cols])
    cols = np.concatenate(row_cols)
    key = rows * num_vars + cols  # one per (row, column)
    order = np.argsort(key, kind="stable")
    key, cols, values = key[order], cols[order], np.concatenate(row_vals)[order]
    first = np.ones(key.size, dtype=bool)  # the first entry of its key
    first[1:] = key[1:] != key[:-1]
    kept = key[first]
    summed = np.full(kept.size, -0.0)  # -0.0 + x is x, for every x
    np.add.at(summed, np.cumsum(first) - 1, values)
    start = np.searchsorted(kept, np.arange(count + 1) * num_vars).astype(np.int32)
    rel = np.asarray(row_rel, dtype="<U2")
    return _RowMatrix(count, start, cols[first].astype(np.int32), summed,
                      rel == "<=", rel == ">=", bool(np.all(np.isfinite(values))))


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
             "mip_heuristic_run_feasibility_jump": False,
             "mip_heuristic_run_rins": False, "mip_heuristic_run_rens": False},
    "lp": {"output_flag": False, "presolve": "on"},
}
_handles = threading.local()
_ROWWISE = int(MatrixFormat.kRowwise)
_MINIMIZE = int(ObjSense.kMinimize)


def _handle(kind: str) -> _Highs:
    """This thread's kept HiGHS handle for "milp" or "lp" solves."""
    highs = getattr(_handles, kind, None)
    if highs is None:
        highs = _new_handle(kind)
        setattr(_handles, kind, highs)
    return highs


def _new_handle(kind: str) -> _Highs:
    highs = _Highs()
    _set_options(highs, _FIXED_OPTIONS[kind])
    return highs


def _set_options(highs: _Highs, options: dict) -> None:
    for name, value in options.items():
        if highs.setOptionValue(name, value) != HighsStatus.kOk:
            raise HighsCallError(f"HiGHS rejected option {name} = {value!r}")


def _row_bounds(rows: _RowMatrix, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.where(rows.no_lower, -np.inf, rhs), np.where(rows.no_upper, np.inf, rhs)


def _highs_model(model: LinearModel, integer: bool, arrays=None) -> tuple:
    """The model as the arguments of _Highs.passModel's array overload:
    the row-wise matrix with row bounds, minimized, without offset.
    `arrays` is the model's _solver_arrays() when the caller has them."""
    rows, objective, lower, upper, rhs = model._solver_arrays() if arrays is None else arrays
    # one entry per column, 0 continuous or 1 integer; HiGHS reads num_col of them
    integrality = np.zeros(model.num_vars, dtype=np.int32)
    if integer:
        integrality[np.asarray(model.integrality) != CONTINUOUS] = 1
    return (model.num_vars, model.num_rows, rows.index.size, _ROWWISE, _MINIMIZE, 0.0,
            objective, lower, upper, *_row_bounds(rows, rhs),
            rows.start, rows.index, rows.value, integrality)


def milp(highs: _Highs, load) -> None:
    """load() -- a passModel call on the thread's MILP handle -- then run.

    Every MILP solve calls this module-level name once, so that the
    benchmark's traced run can time HiGHS apart from marshalling by
    patching it; ROADMAP item 1 moves that timing into counters.
    """
    _load_and_run(highs, load)


def linprog(highs: _Highs, load) -> None:
    """load() -- passModel, or addRows on a WarmLp's kept model -- then
    run, on an LP handle.  Every LP solve calls it once; see milp."""
    _load_and_run(highs, load)


def _load_and_run(highs: _Highs, load) -> None:
    if load() == HighsStatus.kError:
        raise HighsCallError("HiGHS could not load the model")
    highs.run()


def solve_lp(model: LinearModel) -> LpSolution:
    """Solve the continuous relaxation, returning duals and reduced costs."""
    args = _highs_model(model, integer=False)
    highs = _handle("lp")
    return _run_lp(highs, model, partial(highs.passModel, *args))


class WarmLp:
    """The continuous relaxation of a model that only gains rows between
    solves, kept loaded on a HiGHS handle of its own.

    The first solve passes the model; each later one sends only the rows
    appended since (addRows) and re-runs, so dual simplex restarts from
    the last basis.  Every solve validates the model, caps the
    iterations and maps the result as solve_lp does.  An objective,
    bound or loaded right-hand side changed since the last solve raises
    RuntimeError rather than re-solving a stale model.
    """

    def __init__(self, model: LinearModel):
        self.model = model
        self._highs: _Highs | None = None
        self._loaded: tuple = ()  # objective, lower, upper, rhs as loaded

    def solve(self) -> LpSolution:
        model = self.model
        arrays = model._solver_arrays()
        if self._highs is None:
            self._highs = _new_handle("lp")
            load = partial(self._highs.passModel, *_highs_model(model, False, arrays))
        else:
            load = self._new_rows(arrays)
        self._loaded = arrays[1:]
        try:
            return _run_lp(self._highs, model, load)
        except HighsCallError:
            self._highs = None  # what the handle holds is unknown: pass it all again
            raise

    def _new_rows(self, arrays):
        """addRows of the rows appended since the last solve, after
        checking that nothing else changed."""
        rows, objective, lower, upper, rhs = arrays
        old_objective, old_lower, old_upper, old_rhs = self._loaded
        done = old_rhs.size
        if not (np.array_equal(objective, old_objective) and np.array_equal(lower, old_lower)
                and np.array_equal(upper, old_upper) and np.array_equal(rhs[:done], old_rhs)):
            raise RuntimeError("a kept LP changed other than by appended rows")
        row_lower, row_upper = _row_bounds(rows, rhs)
        first = rows.start[done]
        highs = self._highs
        return partial(highs.addRows, rows.count - done, row_lower[done:],
                       row_upper[done:], rows.index.size - first, rows.start[done:-1] - first,
                       rows.index[first:], rows.value[first:])


def _run_lp(highs: _Highs, model: LinearModel, load) -> LpSolution:
    """Load and run an LP under the iteration cap, and read its result."""
    cap = 10 * (model.num_vars + model.num_rows + ITERATION_CAP_BASE)
    _set_options(highs, {"simplex_iteration_limit": cap, "ipm_iteration_limit": cap})
    linprog(highs, load)
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


def solve_milp(model: LinearModel) -> MipSolution:
    """Exact branch-and-bound solve (zero relative gap) via HiGHS."""
    return _solve_milp_once(model, presolve=True)


# A MILP stopped at one of these limits reports GapLimit, with the
# incumbent if it has one.
_LIMITS = (HighsModelStatus.kTimeLimit, HighsModelStatus.kIterationLimit,
           HighsModelStatus.kSolutionLimit)


def _solve_milp_once(model: LinearModel, presolve: bool) -> MipSolution:
    integer = any(kind != CONTINUOUS for kind in model.integrality)
    args = _highs_model(model, integer)
    highs = _handle("milp")
    _set_options(highs, {"presolve": "on" if presolve else "off",
                         "mip_max_nodes": NODE_LIMIT})
    with _stdout_to_stderr():
        milp(highs, partial(highs.passModel, *args))
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
        relaxed = solve_lp(model)  # classify via the relaxation
        if relaxed.status == UNBOUNDED:
            return MipSolution(UNBOUNDED, None, None, None, nodes)
        if relaxed.status == INFEASIBLE:
            return MipSolution(INFEASIBLE, None, None, None, nodes)
        if relaxed.status == OPTIMAL and presolve:
            # HiGHS presolve mislabels some big-M models whose relaxation
            # is fine; retry the search without it
            return _solve_milp_once(model, presolve=False)
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
    lines = [f"\\ {name}", "Minimize"]
    obj_cols = np.arange(model.num_vars)
    obj_vals = np.asarray(model.objective)
    lines.append(" obj: " + _lp_terms(obj_cols, obj_vals, model.names))
    lines.append("Subject To")
    for r in range(model.num_rows):
        lines.append(
            f" {_lp_name(model.row_names[r])}: "
            + _lp_terms(model.row_cols[r], model.row_vals[r], model.names)
            + f" {model.row_rel[r]} {model.row_rhs[r]:.17g}"
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

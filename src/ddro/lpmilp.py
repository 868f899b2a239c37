"""LP/MILP core for the stage subproblems.

A thin, deterministic layer over HiGHS exposing the model container used
throughout the kit: bounded variables with continuous/integer/binary
flags, single-relation rows, minimization objective, and a
CPLEX-LP-dialect text export for cross-checking against external
solvers.  LPs and MILPs return one Solution record: status, x and
objective, and a MILP's branch-and-bound node count.

Models are solved on HiGHS handles from the bindings scipy bundles, not
through scipy.optimize.milp/linprog, whose per-call option checks and
input validation cost more than HiGHS itself on the small stage models
here.  Each thread keeps two handles, one for MILPs and one for LPs,
and gives each its fixed options once; an option HiGHS rejects raises
HighsCallError.  A solve passes the model as one row-wise matrix with
row bounds, through passModel's array overload (int32 CSR arrays, as
the kept matrix holds them), sets the options that vary per call, and
runs.  The third kind of handle belongs to one WarmLp, a cut loop's LP
that only gains rows: it keeps its model loaded, and each re-solve
checks and adds the new rows alone (addRows) and restarts dual simplex
from the last basis.

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
primal heuristics Feasibility Jump, RINS, RENS and the root
reduced-cost heuristic off, fixed; per call, mip_max_nodes = NODE_LIMIT
and presolve on (off only for the retry of a model presolve
mislabels).  HiGHS 1.12 runs these heuristics in every MILP, at a cost
that dominates the small stage models here, whose solves end at the
root anyway: an 18-column, 15-row terminal block took 11 ms per solve
with Feasibility Jump and 4.7 ms without; the 22 stage-1 MILPs of the
type3_lower benchmark at seed 1 (100 columns, about 330 rows, one node
each) took 1.40 s with RINS and RENS and 0.55 s without; the root
reduced-cost heuristic solves a sub-MIP of its own, and the 37 stage-1
MILPs of one seed-1 round of two_stage, type3_lower and type3_upper
took 0.32 s with it and 0.25 s without, to equal objectives (2-core
Xeon).  Models that branch may need more nodes without it: a 25-item
knapsack in tests/test_lpmilp.py took 147 nodes with it and 2333
without.  LP options: presolve on, fixed; per call, an iteration cap
of 10*(n + m + ITERATION_CAP_BASE).  The two limits are module
constants, read at each call.

solve_milps solves independent models as one block-diagonal MILP, run
once to save HiGHS's fixed cost per call and searched at its root node
alone, since blocks that branch multiply one search tree; it returns
None if the batch does not close there.  Each model gets its block of
x and its objective, summed as HiGHS sums one (math.fsum).
solve_fixed_milps is solve_milps of copies of one model that differ
only in the bounds of some columns, fixed at one given row of values
per copy: the model is marshalled once and its arrays are tiled, a few
numpy calls whatever the number of copies.  The engine splits a stage
MILP this way on its facility states (sddip.StageOracle): with the
binaries fixed, every McCormick product is pinned and presolve removes
it, and the copies' root LPs are far tighter than the big-M MILP's.  On
the 31 stage-1 MILPs of one seed-1 round of the two_stage, type3_lower
and type3_upper benchmarks (4 to 10 states each), a batch took 1.1-3.2
ms against 3.2-13 ms for the MILP, at values equal to 4e-10 relative;
the 30 of multi_stage (Type 1 at J = 1), which close at their root in
0.6 ms whole, took as long split (2-core Xeon).

A solver invocation is single-threaded and reentrant; distinct
LinearModel values may be solved from several threads.  MILP solves
then run one at a time: under a module lock, each points file
descriptor 1 at descriptor 2, to keep HiGHS's stray lines off stdout,
and restores it when the solve ends.
"""

from __future__ import annotations

import importlib
import importlib.util
import math
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
        self._edits = 0  # calls of set_objective, set_rhs and set_bounds

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
        self._edits += 1

    def set_rhs(self, row: int, value: float) -> None:
        self.row_rhs[row] = float(value)
        self._edits += 1

    def set_bounds(self, col: int, lb: float, ub: float) -> None:
        if lb > ub:
            raise ValueError(f"lb {lb} > ub {ub}")
        self.lower[col] = float(lb)
        self.upper[col] = float(ub)
        self._edits += 1

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
        """(assembled rows, objective, lower, upper, row lower, row upper),
        checked as validate() describes."""
        objective = np.asarray(self.objective, dtype=float)
        if not np.all(np.isfinite(objective)):
            raise ValueError("objective coefficients must be finite")
        rows, row_lower, row_upper = self._rows_from(0)
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
            raise ValueError("variable bounds must not be NaN")
        bad = (np.asarray(self.integrality) == BINARY) & ((lower < 0.0) | (upper > 1.0))
        if np.any(bad):
            name = self.names[int(np.flatnonzero(bad)[0])]
            raise ValueError(f"binary variable {name} has bounds outside [0, 1]")
        return rows, objective, lower, upper, row_lower, row_upper

    def _rows_from(self, first: int):
        """(every row assembled, lower and upper bounds of the rows from
        `first` on), with the coefficients of the rows not yet assembled
        and the right-hand sides from `first` on checked."""
        rows = self._row_matrix()
        if not rows.finite:
            raise ValueError("constraint coefficients must be finite")
        rhs = np.asarray(self.row_rhs[first:], dtype=float)
        if np.any(np.isnan(rhs)):
            raise ValueError("right-hand sides must not be NaN")
        return (rows, np.where(rows.no_lower[first:], -np.inf, rhs),
                np.where(rows.no_upper[first:], np.inf, rhs))

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
class Solution:
    """An LP or MILP result: x and objective where the solve has a
    point, and the branch-and-bound nodes a MILP took (0 for an LP)."""

    status: str
    x: np.ndarray | None
    objective: float | None
    node_count: int = 0


class HighsCallError(RuntimeError):
    """HiGHS rejected a call: an option it does not know or a model it
    cannot load."""


# Options each kept handle is given once; see the module docstring.
_FIXED_OPTIONS = {
    "milp": {"output_flag": False, "mip_rel_gap": 0.0,
             "mip_heuristic_run_feasibility_jump": False,
             "mip_heuristic_run_rins": False, "mip_heuristic_run_rens": False,
             "mip_heuristic_run_root_reduced_cost": False},
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


def _highs_model(model: LinearModel, integer: bool) -> tuple:
    """The model as the arguments of _Highs.passModel's array overload:
    the row-wise matrix with row bounds, minimized, without offset."""
    rows, objective, lower, upper, row_lower, row_upper = model._solver_arrays()
    # one entry per column, 0 continuous or 1 integer; HiGHS reads num_col of them
    integrality = np.zeros(model.num_vars, dtype=np.int32)
    if integer:
        integrality[np.asarray(model.integrality) != CONTINUOUS] = 1
    return (model.num_vars, model.num_rows, rows.index.size, _ROWWISE, _MINIMIZE, 0.0,
            objective, lower, upper, row_lower, row_upper,
            rows.start, rows.index, rows.value, integrality)


def milp(highs: _Highs, load) -> None:
    """load() -- passModel, or addRows on a WarmLp's kept model -- then run.

    Every solve calls it once, by the module-level name milp for a MILP
    and linprog for an LP, so that the benchmark's traced run can time
    HiGHS apart from marshalling by patching either name; ROADMAP item 6
    moves that timing into counters.
    """
    if load() == HighsStatus.kError:
        raise HighsCallError("HiGHS could not load the model")
    highs.run()


linprog = milp


def solve_lp(model: LinearModel) -> Solution:
    """Solve the continuous relaxation."""
    args = _highs_model(model, integer=False)
    highs = _handle("lp")
    return _run_lp(highs, model, partial(highs.passModel, *args))


class WarmLp:
    """The continuous relaxation of a model that only gains rows between
    solves, kept loaded on a HiGHS handle of its own.

    The first solve validates and passes the model; each later one
    checks and sends only the rows appended since (addRows) and re-runs,
    so dual simplex restarts from the last basis, and its Python work
    does not grow with the model.  Every solve caps the iterations and
    maps the result as solve_lp does.  A re-solve after a column was
    added, or after set_objective, set_bounds or set_rhs was called on
    the model (it counts those calls), raises RuntimeError rather than
    re-solving a stale model: the rows a kept LP gains are appended with
    their right-hand sides.
    """

    def __init__(self, model: LinearModel):
        self.model = model
        self._highs: _Highs | None = None
        self._loaded = (0, 0, 0)  # the model's edits, columns and rows as loaded

    def solve(self) -> Solution:
        model = self.model
        if self._highs is None:
            args = _highs_model(model, False)
            self._highs = _new_handle("lp")
            load = partial(self._highs.passModel, *args)
        else:
            load = self._new_rows()
        self._loaded = (model._edits, model.num_vars, model.num_rows)
        try:
            return _run_lp(self._highs, model, load)
        except HighsCallError:
            self._highs = None  # what the handle holds is unknown: pass it all again
            raise

    def _new_rows(self):
        """addRows of the rows appended since the last solve, checked,
        after checking that nothing else changed."""
        model = self.model
        edits, num_vars, done = self._loaded
        if model._edits != edits or model.num_vars != num_vars:
            raise RuntimeError("a kept LP changed other than by appended rows")
        rows, row_lower, row_upper = model._rows_from(done)
        first = rows.start[done]
        return partial(self._highs.addRows, rows.count - done, row_lower, row_upper,
                       rows.index.size - first, rows.start[done:-1] - first,
                       rows.index[first:], rows.value[first:])


def _run_lp(highs: _Highs, model: LinearModel, load) -> Solution:
    """Load and run an LP under the iteration cap, and read its result."""
    cap = 10 * (model.num_vars + model.num_rows + ITERATION_CAP_BASE)
    _set_options(highs, {"simplex_iteration_limit": cap, "ipm_iteration_limit": cap})
    linprog(highs, load)
    status = highs.getModelStatus()
    if status == HighsModelStatus.kInfeasible:
        return Solution(INFEASIBLE, None, None)
    if status == HighsModelStatus.kUnbounded:
        return Solution(UNBOUNDED, None, None)
    if status != HighsModelStatus.kOptimal:
        raise NumericalFailure(f"LP solve failed: {highs.modelStatusToString(status)}")
    return Solution(OPTIMAL, np.array(highs.getSolution().col_value, dtype=float),
                    highs.getObjectiveValue())


def solve_milp(model: LinearModel) -> Solution:
    """Exact branch-and-bound solve (zero relative gap) via HiGHS."""
    return _solve_milp_once([model], presolve=True)


def solve_milps(models: list[LinearModel]) -> list[Solution] | None:
    """One solution per model from one block-diagonal MILP searched at its
    root alone, or None if it does not close there (see the module docstring)."""
    batch = _solve_at_root(models)
    if batch is None:
        return None
    xs = np.split(batch.x, np.cumsum([m.num_vars for m in models])[:-1])
    return [Solution(OPTIMAL, x, math.fsum(np.asarray(m.objective) * x), batch.node_count)
            for m, x in zip(models, xs)]  # objectives summed as HiGHS sums them


def solve_fixed_milps(model: LinearModel, cols, values) -> list[Solution] | None:
    """solve_milps of one copy of the model per row of values, with the
    columns cols fixed at that row by their bounds.  The model is
    marshalled once, and the copies differ in their bounds alone."""
    part = _highs_model(model, integer=True)
    cost, lower, upper = part[6:9]
    parts = []
    for row in values:
        lo, up = lower.copy(), upper.copy()
        lo[cols] = up[cols] = row
        parts.append(part[:7] + (lo, up) + part[9:])
    batch = _solve_at_root([model] * len(parts), _block_diagonal(parts))
    if batch is None:
        return None
    return [Solution(OPTIMAL, x, math.fsum(cost * x), batch.node_count)
            for x in batch.x.reshape(len(parts), cost.size)]


def _solve_at_root(models: list[LinearModel], args=None) -> Solution | None:
    """_solve_milp_once of the models as one, at its root node alone, or
    None if that does not close."""
    try:
        batch = _solve_milp_once(models, presolve=True, node_limit=1, args=args)
    except NumericalFailure:
        return None
    return batch if batch.status == OPTIMAL else None


def _block_diagonal(parts) -> tuple:
    """One passModel argument tuple from those of several models (see
    _highs_model): columns, then rows, in model order."""
    (ncol, nrow, nnz, _, _, _, cost, lower, upper, row_lower, row_upper,
     start, index, value, integrality) = zip(*parts)
    col0 = np.cumsum((0,) + ncol[:-1])
    nz0 = np.cumsum((0,) + nnz[:-1])
    cat = np.concatenate
    start = cat([s[:-1] + o for s, o in zip(start, nz0)] + [[sum(nnz)]]).astype(np.int32)
    index = cat([ix + o for ix, o in zip(index, col0)]).astype(np.int32)
    return (sum(ncol), sum(nrow), sum(nnz), _ROWWISE, _MINIMIZE, 0.0, cat(cost), cat(lower),
            cat(upper), cat(row_lower), cat(row_upper), start, index, cat(value), cat(integrality))


# A MILP stopped at one of these limits reports GapLimit, with the
# incumbent if it has one.
_LIMITS = (HighsModelStatus.kTimeLimit, HighsModelStatus.kIterationLimit,
           HighsModelStatus.kSolutionLimit)


def _solve_milp_once(models: list[LinearModel], presolve: bool, node_limit=None,
                     args=None) -> Solution:
    """Solve one model, or several as one, in node_limit (or NODE_LIMIT)
    nodes, from args, their passModel tuple, if given.  An "infeasible or
    unbounded" status is classified, and retried, for one model solved
    from its own arrays alone."""
    integer = any(kind != CONTINUOUS for m in models for kind in m.integrality)
    given = args is not None
    if not given:
        parts = [_highs_model(m, integer) for m in models]
        args = parts[0] if len(parts) == 1 else _block_diagonal(parts)
    highs = _handle("milp")
    _set_options(highs, {"presolve": "on" if presolve else "off",
                         "mip_max_nodes": node_limit or NODE_LIMIT})
    with _stdout_to_stderr():
        milp(highs, partial(highs.passModel, *args))
    status = highs.getModelStatus()
    info = highs.getInfo()
    nodes = max(info.mip_node_count, 0) if integer else 0
    if status == HighsModelStatus.kInfeasible:
        return Solution(INFEASIBLE, None, None, nodes)
    if status == HighsModelStatus.kUnbounded:
        return Solution(UNBOUNDED, None, None, nodes)
    if status in _LIMITS:
        if info.primal_solution_status != kSolutionStatusFeasible:
            return Solution(GAP_LIMIT, None, None, nodes)
        return Solution(GAP_LIMIT, np.array(highs.getSolution().col_value),
                        info.objective_function_value, nodes)
    if status == HighsModelStatus.kUnboundedOrInfeasible and len(models) == 1 and not given:
        relaxed = solve_lp(models[0])  # classify via the relaxation
        if relaxed.status in (UNBOUNDED, INFEASIBLE):
            return Solution(relaxed.status, None, None, nodes)
        if relaxed.status == OPTIMAL and presolve:
            # HiGHS presolve mislabels some big-M models whose relaxation
            # is fine; retry the search without it
            return _solve_milp_once(models, presolve=False, node_limit=node_limit)
    if status != HighsModelStatus.kOptimal:
        raise NumericalFailure(f"MILP solve failed: {highs.modelStatusToString(status)}")
    return Solution(OPTIMAL, np.array(highs.getSolution().col_value),
                    info.objective_function_value, nodes)


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

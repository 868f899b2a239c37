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
scipy's directory comes from its import spec, so not even scipy's own
package __init__ runs; scipy is imported only to name its version when
the bindings cannot be loaded.  Where the file is not found, the plain
import runs instead.

A model is numpy-native.  Columns and rows are appended in blocks:
add_vars and add_rows, of which add_var and add_row are the one-entry
cases.  A block of rows is checked as a whole, every column in range
and every relation known, before any of it is stored, and the model
keeps read-only copies of its coefficients.  The objective, bounds,
integrality, right-hand sides and relations are arrays, which a solve
hands to HiGHS as they are, and the setters take an index array as
well as one index.

Rows are append-only and assembled once.  A model keeps its rows in
canonical CSR form (columns sorted, a repeated column summed), built in
numpy and checked as each row first reaches a solve or validate().
Rows whose columns already increase strictly, as the stage compilers
write most of them, are taken as they are; only others are sorted and
summed, and either way every value is bit for bit what the sort gives.
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

_CORE = "scipy.optimize._highspy._core"
_SCIPY = importlib.util.find_spec("scipy")
if _SCIPY is None:
    raise ModuleNotFoundError("ddro needs scipy, which is not installed", name="scipy")
_CORE_DIR = os.path.join(os.path.dirname(_SCIPY.origin), "optimize", "_highspy")


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
        import scipy

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

    Columns and rows are appended in blocks, add_vars and add_rows, of
    which add_var and add_row are the one-entry cases.  The model keeps
    its columns' objective, lower and upper bounds and integrality, and
    its rows' right-hand sides and relations, in numpy arrays, and the
    names in lists.  Rows are append-only (see the module docstring):
    add_rows stores read-only copies of the coefficients, and set_rhs is
    the one change a stored row takes.
    """

    def __init__(self) -> None:
        self.objective = np.zeros(0)
        self.lower = np.zeros(0)
        self.upper = np.zeros(0)
        self.integrality = np.zeros(0, dtype=int)
        self.names: list[str] = []
        self.row_rhs = np.zeros(0)
        self.row_rel = np.zeros(0, dtype="<U2")
        self.row_names: list[str] = []
        self._blocks: list[RowBlock] = []  # every row's coefficients, as appended
        self._rows = _EMPTY_ROWS  # checked CSR of the first _rows.blocks blocks
        self._edits = 0  # calls of set_objective, set_rhs and set_bounds

    @property
    def num_vars(self) -> int:
        return self.objective.size

    @property
    def num_rows(self) -> int:
        return self.row_rhs.size

    def add_var(self, lb: float, ub: float, kind: int = CONTINUOUS,
                obj: float = 0.0, name: str | None = None) -> int:
        return int(self.add_vars(1, lb, ub, kind, obj=obj,
                                 names=None if name is None else [name])[0])

    def add_vars(self, count: int, lb, ub, kind: int = CONTINUOUS, prefix: str = "v",
                 obj=0.0, names=None) -> np.ndarray:
        """Append count columns of one kind and return their indices.  lb,
        ub and obj are one value for all or one per column; names, one per
        column, default to prefix and the column's index."""
        lb, ub, obj = (_filled(v, count, float) for v in (lb, ub, obj))
        if (lb > ub).any():
            bad = np.flatnonzero(lb > ub)[0]
            raise ValueError(f"lb {lb[bad]} > ub {ub[bad]}")
        if kind == BINARY and ((lb < 0.0).any() or (ub > 1.0).any()):
            raise ValueError("binary variable bounds must lie within [0, 1]")
        first = self.num_vars
        if names is None:
            names = [f"{prefix}{j}" for j in range(first, first + count)]
        elif len(names) != count:
            raise ValueError(f"{len(names)} names for {count} columns")
        cat = np.concatenate
        self.objective = cat([self.objective, obj])
        self.lower = cat([self.lower, lb])
        self.upper = cat([self.upper, ub])
        self.integrality = cat([self.integrality, np.full(count, int(kind))])
        self.names.extend(names)
        return np.arange(first, first + count)

    def add_row(self, coeffs, rel: str, rhs: float, name: str | None = None) -> int:
        """Append a constraint; coeffs is a {col: val} dict or (cols, vals)
        pair.  The one-row case of add_rows."""
        if isinstance(coeffs, dict):
            coeffs = list(coeffs.keys()), list(coeffs.values())
        cols, vals = coeffs
        return int(self.add_rows([cols], [vals], rel, rhs,
                                 names=None if name is None else [name])[0])

    def add_rows(self, cols, vals, rel, rhs, *, start=None, keep=None, names=None) -> np.ndarray:
        """Append a block of rows and return their indices.

        Without start, cols and vals broadcast to one 2-D array each, one
        row per line, and keep, a boolean array of that shape if given,
        marks the entries stored.  With start, cols and vals are flat and
        row r holds entries start[r] to start[r + 1] (CSR).  A column may
        repeat within a row; assembly sums it.  rel and rhs are one value
        for the block or one per row; names, one per row, default to r
        and the row's index.

        The block is checked as a whole, every column in range and every
        relation known, before anything is stored, so a bad block leaves
        the model unchanged.  The model keeps read-only copies of the
        coefficients: rows are append-only, and copies of the model share
        the assembled matrix of the rows they inherit, so a stored row
        never changes in place.
        """
        if start is None:
            cols, vals = np.array(cols, dtype=np.intp), np.array(vals, dtype=float)  # copies
            if cols.shape != vals.shape:
                shape = np.broadcast(cols, vals).shape
                cols, vals = _filled(cols, shape), _filled(vals, shape)
            if cols.ndim != 2:
                raise ValueError("a row block without start needs 2-D cols and vals")
            count, width = cols.shape
            if keep is None:
                start = np.arange(count + 1) * width
                cols, vals = cols.ravel(), vals.ravel()
            else:
                keep = np.broadcast_to(keep, cols.shape)
                start = np.append(0, np.cumsum(np.count_nonzero(keep, axis=1)))
                cols, vals = cols[keep], vals[keep]
        else:
            start = np.array(start, dtype=np.intp)
            count = start.size - 1
            if count < 0 or start[0] != 0 or (start[1:] < start[:-1]).any():
                raise ValueError("row offsets must start at 0 and never decrease")
            cols = np.array(cols, dtype=np.intp).ravel()
            vals = np.array(vals, dtype=float).ravel()
        if cols.size != vals.size or start[-1] != cols.size:
            raise ValueError("row offsets, columns and values do not match")
        # a negative column, seen as unsigned, is past every real one
        if cols.size and cols.view(np.uintp).max() >= self.num_vars:
            raise ValueError("row references unknown column")
        if isinstance(rel, str):
            known = rel in _RELATIONS
        elif isinstance(rel, np.ndarray):
            known = not ((rel != "<=") & (rel != "=") & (rel != ">=")).any()
        else:  # a list: a set test beats building an array to compare
            known = set(_RELATIONS).issuperset(rel)
        if not known:
            raise ValueError(f"relation must be one of {_RELATIONS}")
        rel, rhs = _filled(rel, count, "<U2"), _filled(rhs, count, float)
        first = self.num_rows
        if names is None:
            names = [f"r{r}" for r in range(first, first + count)]
        elif len(names) != count:
            raise ValueError(f"{len(names)} names for {count} rows")
        self._blocks.append(RowBlock(cols, vals, start))
        self.row_rhs = np.concatenate([self.row_rhs, rhs])
        self.row_rel = np.concatenate([self.row_rel, rel])
        self.row_names.extend(names)
        return np.arange(first, first + count)

    def rows(self, first: int = 0) -> "RowBlock":
        """The coefficients of the rows from `first` on, as appended (a
        repeated column not summed), in one block."""
        tail, row = [], self.num_rows
        for block in reversed(self._blocks):
            if row <= first:
                break
            tail.append(block)
            row -= len(block)
        return RowBlock.join(tail[::-1]).drop(first - row)

    def set_objective(self, col, coef) -> None:
        """Set the objective of a column, or of an index array of them."""
        self.objective[col] = coef
        self._edits += 1

    def set_rhs(self, row, value) -> None:
        """Set the right-hand side of a row, or of an index array of them."""
        self.row_rhs[row] = value
        self._edits += 1

    def set_bounds(self, col, lb, ub) -> None:
        """Set the bounds of a column, or of an index array of them."""
        if (np.asarray(lb) > ub).any():
            raise ValueError(f"lb {lb} > ub {ub}")
        self.lower[col] = lb
        self.upper[col] = ub
        self._edits += 1

    def copy(self) -> "LinearModel":
        """An independent copy that shares the assembled matrix of the
        rows assembled so far (by a solve or validate()), so solving it
        assembles only the rows appended to it."""
        m = LinearModel.__new__(LinearModel)
        m.objective, m.lower, m.upper, m.integrality, m.row_rhs, m.row_rel = (
            a.copy() for a in (self.objective, self.lower, self.upper, self.integrality,
                               self.row_rhs, self.row_rel))
        m.names = list(self.names)
        m.row_names = list(self.row_names)
        m._blocks = list(self._blocks)
        m._rows = self._rows
        m._edits = 0
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
        checked as validate() describes; the column arrays are the
        model's own."""
        if not np.isfinite(self.objective).all():
            raise ValueError("objective coefficients must be finite")
        rows, row_lower, row_upper = self._rows_from(0)
        lower, upper = self.lower, self.upper
        if np.isnan(lower).any() or np.isnan(upper).any():
            raise ValueError("variable bounds must not be NaN")
        bad = (self.integrality == BINARY) & ((lower < 0.0) | (upper > 1.0))
        if bad.any():
            name = self.names[int(np.flatnonzero(bad)[0])]
            raise ValueError(f"binary variable {name} has bounds outside [0, 1]")
        return rows, self.objective, lower, upper, row_lower, row_upper

    def _rows_from(self, first: int):
        """(every row assembled, lower and upper bounds of the rows from
        `first` on), with the coefficients of the rows not yet assembled
        and the right-hand sides from `first` on checked."""
        rows = self._row_matrix()
        if not rows.finite:
            raise ValueError("constraint coefficients must be finite")
        rhs = self.row_rhs[first:]
        if np.isnan(rhs).any():
            raise ValueError("right-hand sides must not be NaN")
        return (rows, np.where(rows.no_lower[first:], -np.inf, rhs),
                np.where(rows.no_upper[first:], np.inf, rhs))

    def _row_matrix(self) -> "_RowMatrix":
        """Every row assembled: the kept matrix, extended by the blocks
        appended since it was made."""
        done = self._rows
        if done.count != self.num_rows:
            if done.count > self.num_rows:
                raise RuntimeError("rows were removed from a model with assembled rows")
            tail = self._blocks[done.blocks:]
            self._rows = done.extend(_assemble(RowBlock.join(tail), self.row_rel[done.count:],
                                               self.num_vars, len(tail)))
        return self._rows


def _filled(value, shape, dtype=None) -> np.ndarray:
    """A new array of the given shape and dtype filled with value,
    broadcast: one value for all entries, or one per entry."""
    value = np.asarray(value, dtype=dtype)
    out = np.empty(shape, dtype=value.dtype)
    out[...] = value
    return out


class RowBlock:
    """Rows in CSR form, as appended: row r holds the columns
    cols[start[r]:start[r + 1]] with the values vals[...], a column
    perhaps repeated.  Indexing gives a row's (cols, vals).  The arrays
    are made read-only: a block is never changed in place."""

    __slots__ = ("cols", "vals", "start")

    def __init__(self, cols: np.ndarray, vals: np.ndarray, start: np.ndarray):
        for arr in (cols, vals, start):
            arr.flags.writeable = False
        self.cols, self.vals, self.start = cols, vals, start

    def __len__(self) -> int:
        return self.start.size - 1

    def __getitem__(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        r = range(len(self))[r]
        a, b = self.start[r], self.start[r + 1]
        return self.cols[a:b], self.vals[a:b]

    @staticmethod
    def join(blocks) -> "RowBlock":
        """The rows of the blocks, in order, as one block."""
        if len(blocks) == 1:
            return blocks[0]
        if not blocks:
            return _EMPTY_BLOCK
        offsets = np.cumsum([0] + [b.cols.size for b in blocks])
        return RowBlock(np.concatenate([b.cols for b in blocks]),
                        np.concatenate([b.vals for b in blocks]),
                        np.concatenate([[0]] + [b.start[1:] + off
                                                for b, off in zip(blocks, offsets)]))

    def drop(self, count: int) -> "RowBlock":
        """The block without its first count rows."""
        if not count:
            return self
        a = self.start[count]
        return RowBlock(self.cols[a:], self.vals[a:], self.start[count:] - a)


_EMPTY_BLOCK = RowBlock(np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(1, dtype=np.intp))


@dataclass(frozen=True)
class _RowMatrix:
    """The first `count` rows of a model, its first `blocks` row blocks,
    in row-wise CSR form, canonical as scipy.sparse's sum_duplicates
    leaves it (columns sorted within a row, a repeated column summed,
    explicit zeros kept), with each row's relation as two masks.
    _assemble builds it in numpy.

    A row is assembled and checked once: copies of a model share the
    object, and appending rows makes a new one for the copy alone.
    """

    count: int
    blocks: int
    start: np.ndarray  # int32, as HiGHS's array calls take it
    index: np.ndarray  # int32
    value: np.ndarray
    no_lower: np.ndarray  # relation "<="
    no_upper: np.ndarray  # relation ">="
    finite: bool  # every coefficient of the rows is finite

    def extend(self, tail: "_RowMatrix") -> "_RowMatrix":
        if not self.blocks:
            return tail
        return _RowMatrix(
            self.count + tail.count, self.blocks + tail.blocks,
            np.concatenate([self.start, tail.start[1:] + self.start[-1]]),
            np.concatenate([self.index, tail.index]),
            np.concatenate([self.value, tail.value]),
            np.concatenate([self.no_lower, tail.no_lower]),
            np.concatenate([self.no_upper, tail.no_upper]),
            self.finite and tail.finite)


_EMPTY_ROWS = _RowMatrix(0, 0, np.zeros(1, dtype=np.int32), np.zeros(0, dtype=np.int32),
                         np.zeros(0), np.zeros(0, dtype=bool), np.zeros(0, dtype=bool), True)


def _assemble(rows: RowBlock, rel: np.ndarray, num_vars: int, blocks: int) -> _RowMatrix:
    """The rows, which make up `blocks` blocks, in canonical CSR form.

    Rows whose columns already increase strictly, as the stage compilers
    write them, are canonical and are taken as they are; otherwise every row
    goes through _sum_duplicates.  Either way each value is what
    sum_duplicates makes of it: a lone entry is kept bit for bit.
    """
    count = len(rows)
    key = np.repeat(np.arange(count), np.diff(rows.start)) * num_vars + rows.cols
    if (key[1:] > key[:-1]).all():
        start, index, value = rows.start, rows.cols, rows.vals
    else:
        start, index, value = _sum_duplicates(key, rows.cols, rows.vals, count, num_vars)
    return _RowMatrix(count, blocks, start.astype(np.int32), index.astype(np.int32), value,
                      rel == "<=", rel == ">=", bool(np.isfinite(rows.vals).all()))


def _sum_duplicates(key, cols, vals, count: int, num_vars: int):
    """(start, index, value) of the rows given by their entries' keys
    row * num_vars + column, built in one pass.

    Entries are sorted by key with a stable sort, and the entries of a
    repeated column are summed in the order they were given, left to
    right, as sum_duplicates does.  np.add.at sums that way;
    np.add.reduceat would add a run of three or more as first + (rest),
    which differs in the last bit.  Explicit zeros stay, also where
    repeated columns cancel.
    """
    order = np.argsort(key, kind="stable")
    key, cols, vals = key[order], cols[order], vals[order]
    first = np.ones(key.size, dtype=bool)  # the first entry of its key
    first[1:] = key[1:] != key[:-1]
    kept = key[first]
    summed = np.full(kept.size, -0.0)  # -0.0 + x is x, for every x
    np.add.at(summed, np.cumsum(first) - 1, vals)
    return np.searchsorted(kept, np.arange(count + 1) * num_vars), cols[first], summed


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
    integrality = (model.integrality != CONTINUOUS) & integer
    return (model.num_vars, model.num_rows, rows.index.size, _ROWWISE, _MINIMIZE, 0.0,
            objective, lower, upper, row_lower, row_upper,
            rows.start, rows.index, rows.value, integrality.astype(np.int32))


def milp(highs: _Highs, load) -> None:
    """load() -- passModel, or addRows on a WarmLp's kept model -- then run.

    Every solve calls it once, by the module-level name milp for a MILP
    and linprog for an LP, so that the benchmark's traced run can time
    HiGHS apart from marshalling by patching either name; ROADMAP item 7
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
    return Solution(OPTIMAL, _col_values(highs), highs.getObjectiveValue())


def _col_values(highs: _Highs) -> np.ndarray:
    """The column values of the solution HiGHS holds."""
    return np.fromiter(highs.getSolution().col_value, dtype=float)


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
    start = np.append(cat([s[:-1] for s in start]) + np.repeat(nz0, nrow), sum(nnz))
    index = cat(index) + np.repeat(col0, nnz)
    return (sum(ncol), sum(nrow), sum(nnz), _ROWWISE, _MINIMIZE, 0.0, cat(cost), cat(lower),
            cat(upper), cat(row_lower), cat(row_upper), start.astype(np.int32),
            index.astype(np.int32), cat(value), cat(integrality))


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
    integer = any((m.integrality != CONTINUOUS).any() for m in models)
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
    nodes = max(highs.getInfoValue("mip_node_count")[1], 0) if integer else 0
    if status == HighsModelStatus.kInfeasible:
        return Solution(INFEASIBLE, None, None, nodes)
    if status == HighsModelStatus.kUnbounded:
        return Solution(UNBOUNDED, None, None, nodes)
    if status in _LIMITS:
        if highs.getInfoValue("primal_solution_status")[1] != kSolutionStatusFeasible:
            return Solution(GAP_LIMIT, None, None, nodes)
        return Solution(GAP_LIMIT, _col_values(highs), highs.getObjectiveValue(), nodes)
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
    return Solution(OPTIMAL, _col_values(highs), highs.getObjectiveValue(), nodes)


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
    for r, (cols, vals) in enumerate(model.rows()):
        lines.append(
            f" {_lp_name(model.row_names[r])}: "
            + _lp_terms(cols, vals, model.names)
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

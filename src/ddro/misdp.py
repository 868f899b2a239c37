"""PSD handling for the Type 3 stage subproblems.

Two complementary routes around the mixed-integer SDP:

* a lower-bound route that outer-approximates the PSD cones with
  eigenvector rows v' M v >= 0, in one cut loop with three phases:

  1. root: solve the LP relaxation and cut every eigenpair of every
     block below -EIGEN_CUT_TOL * max(1, max|block entry|), the scale
     PSD_AUDIT_REL uses, until no block violates that or the LP is not
     optimal.  The tolerance scales with the block because stage blocks
     hold entries up to about 1e6: under the absolute tolerance, the
     first stage-1 root phase of the benchmark's pattern 3-4 (seed 1)
     ran 70 LPs, and its last 22 cut violations of 1.5e-6...2.8e-2 that
     moved the LP objective by 1.3e-10 relative; the scaled rule stops
     it after 48.  Root cuts only speed the loop up, and any subset of
     them leaves a valid relaxation, so the phases below keep the
     absolute tolerance;
  2. MILP rounds: solve the MILP, stop when no block has an eigenvalue
     below -EIGEN_CUT_TOL, else cut the smallest eigenpair of each
     violating block.  A caller may solve each round's MILP its own way
     (the split hook of solve_misdp_outer): the engine splits a stage
     model at a pinned state on its facility states, so a round is one
     root-only batch of copies with the binaries fixed, whose least
     value is the MILP's optimum;
  3. fixed-integer polish: after each MILP round, rerun the LP phase on
     a copy with the integer columns fixed at the rounded incumbent,
     appending its cuts to the MILP model too.

  Most cuts thus come from LPs, and branch-and-bound re-solves only
  confirm them (the root-node cutting of Gally, Pfetsch & Ulbrich, 2018,
  and Kobayashi & Takano, 2020).  Each LP phase is Kelley's (1960)
  loop on one lpmilp.WarmLp: the LP stays loaded, and each round adds
  its cuts and restarts dual simplex from the last basis.  A model with
  no integer columns skips phases 1 and 3: its MILP already is the LP;
  and

* an upper-bound route that inner-approximates each cone by the
  diagonally dominant matrices DD(I), written as plain linear rows on
  the block columns: every feasible point has PSD blocks, so the
  optimum is an upper bound.

Outer rows are valid for every integer assignment (they are linear in
the block entries and independent of the binaries), so they are kept
globally rather than per node, whichever phase found them.  A cut is
just a row of the model: this module keeps no list of eigenvectors,
and a caller that wants the cuts again reads the rows appended to the
model it passed in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import SymMatrix, min_eigenpair
from .lpmilp import (CONTINUOUS, OPTIMAL, LinearModel, NumericalFailure, Solution,
                     WarmLp, solve_milp)

EIGEN_CUT_TOL = 1e-6
MAX_CUT_ROUNDS_OUTER = 1000
# Inner-approximation blocks may dip to -PSD_AUDIT_REL * max(1, max|entry|).
PSD_AUDIT_REL = 1e-6


class CutLoopLimit(RuntimeError):
    """Outer-approximation cut loop hit its round limit."""


class InnerApproxViolation(RuntimeError):
    """An inner-approximation solution has a block that is not PSD, so
    its objective is not an upper bound."""


@dataclass(frozen=True)
class PsdBlockRef:
    """Column map of one symmetric matrix block inside a LinearModel."""

    name: str
    dim: int
    cols: np.ndarray  # (dim, dim) int array of column ids

    def assemble(self, x: np.ndarray) -> SymMatrix:
        """The block's value at x; cols is a symmetric map, so this
        raises ValueError on one that is not."""
        return SymMatrix(x[self.cols])

    def quadratic_form_coeffs(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """v' M v as a (cols, vals) row over the block columns; a column
        the block repeats appears once per position, and assembling the
        row sums it."""
        return self.cols.ravel(), np.outer(v, v).ravel()


def solve_misdp_outer(model: LinearModel, blocks, split=None) -> Solution:
    """Eigen-cut outer approximation loop (phases in the module
    docstring); the returned objective is a valid lower bound on the
    MISDP optimum (exact in the cut-loop limit).

    Each MILP round solves the model by split(model) where that returns
    a Solution, a solve with the model's optimum as its objective, else
    by solve_milp, looked up in this module at each call.

    The model is mutated in place: every row appended is a cut
    v' M v >= 0, valid for subsequent solves with different objectives
    over the same feasible set, so the cuts are the model's rows past
    its row count on entry.  LP and MILP solves both count against
    MAX_CUT_ROUNDS_OUTER; a block eigenvalue below -EIGEN_CUT_TOL is cut,
    in the root phase only one below -EIGEN_CUT_TOL * max(1, max|entry|),
    and the blocks of an optimal solution returned clear -EIGEN_CUT_TOL.
    """
    max_rounds = MAX_CUT_ROUNDS_OUTER
    integer_cols = [j for j, kind in enumerate(model.integrality) if kind != CONTINUOUS]
    rounds = 0
    if integer_cols:
        rounds = _lp_cut_phase(model, (model,), blocks, max_rounds, scaled=True)
    while rounds < max_rounds:
        rounds += 1
        sol = (split and split(model)) or solve_milp(model)
        if sol.status != OPTIMAL:
            return sol
        found = False
        for block in blocks:
            lam, v = min_eigenpair(block.assemble(sol.x))
            if lam < -EIGEN_CUT_TOL:
                _append_cut((model,), block, v)
                found = True
        if not found:
            return sol
        if integer_cols:
            fixed = model.copy()
            for j in integer_cols:
                val = float(np.rint(sol.x[j]))
                fixed.set_bounds(j, val, val)
            rounds += _lp_cut_phase(fixed, (fixed, model), blocks, max_rounds - rounds)
    raise CutLoopLimit(f"no PSD convergence after {max_rounds} rounds")


def _lp_cut_phase(lp: LinearModel, targets, blocks, budget: int, scaled: bool = False) -> int:
    """Solve the continuous relaxation of `lp` and cut every eigenpair
    below -EIGEN_CUT_TOL of every block into each model of `targets`, until no
    block violates, the LP is not optimal, or `budget` solves are spent;
    `scaled` scales the tolerance by max(1, max|block entry|), block by
    block.  Returns the number of LP solves."""
    warm = WarmLp(lp)
    for used in range(1, budget + 1):
        try:
            sol = warm.solve()
        except NumericalFailure:
            return used  # LP cuts only speed the loop up; the MILP rounds decide
        if sol.status != OPTIMAL:
            return used
        found = False
        for block in blocks:
            value = block.assemble(sol.x)
            tol = EIGEN_CUT_TOL * (_entry_scale(value) if scaled else 1.0)
            for lam, v in linalg.sym_eig(value):
                if lam >= -tol:
                    break
                _append_cut(targets, block, v)
                found = True
        if not found:
            return used
    return budget


def _entry_scale(value: SymMatrix) -> float:
    """max(1, max|entry|) of a block value."""
    return max(1.0, float(np.abs(value.entries).max()))


def _append_cut(models, block: PsdBlockRef, v: np.ndarray) -> None:
    """Append v' M v >= 0 for the block to each model."""
    row = block.quadratic_form_coeffs(v)
    for m in models:
        m.add_row(row, ">=", 0.0, name=f"eig_{block.name}_{m.num_rows}")


def add_dd_inner_general(model: LinearModel, blocks) -> LinearModel:
    """Copy of the model with every block in DD(I).

    For each pair a < b one row block[a, b] = qp - qm with qp, qm >= 0,
    and for each a one row block[a, a] >= sum over b != a of (qp + qm).
    A diagonally dominant matrix with a nonnegative diagonal is PSD, so
    the optimum is a valid upper bound on the MISDP optimum.
    """
    out = model.copy()
    for block in blocks:
        _add_dd_rows(out, block)
    return out


def _add_dd_rows(m: LinearModel, block: PsdBlockRef) -> None:
    d = block.dim
    tag = block.name
    split: dict[tuple[int, int], tuple[int, int]] = {}
    for a in range(d):
        for b in range(a + 1, d):
            split[a, b] = split[b, a] = (m.add_var(0.0, np.inf, name=f"qp_{tag}_{a}_{b}"),
                                         m.add_var(0.0, np.inf, name=f"qm_{tag}_{a}_{b}"))
    # off-diagonal entries through the absolute-value split
    for a in range(d):
        for b in range(a + 1, d):
            qp, qm = split[a, b]
            m.add_row({int(block.cols[a, b]): -1.0, qp: 1.0, qm: -1.0}, "=", 0.0,
                      name=f"ddoff_{tag}_{a}_{b}")
    # diagonal dominance
    for a in range(d):
        coeffs = {int(block.cols[a, a]): 1.0}
        for b in range(d):
            if b != a:
                qp, qm = split[a, b]
                coeffs[qp] = coeffs[qm] = -1.0
        m.add_row(coeffs, ">=", 0.0, name=f"dd_{tag}_{a}")


def audit_inner_psd(blocks, x: np.ndarray) -> None:
    """Raise InnerApproxViolation if an inner-approximation solution has
    a block whose smallest eigenvalue is below
    -PSD_AUDIT_REL * max(1, max|entry|).

    Every point of DD(I) is PSD, so a violation means the solver did not
    enforce the DD rows and the stage value is not an upper bound.
    """
    for block in blocks:
        value = block.assemble(x)
        lam = min_eigenpair(value)[0]
        scale = _entry_scale(value)
        if lam < -PSD_AUDIT_REL * scale:
            raise InnerApproxViolation(
                f"inner-approximation block {block.name} has min eigenvalue "
                f"{lam:.3e} (entry scale {scale:.3e})")


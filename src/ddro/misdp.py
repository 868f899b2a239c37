"""PSD handling for the Type 3 stage subproblems.

Two complementary routes around the mixed-integer SDP:

* a lower-bound route that outer-approximates the PSD cones with
  rows v' M v >= 0.  The engine seeds each stage model with the rows of
  add_dd_star_rows, fixed directions that hold on every PSD block (so
  the model stays an outer approximation, and every bound it gives
  keeps its proof), and solve_misdp_outer then cuts in a loop of two
  phases:

  1. MILP rounds: solve the MILP, stop when no block has an eigenvalue
     below -EIGEN_CUT_TOL, else cut each violating block along the
     directions of cut_directions.  A caller may solve each round's
     MILP its own way (the split hook of solve_misdp_outer): the engine
     splits a stage model at a pinned state on its facility states, so
     a round is one root-only batch of copies with the binaries fixed,
     whose least value is the MILP's optimum;
  2. fixed-integer polish: after each MILP round, solve the LP on a
     copy with the integer columns fixed at the rounded incumbent and
     cut each block along cut_directions, appending its cuts to the
     MILP model too, until its blocks clear the tolerance.

  Both phases share the one cut rule, cut_directions: each eigenvector
  of an eigenvalue below -EIGEN_CUT_TOL, then its two neighbours toward
  each eigenvector of a positive eigenvalue.  Most cuts thus come from
  LPs, and branch-and-bound re-solves only confirm them (the root-node
  cutting of Gally, Pfetsch & Ulbrich, 2018, and Kobayashi & Takano,
  2020).  The LP phase is Kelley's (1960) loop on one lpmilp.WarmLp:
  the LP stays loaded, and each round adds its cuts and restarts dual
  simplex from the last basis.  An eigenvector cut alone lets the next
  LP point slide along the cone's boundary (on 2 x 2 blocks the
  violation shrank only 4x per LP); the neighbour rows are tangent
  planes of the cone on both sides of it, which stop that slide.
  Several valid cuts per round is the idea of Sherali & Fraticelli
  (J. Global Optim., 2002).  A model with no integer columns skips
  phase 2: its MILP already is the LP; and

* an upper-bound route that inner-approximates each cone by DD, the
  conic hull of vv' over the directions of the seed rows
  (add_dd_inner_general): every feasible point has PSD blocks, so the
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

from .lpmilp import (CONTINUOUS, OPTIMAL, LinearModel, NumericalFailure, Solution,
                     WarmLp, solve_milp)

EIGEN_CUT_TOL = 1e-6
# the work counts solve_misdp_outer adds to a caller's counters
PSD_COUNTERS = ("psd_milp_rounds", "psd_lp_solves")
MAX_CUT_ROUNDS_OUTER = 1000
# Inner-approximation blocks may dip to -PSD_AUDIT_REL * max(1, max|entry|).
PSD_AUDIT_REL = 1e-6


def min_eigenpair(a: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue of a symmetric array and its unit eigenvector."""
    lams, vecs = np.linalg.eigh(a)
    return float(lams[0]), vecs[:, 0].copy()


class CutLoopLimit(RuntimeError):
    """Outer-approximation cut loop hit its round limit."""


class InnerApproxViolation(RuntimeError):
    """An inner-approximation solution has a block that is not PSD, so
    its objective is not an upper bound."""


@dataclass(frozen=True)
class PsdBlockRef:
    """Column map of one symmetric matrix block inside a LinearModel;
    cols must be a square, symmetric map, or construction raises
    ValueError."""

    name: str
    dim: int
    cols: np.ndarray  # (dim, dim) int array of column ids

    def __post_init__(self) -> None:
        cols = np.asarray(self.cols)
        if cols.shape != (self.dim, self.dim):
            raise ValueError(f"block {self.name}: expected a ({self.dim}, {self.dim}) "
                             f"column map, got shape {cols.shape}")
        if not np.array_equal(cols, cols.T):
            raise ValueError(f"block {self.name}: column map is not symmetric")

    def quadratic_form_coeffs(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """v' M v as a (cols, vals) row over the block columns; a column
        the block repeats appears once per position, and assembling the
        row sums it.  Given directions as the rows of a 2-D v, vals holds
        one such row per direction."""
        v = np.asarray(v)
        return self.cols.ravel(), (v[..., :, None] * v[..., None, :]).reshape(
            v.shape[:-1] + (-1,))


def dd_star_directions(d: int) -> np.ndarray:
    """The fixed directions e_i, then e_i + e_j and e_i - e_j for i < j,
    as the d + d(d-1) rows of an array, unnormalized.  The rows
    v' M v >= 0 over them describe the dual of the diagonally dominant
    cone, DD* (Ahmadi & Majumdar, DSOS and SDSOS optimization, 2019)."""
    eye = np.eye(d)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    return np.array([*eye, *(eye[i] + s * eye[j] for i, j in pairs for s in (1.0, -1.0))])


def add_dd_star_rows(model: LinearModel, blocks) -> None:
    """Append v' M v >= 0 for every block and every v of
    dd_star_directions, the seed rows of the outer route.  Each holds on
    every PSD block, so the model stays an outer approximation; with the
    shared off-diagonal column of a symmetric block, each row's
    coefficients are 1 and +-2."""
    for block in blocks:
        cols, vals = block.quadratic_form_coeffs(dd_star_directions(block.dim))
        model.add_rows(cols, vals, ">=", 0.0, keep=vals != 0,
                       names=[f"ddstar_{block.name}_{n}" for n in range(len(vals))])


def cut_directions(a: np.ndarray) -> list[np.ndarray]:
    """The directions v of the cuts v' M v >= 0 that cut off the
    symmetric block value a = sum of lam_k v_k v_k' (np.linalg.eigh),
    empty where no eigenvalue is below -EIGEN_CUT_TOL.  For each such
    eigenpair i, in eigenvalue order: v_i, then its two neighbours
    cos(t) v_i + sin(t) v_j and cos(t) v_i - sin(t) v_j for each j with
    lam_j > 0, in eigenvalue order, where tan(t)^2 = -lam_i / (2 lam_j).

    Every direction is valid, v' M v >= 0 on every PSD block, so the
    model stays an outer approximation.  Every direction is violated at
    a: v_i' a v_i = lam_i, and a neighbour gives
    cos(t)^2 lam_i + sin(t)^2 lam_j = cos(t)^2 (lam_i + tan(t)^2 lam_j)
    = cos(t)^2 lam_i / 2 < 0.  The factor 1/2 is fixed: it puts
    tan(t)^2 midway between 0, at v_i, and -lam_i / lam_j, where
    v' a v reaches 0 and the row would no longer cut a off.  A caller
    passes a symmetric a (the cols of a PsdBlockRef are a symmetric
    map)."""
    lams, vecs = np.linalg.eigh(a)
    out = []
    for i in np.flatnonzero(lams < -EIGEN_CUT_TOL):
        out.append(vecs[:, i])
        for j in np.flatnonzero(lams > 0):
            # cos^2 = 1 / (1 + tan^2) and sin^2 = tan^2 / (1 + tan^2), in
            # a form that stays finite however small lam_j is
            den = 2.0 * lams[j] - lams[i]
            cos, sin = np.sqrt(2.0 * lams[j] / den), np.sqrt(-lams[i] / den)
            out += [cos * vecs[:, i] + sin * vecs[:, j], cos * vecs[:, i] - sin * vecs[:, j]]
    return out


def solve_misdp_outer(model: LinearModel, blocks, split=None, counters=None) -> Solution:
    """Eigen-cut outer approximation loop (phases in the module
    docstring); the returned objective is a valid lower bound on the
    MISDP optimum (exact in the cut-loop limit).

    Each MILP round solves the model by split(model) where that returns
    a Solution, a solve with the model's optimum as its objective, else
    by solve_milp, looked up in this module at each call.  The first LP
    runs after the first MILP round, so seed rows the model carries
    (add_dd_star_rows) are what shape that round.  Both phases cut each
    block along cut_directions of its value.

    The model is mutated in place: every row appended is a cut
    v' M v >= 0, valid for subsequent solves with different objectives
    over the same feasible set, so the cuts are the model's rows past
    its row count on entry.  LP and MILP solves both count against
    MAX_CUT_ROUNDS_OUTER; a block eigenvalue below -EIGEN_CUT_TOL is cut,
    and the blocks of an optimal solution returned clear -EIGEN_CUT_TOL.
    Where counters is a dict, the loop adds its MILP rounds to
    counters["psd_milp_rounds"] and its LP solves to
    counters["psd_lp_solves"] (keys of PSD_COUNTERS).
    """
    max_rounds = MAX_CUT_ROUNDS_OUTER
    count = counters if counters is not None else dict.fromkeys(PSD_COUNTERS, 0)
    integer_cols = np.flatnonzero(model.integrality != CONTINUOUS)
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        count["psd_milp_rounds"] += 1
        sol = (split and split(model)) or solve_milp(model)
        if sol.status != OPTIMAL or not _cut_blocks((model,), blocks, sol.x):
            return sol
        if integer_cols.size:
            fixed = model.copy()
            val = np.rint(sol.x[integer_cols])
            fixed.set_bounds(integer_cols, val, val)
            used = _lp_cut_phase(fixed, (fixed, model), blocks, max_rounds - rounds)
            count["psd_lp_solves"] += used
            rounds += used
    raise CutLoopLimit(f"no PSD convergence after {max_rounds} rounds")


def _lp_cut_phase(lp: LinearModel, targets, blocks, budget: int) -> int:
    """Solve the continuous relaxation of `lp` and cut every block along
    cut_directions into each model of `targets`, until no block
    violates, the LP is not optimal, or `budget` solves are spent.
    Returns the number of LP solves."""
    warm = WarmLp(lp)
    for used in range(1, budget + 1):
        try:
            sol = warm.solve()
        except NumericalFailure:
            return used  # LP cuts only speed the loop up; the MILP rounds decide
        if sol.status != OPTIMAL or not _cut_blocks(targets, blocks, sol.x):
            return used
    return budget


def _cut_blocks(models, blocks, x: np.ndarray) -> bool:
    """Append v' M v >= 0 to each model for every block and every v of
    cut_directions(block value at x), one block of rows per PSD block
    and model; whether any cut was appended."""
    found = False
    for block in blocks:
        directions = cut_directions(x[block.cols])
        if not directions:
            continue
        cols, vals = block.quadratic_form_coeffs(np.array(directions))
        for m in models:
            m.add_rows(cols, vals, ">=", 0.0, names=[
                f"eig_{block.name}_{r}" for r in range(m.num_rows, m.num_rows + len(vals))])
        found = True
    return found


def add_dd_inner_general(model: LinearModel, blocks) -> LinearModel:
    """The model, with rows written in place that hold every block in
    DD, the conic hull of vv' over dd_star_directions (Barker & Carlson,
    1975): a weight column alpha >= 0 per pair direction e_a +- e_b, and
    rows block[a, b] = sum of alpha v_a v_b for a < b, then block[a, a]
    >= sum of alpha v_a^2, whose slack weighs e_a.  Every point of DD is
    PSD, so the optimum is a valid upper bound on the MISDP optimum.
    """
    for block in blocks:
        d = block.dim
        pairs = dd_star_directions(d)[d:]
        alpha = model.add_vars(len(pairs), 0.0, np.inf, prefix=f"alpha_{block.name}_")
        entries = [(a, b) for a in range(d) for b in range(a + 1, d)] + [(a, a) for a in range(d)]
        cols, vals, start = [], [], [0]
        for a, b in entries:
            sign = 1.0 if a == b else -1.0
            w = pairs[:, a] * pairs[:, b]
            used = w != 0
            cols += [block.cols[a, b], *alpha[used]]
            vals += [sign, *(-sign * w[used])]
            start.append(len(cols))
        model.add_rows(cols, vals, [">=" if a == b else "=" for a, b in entries], 0.0,
                       start=start, names=[f"dd_{block.name}_{a}_{b}" for a, b in entries])
    return model


def audit_inner_psd(blocks, x: np.ndarray) -> None:
    """Raise InnerApproxViolation if an inner-approximation solution has
    a block whose smallest eigenvalue is below
    -PSD_AUDIT_REL * max(1, max|entry|).

    Every point of DD is PSD, so a violation means the solver did not
    enforce the DD rows and the stage value is not an upper bound.
    """
    for block in blocks:
        value = x[block.cols]
        lam = min_eigenpair(value)[0]
        scale = max(1.0, float(np.abs(value).max()))
        if lam < -PSD_AUDIT_REL * scale:
            raise InnerApproxViolation(
                f"inner-approximation block {block.name} has min eigenvalue "
                f"{lam:.3e} (entry scale {scale:.3e})")


"""PSD handling for the Type 3 stage subproblems.

Two complementary routes around the mixed-integer SDP:

* a lower-bound route that outer-approximates the PSD cones with
  eigenvector rows v' M v >= 0, in one cut loop with three phases:

  1. root: solve the LP relaxation and cut every negative eigenpair of
     every block, until no block violates or the LP is not optimal;
  2. MILP rounds: solve the MILP, stop when every block clears the
     tolerance, else cut the smallest eigenpair of each violating block;
  3. fixed-integer polish: after each MILP round, rerun the LP phase on
     a copy with the integer columns fixed at the rounded incumbent,
     appending its cuts to the MILP model too.

  Most cuts thus come from LPs, and branch-and-bound re-solves only
  confirm them (the root-node cutting of Gally, Pfetsch & Ulbrich, 2018,
  and Kobayashi & Takano, 2020).  A model with no integer columns skips
  phases 1 and 3: its MILP already is the LP; and

* an upper-bound route that inner-approximates each cone by the set of
  matrices U' Q U with Q diagonally dominant, which is plain linear
  rows once U is fixed (identity by default).

Outer rows are valid for every integer assignment (they are linear in
the block entries and independent of the binaries), so they are kept
globally rather than per node, whichever phase found them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import SymMatrix, min_eigenpair
from .lpmilp import (CONTINUOUS, DEFAULT_CONFIG, OPTIMAL, LinearModel,
                     MipSolution, NumericalFailure, SolverConfig, solve_lp,
                     solve_milp)

EIGEN_CUT_TOL = 1e-6
MAX_CUT_ROUNDS_OUTER = 1000
SANDWICH_REL_SLACK = 1e-6
# HiGHS silently drops constraint-matrix entries with |a| <= this value.
HIGHS_COEF_CUTOFF = 1e-9
# Incumbent eigenvalue floor for iterated DD bases, relative to max(1, lambda_max).
DD_EIG_FLOOR_REL = 1e-4
# Inner-approximation blocks may dip to -PSD_AUDIT_REL * max(1, max|entry|).
PSD_AUDIT_REL = 1e-6


class CutLoopLimit(RuntimeError):
    """Outer-approximation cut loop hit its round limit."""

    def __init__(self, message: str, best: MipSolution | None = None):
        super().__init__(message)
        self.best = best


class SingularBasis(ValueError):
    """DD basis is singular, or its factor rows hold coefficients that
    HiGHS would drop."""


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
        return SymMatrix.from_array(x[self.cols], asym_tol=1e-5)

    def quadratic_form_coeffs(self, v: np.ndarray) -> dict[int, float]:
        """Coefficients of v' M v as a linear row over the block columns."""
        coeffs: dict[int, float] = {}
        for a in range(self.dim):
            for b in range(self.dim):
                col = int(self.cols[a, b])
                coeffs[col] = coeffs.get(col, 0.0) + float(v[a] * v[b])
        return coeffs


def solve_misdp_outer(model: LinearModel, blocks, tol: float = EIGEN_CUT_TOL,
                      config: SolverConfig = DEFAULT_CONFIG,
                      max_rounds: int = MAX_CUT_ROUNDS_OUTER,
                      vectors: list | None = None) -> MipSolution:
    """Eigen-cut outer approximation loop (phases in the module
    docstring); the returned objective is a valid lower bound on the
    MISDP optimum (exact in the cut-loop limit).

    The model is mutated in place: appended rows stay valid and carry
    over to subsequent solves with different objectives over the same
    feasible set.  When `vectors` is given, (block index, v) of every
    appended row is added to it in append order.  LP and MILP solves
    both count against max_rounds.
    """
    vectors = [] if vectors is None else vectors
    integer_cols = [j for j, kind in enumerate(model.integrality) if kind != CONTINUOUS]
    rounds = 0
    if integer_cols:
        rounds = _lp_cut_phase(model, (model,), blocks, tol, config, max_rounds, vectors)
    sol = None
    while rounds < max_rounds:
        rounds += 1
        sol = solve_milp(model, config)
        if sol.status != OPTIMAL:
            return sol
        found = False
        for b, block in enumerate(blocks):
            lam, v = min_eigenpair(block.assemble(sol.x))
            if lam < -tol:
                _append_cut((model,), blocks, b, v, vectors)
                found = True
        if not found:
            return sol
        if integer_cols:
            fixed = model.copy()
            for j in integer_cols:
                val = float(np.rint(sol.x[j]))
                fixed.set_bounds(j, val, val)
            rounds += _lp_cut_phase(fixed, (fixed, model), blocks, tol, config,
                                    max_rounds - rounds, vectors)
    raise CutLoopLimit(f"no PSD convergence after {max_rounds} rounds", best=sol)


def _lp_cut_phase(lp: LinearModel, targets, blocks, tol: float,
                  config: SolverConfig, budget: int, vectors: list) -> int:
    """Solve the continuous relaxation of `lp` and cut every eigenpair
    below -tol of every block into each model of `targets`, until no
    block violates, the LP is not optimal, or `budget` solves are spent.
    Returns the number of LP solves."""
    for used in range(1, budget + 1):
        try:
            sol = solve_lp(lp, config)
        except NumericalFailure:
            return used  # LP cuts only speed the loop up; the MILP rounds decide
        if sol.status != OPTIMAL:
            return used
        found = False
        for b, block in enumerate(blocks):
            for lam, v in linalg.sym_eig(block.assemble(sol.x)):
                if lam >= -tol:
                    break
                _append_cut(targets, blocks, b, v, vectors)
                found = True
        if not found:
            return used
    return budget


def _append_cut(models, blocks, b: int, v: np.ndarray, vectors: list) -> None:
    """Append v' M v >= 0 for block b to each model and record (b, v)."""
    block = blocks[b]
    coeffs = block.quadratic_form_coeffs(v)
    for m in models:
        m.add_row(coeffs, ">=", 0.0, name=f"eig_{block.name}_{m.num_rows}")
    vectors.append((b, v))


def add_dd_inner(model: LinearModel, blocks, U: SymMatrix, V: SymMatrix) -> LinearModel:
    """Copy of the model with Z in DD(U) and Y in DD(V) rows.

    Introduces a symmetric factor matrix per block (split into
    nonnegative parts) with rows block = basis' Q basis and the
    diagonal-dominance rows on Q.  Every feasible point then has PSD
    blocks, so the optimum is a valid upper bound on the MISDP optimum.
    """
    return add_dd_inner_general(model, blocks, [U.entries, V.entries])


def add_dd_inner_general(model: LinearModel, blocks, bases) -> LinearModel:
    """add_dd_inner for general (possibly non-symmetric) square bases.

    The iterated-Cholesky mode routes here: a Cholesky factor is
    triangular, which the SymMatrix container cannot carry.  Each basis
    is first scaled to unit max-abs entry (see scaled_basis); DD(cU) =
    DD(U) for c > 0, so the cone is unchanged and only the factor-row
    coefficients move away from the solver's cutoff.
    """
    out = model.copy()
    for block, basis in zip(blocks, bases):
        basis = np.asarray(basis, dtype=float)
        if basis.shape != (block.dim, block.dim):
            raise ValueError(f"basis shape {basis.shape} != block dimension {block.dim}")
        _add_dd_rows(out, block, _factor_weights(scaled_basis(basis)))
    return out


def scaled_basis(basis) -> np.ndarray:
    """The basis divided by its max-abs entry, checked against what the
    solver keeps.

    Raises SingularBasis when the scaled basis has a singular value at
    or below HIGHS_COEF_CUTOFF, or when a nonzero coefficient of its
    factor rows block = U' Q U is: HiGHS would drop that coefficient
    silently, the rows would stop forcing the block into DD(U), and the
    stage optimum would no longer be an upper bound.
    """
    u = np.asarray(basis, dtype=float)
    top = float(np.abs(u).max(initial=0.0))
    if not np.isfinite(top) or top == 0.0:
        raise SingularBasis("basis has no finite nonzero entry")
    u = u / top
    if np.linalg.svd(u, compute_uv=False).min() <= HIGHS_COEF_CUTOFF:
        raise SingularBasis(f"scaled basis has a singular value <= {HIGHS_COEF_CUTOFF:g}")
    w = np.abs(_factor_weights(u))
    if np.any((w > 0.0) & (w <= HIGHS_COEF_CUTOFF)):
        raise SingularBasis(f"factor row coefficient {w[w > 0.0].min():.3e} "
                            f"<= solver cutoff {HIGHS_COEF_CUTOFF:g}")
    return u


def _factor_weights(u: np.ndarray) -> np.ndarray:
    """w[a, b, c, d]: coefficient of Q[c, d] (c <= d) in (u' Q u)[a, b]
    over the symmetric factor Q; sums that cancel to rounding noise are
    set to exactly zero."""
    p = np.einsum("ca,db->abcd", u, u)  # u[c, a] * u[d, b]
    pt = p.swapaxes(2, 3)
    w = p + pt
    w[np.abs(w) <= 4.0 * np.finfo(float).eps * (np.abs(p) + np.abs(pt))] = 0.0
    diag = np.arange(u.shape[0])
    w[:, :, diag, diag] = p[:, :, diag, diag]
    return w


def _add_dd_rows(m: LinearModel, block: PsdBlockRef, w: np.ndarray) -> None:
    d = block.dim
    tag = block.name
    diag = m.add_vars(d, 0.0, np.inf, prefix=f"qd_{tag}_")
    qp: dict[tuple[int, int], int] = {}
    qm: dict[tuple[int, int], int] = {}
    for a in range(d):
        for b in range(a + 1, d):
            qp[a, b] = m.add_var(0.0, np.inf, name=f"qp_{tag}_{a}_{b}")
            qm[a, b] = m.add_var(0.0, np.inf, name=f"qm_{tag}_{a}_{b}")

    def q_terms(cc: int, dd_: int) -> list[tuple[int, float]]:
        if cc == dd_:
            return [(int(diag[cc]), 1.0)]
        key = (min(cc, dd_), max(cc, dd_))
        return [(qp[key], 1.0), (qm[key], -1.0)]

    # block[a, b] = (u' Q u)[a, b] over the symmetric factor Q
    for a in range(d):
        for b in range(a, d):
            coeffs: dict[int, float] = {int(block.cols[a, b]): -1.0}
            for cc in range(d):
                for dd_ in range(cc, d):
                    wt = float(w[a, b, cc, dd_])
                    if wt == 0.0:
                        continue
                    for col, sgn in q_terms(cc, dd_):
                        coeffs[col] = coeffs.get(col, 0.0) + sgn * wt
            m.add_row(coeffs, "=", 0.0, name=f"ddfac_{tag}_{a}_{b}")
    # diagonal dominance on Q via the absolute-value split
    for a in range(d):
        coeffs = {int(diag[a]): 1.0}
        for b in range(d):
            if b == a:
                continue
            key = (min(a, b), max(a, b))
            coeffs[qp[key]] = coeffs.get(qp[key], 0.0) - 1.0
            coeffs[qm[key]] = coeffs.get(qm[key], 0.0) - 1.0
        m.add_row(coeffs, ">=", 0.0, name=f"dd_{tag}_{a}")


def dd_basis_from_incumbent(block_value: SymMatrix) -> np.ndarray:
    """Next DD basis from a block incumbent: transpose Cholesky factor.

    With basis u = L', the incumbent L L' = u' I u lies in DD(u) since
    the identity is diagonally dominant.  Before factoring, the
    incumbent is shifted by a multiple of the identity so that its
    smallest eigenvalue is at least DD_EIG_FLOOR_REL * max(1, lambda_max)
    = 1e-4 * max(1, lambda_max).  The shift absorbs slightly indefinite
    blocks, and it keeps zero or rank-deficient incumbents (Z = 0,
    Y = diag(11.9, 0)) from giving factor products near the solver's
    1e-9 coefficient cutoff: scaled to unit max-abs entry, the factor's
    diagonal stays above about 1e-2.  The paper does not fix the floor;
    1e-4 trades distance from the cutoff against how closely a
    near-singular incumbent is followed.  An incumbent whose eigenvalues
    all clear the floor is factored unchanged.
    """
    lams = [lam for lam, _ in linalg.sym_eig(block_value)]
    floor = DD_EIG_FLOOR_REL * max(1.0, lams[-1])
    shift = max(0.0, floor - lams[0])
    lifted = SymMatrix(block_value.entries + shift * np.eye(block_value.n))
    return linalg.cholesky(lifted).T


def audit_inner_psd(blocks, x: np.ndarray) -> None:
    """Raise InnerApproxViolation if an inner-approximation solution has
    a block whose smallest eigenvalue is below
    -PSD_AUDIT_REL * max(1, max|entry|).

    Every point of DD(U) is PSD, so a violation means the solver did not
    enforce the factor rows and the stage value is not an upper bound.
    """
    for block in blocks:
        value = block.assemble(x)
        lam = min_eigenpair(value)[0]
        scale = max(1.0, float(np.abs(value.entries).max()))
        if lam < -PSD_AUDIT_REL * scale:
            raise InnerApproxViolation(
                f"inner-approximation block {block.name} has min eigenvalue "
                f"{lam:.3e} (entry scale {scale:.3e})")


def run_type3_bounds(inst, config=None):
    """Lower and upper bound runs for the Type 3 model; asserts lb <= ub."""
    from . import sddip  # runtime import: sddip builds on this module

    cfg = config if config is not None else sddip.SddipConfig()
    t0 = time.perf_counter()
    lb_report = sddip.run(inst, 3, sddip.replace_config(cfg, bound_mode="lb"))
    ub_report = sddip.run(inst, 3, sddip.replace_config(cfg, bound_mode="ub"))
    lb = lb_report.lb_per_iter[-1]
    ub = ub_report.ub_estimate
    if lb > ub + SANDWICH_REL_SLACK * max(1.0, abs(ub)):
        raise AssertionError(f"bound sandwich violated: lb={lb} > ub={ub}")
    lb_report.wall_time = time.perf_counter() - t0
    return lb_report, ub_report

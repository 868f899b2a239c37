"""Decision-dependent moment maps and worst-case distribution oracles.

Three ambiguity set types over a finite stage support, all centered on
affine decision-dependent moments of the binary open-facility vector:

* Type 1 -- per-coordinate windows on the first and second moments,
* Type 2 -- exact matching of mean vector and covariance matrix,
* Type 3 -- mean constrained to an ellipsoid around the estimate and the
  centered second-moment matrix dominated by a scaled covariance cone.

Types 1-2 reduce to linear programs over the probability vector; the
Type 3 set is convex and is handled by cutting planes: gradient cuts for
the mean ellipsoid and eigenvector cuts for the PSD constraint.  The
optional risk blend augments the inner problem with the CVaR reweighting
variables.  All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .linalg import SymMatrix, min_eigenpair
from .lpmilp import INFEASIBLE, OPTIMAL, LinearModel, solve_lp
from .model import Instance

MAX_CUT_ROUNDS = 500
CUT_VIOLATION_TOL = 1e-7
SLATER_SLACK = 1e-9  # a Type 3 set is nonempty iff its Slater slack reaches this
SLATER_STALL_ROUNDS = 20


class AmbiguityType(IntEnum):
    TYPE1 = 1
    TYPE2 = 2
    TYPE3 = 3


class EmptyAmbiguity(RuntimeError):
    """The ambiguity set is empty at the given state (model is unbounded)."""

    def __init__(self, message: str, stage: int | None = None, x=None):
        super().__init__(message)
        self.stage = stage
        self.x = None if x is None else np.asarray(x)


class NonConvergence(RuntimeError):
    """Cutting-plane loop exceeded its round limit."""


@dataclass(frozen=True)
class RiskSpec:
    """Convex blend (1-lam)*E + lam*CVaR_alpha of the stage measure."""

    lam: float
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("risk weight must lie in [0, 1]")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("CVaR level must lie in (0, 1)")


@dataclass
class WorstCase:
    value: float
    p: np.ndarray
    q_cvar: np.ndarray | None = None

    def sampling_weights(self, risk: RiskSpec | None) -> np.ndarray:
        """Probability weights of the blended worst-case measure."""
        if risk is None or self.q_cvar is None:
            w = self.p.copy()
        else:
            w = (1.0 - risk.lam) * self.p + self.q_cvar
        w = np.clip(w, 0.0, None)
        return w / w.sum()


def mean_map(inst: Instance, x) -> np.ndarray:
    """mu_j(x) = mu_bar_j * (1 + sum_i lambda_mu[j,i] x_i)."""
    return inst.mu_bar * (1.0 + inst.lambda_mu @ np.asarray(x, dtype=float))


def second_moment_map(inst: Instance, x) -> np.ndarray:
    """S_j(x) = (mu_bar_j^2 + sigma_bar_j^2) * (1 + sum_i lambda_S[j,i] x_i)."""
    base = inst.mu_bar**2 + inst.sigma_bar**2
    return base * (1.0 + inst.lambda_S @ np.asarray(x, dtype=float))


def type1_bounds(inst: Instance, x) -> tuple[np.ndarray, np.ndarray]:
    """Lower/upper moment windows (normalization, J means, J second moments)."""
    mu = mean_map(inst, x)
    s = second_moment_map(inst, x)
    l = np.concatenate([[1.0], mu - inst.eps_mu, s * inst.eps_S_lo])
    u = np.concatenate([[1.0], mu + inst.eps_mu, s * inst.eps_S_hi])
    return l, u


def decision_moments_type23(inst: Instance, x) -> tuple[np.ndarray, SymMatrix]:
    """(mu(x), Sigma(x)) with Sigma(x) = Sigma_bar * (1 + sum_i lambda_cov_i x_i)."""
    scale = 1.0 + float(inst.lambda_cov @ np.asarray(x, dtype=float))
    return mean_map(inst, x), SymMatrix(inst.Sigma_bar.entries * scale)


def _moment_matrix_type1(inst: Instance, stage: int) -> np.ndarray:
    """(1+2J) x K moment evaluations (1, xi_j, xi_j^2) at the stage support."""
    xi = inst.stage_support(stage)
    return np.vstack([np.ones(xi.shape[0]), xi.T, (xi**2).T])


def _add_risk_block(m: LinearModel, p_cols: np.ndarray, q_values: np.ndarray,
                    risk: RiskSpec) -> np.ndarray:
    """CVaR reweighting variables: qt <= p*lam/(1-alpha), sum(qt) = lam."""
    K = p_cols.size
    qt = m.add_vars(K, 0.0, np.inf, prefix="qt_")
    ratio = risk.lam / (1.0 - risk.alpha)
    for k in range(K):
        m.add_row({int(qt[k]): 1.0, int(p_cols[k]): -ratio}, "<=", 0.0)
        m.set_objective(int(qt[k]), -float(q_values[k]))
    m.add_row((qt, np.ones(K)), "=", risk.lam)
    return qt


def _base_master(inst: Instance, ttype: AmbiguityType, x, stage: int,
                 q, risk: RiskSpec | None) -> tuple[LinearModel, np.ndarray, np.ndarray | None]:
    """LP over the probability vector with the type's linear moment rows."""
    K = inst.K
    q = np.zeros(K) if q is None else np.asarray(q, dtype=float)
    m = LinearModel()
    p = m.add_vars(K, 0.0, 1.0, prefix="p_")
    obj_scale = 1.0 if risk is None else (1.0 - risk.lam)
    for k in range(K):
        m.set_objective(int(p[k]), -obj_scale * float(q[k]))  # maximize
    if ttype == AmbiguityType.TYPE1:
        F = _moment_matrix_type1(inst, stage)
        l, u = type1_bounds(inst, x)
        m.add_row((p, F[0]), "=", 1.0)
        for r in range(1, F.shape[0]):
            m.add_row((p, F[r]), ">=", float(l[r]))
            m.add_row((p, F[r]), "<=", float(u[r]))
    elif ttype == AmbiguityType.TYPE2:
        xi = inst.stage_support(stage)
        mu_x, sig_x = decision_moments_type23(inst, x)
        dev = xi - mu_x[None, :]
        m.add_row((p, np.ones(K)), "=", 1.0)
        for j in range(inst.J):
            m.add_row((p, xi[:, j]), "=", float(mu_x[j]))
        for j in range(inst.J):
            for jp in range(j, inst.J):
                m.add_row((p, dev[:, j] * dev[:, jp]), "=", float(sig_x.entries[j, jp]))
    elif ttype == AmbiguityType.TYPE3:
        m.add_row((p, np.ones(K)), "=", 1.0)
    else:
        raise ValueError(f"unknown ambiguity type {ttype}")
    qt = None
    if risk is not None:
        qt = _add_risk_block(m, p, q, risk)
    return m, p, qt


class _Type3Geometry:
    """Fixed data of the Type 3 set at a given state."""

    def __init__(self, inst: Instance, x, stage: int):
        self.xi = inst.stage_support(stage)
        self.mu_x, sig = decision_moments_type23(inst, x)
        self.sigma = sig.entries
        scale = max(1.0, float(np.abs(self.sigma).max()))
        if min_eigenpair(sig)[0] <= 1e-10 * scale:
            raise ValueError("Type 3 set needs a positive definite covariance map")
        self.gamma = inst.gamma
        dev = self.xi - self.mu_x[None, :]
        self.outer = dev[:, :, None] * dev[:, None, :]  # (K, J, J)
        self.eta_sigma = inst.eta_cov * self.sigma

    def ellipsoid_value_grad(self, p: np.ndarray) -> tuple[float, np.ndarray]:
        d = self.xi.T @ p - self.mu_x
        w = np.linalg.solve(self.sigma, d)
        return float(d @ w) - self.gamma, 2.0 * (self.xi @ w)

    def psd_gap(self, p: np.ndarray) -> tuple[float, np.ndarray]:
        """Smallest eigenvalue (and vector) of eta*Sigma(x) - sum_k p_k M_k."""
        a = self.eta_sigma - np.tensordot(p, self.outer, axes=1)
        return min_eigenpair(SymMatrix.from_array(a))

    def add_ellipsoid_cut(self, m: LinearModel, p_cols, p_hat, slack_col=None):
        val, grad = self.ellipsoid_value_grad(p_hat)
        coeffs = {int(c): float(g) for c, g in zip(p_cols, grad)}
        if slack_col is not None:
            coeffs[slack_col] = 1.0
        m.add_row(coeffs, "<=", float(grad @ p_hat - val))

    def add_eigen_cut(self, m: LinearModel, p_cols, v, slack_col=None):
        lhs = np.einsum("j,kjl,l->k", v, self.outer, v)
        coeffs = {int(c): float(a) for c, a in zip(p_cols, lhs)}
        if slack_col is not None:
            coeffs[slack_col] = 1.0
        m.add_row(coeffs, "<=", float(v @ self.eta_sigma @ v))


def type3_slater_slack(inst: Instance, x, stage: int = 2) -> float:
    """Joint slack of the ellipsoid and min-eigenvalue rows, to its sign.

    Kelley's cutting planes bound the largest slack from below (the true
    slack at the LP's point) and from above (the LP).  The loop stops as
    soon as either bound certifies the slack's side of SLATER_SLACK: it
    returns the best true slack, which is >= SLATER_SLACK exactly when
    the set has a Slater point.  Bounds that straddle SLATER_SLACK and
    stop closing raise NonConvergence.
    """
    geo = _Type3Geometry(inst, x, stage)
    K = inst.K
    m = LinearModel()
    p = m.add_vars(K, 0.0, 1.0, prefix="p_")
    s = m.add_var(-np.inf, np.inf, obj=-1.0, name="slack")  # maximize s
    m.add_row((p, np.ones(K)), "=", 1.0)
    p_hat = np.full(K, 1.0 / K)
    best, gap, stalled = -np.inf, np.inf, 0
    for _ in range(MAX_CUT_ROUNDS):
        geo.add_ellipsoid_cut(m, p, p_hat, slack_col=s)
        lam_min, v = geo.psd_gap(p_hat)
        geo.add_eigen_cut(m, p, v, slack_col=s)
        best = max(best, min(-geo.ellipsoid_value_grad(p_hat)[0], lam_min))
        if best >= SLATER_SLACK:
            return best
        sol = solve_lp(m)
        if sol.status != OPTIMAL:
            raise NonConvergence(f"Slater slack LP returned {sol.status}")
        s_hat = float(sol.x[s])
        if s_hat < SLATER_SLACK:
            return best
        # the gap must keep closing by more than the LP tolerance
        stalled = stalled + 1 if s_hat - best > gap - 1e-10 * max(1.0, abs(s_hat)) else 0
        if stalled >= SLATER_STALL_ROUNDS:
            break
        gap = min(gap, s_hat - best)
        p_hat = np.clip(sol.x[p], 0.0, None)
        p_hat = p_hat / p_hat.sum()
    raise NonConvergence(f"Slater slack bounds [{best:.12g}, {best + gap:.12g}] "
                         f"stalled around the threshold {SLATER_SLACK:g}")


def is_nonempty(inst: Instance, ttype: AmbiguityType, x, stage: int = 2) -> bool:
    """Feasibility of the stage ambiguity set at state x."""
    if ttype == AmbiguityType.TYPE3:
        return type3_slater_slack(inst, x, stage) >= SLATER_SLACK
    m, _, _ = _base_master(inst, ttype, x, stage, None, None)
    sol = solve_lp(m)
    if sol.status == OPTIMAL:
        return True
    if sol.status == INFEASIBLE:
        return False
    raise NonConvergence(f"feasibility solve returned {sol.status}")


def worst_case(inst: Instance, ttype: AmbiguityType, x, q,
               stage: int = 2, risk: RiskSpec | None = None) -> WorstCase:
    """Maximize the (risk-blended) stage measure of q over the ambiguity set."""
    q = np.asarray(q, dtype=float)
    if q.shape != (inst.K,):
        raise ValueError("q must have one value per support point")
    m, p_cols, qt_cols = _base_master(inst, ttype, x, stage, q, risk)
    if ttype != AmbiguityType.TYPE3:
        sol = solve_lp(m)
        if sol.status == INFEASIBLE:
            raise EmptyAmbiguity(f"empty type-{int(ttype)} ambiguity set", stage, x)
        if sol.status != OPTIMAL:
            raise NonConvergence(f"worst-case solve returned {sol.status}")
        return _finish(sol, p_cols, qt_cols)

    geo = _Type3Geometry(inst, x, stage)
    if not is_nonempty(inst, ttype, x, stage):
        raise EmptyAmbiguity("empty type-3 ambiguity set", stage, x)
    for _ in range(MAX_CUT_ROUNDS):
        sol = solve_lp(m)
        if sol.status == INFEASIBLE:
            raise EmptyAmbiguity("empty type-3 ambiguity set", stage, x)
        if sol.status != OPTIMAL:
            raise NonConvergence(f"worst-case solve returned {sol.status}")
        p_hat = np.clip(sol.x[p_cols], 0.0, None)
        total = p_hat.sum()
        if total > 0:
            p_hat = p_hat / total
        ell_val, _ = geo.ellipsoid_value_grad(p_hat)
        lam_min, v = geo.psd_gap(p_hat)
        if max(ell_val, -lam_min) <= CUT_VIOLATION_TOL:
            return _finish(sol, p_cols, qt_cols)
        if ell_val > 1e-9:
            geo.add_ellipsoid_cut(m, p_cols, p_hat)
        if lam_min < -1e-9:
            geo.add_eigen_cut(m, p_cols, v)
    raise NonConvergence("type-3 cutting planes exceeded the round limit")


def _finish(sol, p_cols, qt_cols) -> WorstCase:
    p = np.clip(sol.x[p_cols], 0.0, None)
    total = p.sum()
    if abs(total - 1.0) > 1e-8:
        raise NonConvergence(f"worst-case distribution mass {total}")
    qt = None if qt_cols is None else np.clip(sol.x[qt_cols], 0.0, None)
    return WorstCase(value=-float(sol.objective), p=p / total, q_cvar=qt)

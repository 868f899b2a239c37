"""Stage subproblem compilers.

Each builder turns a stage Bellman subproblem into a mixed-integer
linear model: the stage feasible rows (with the incoming state as the
pinned copy z of model.build_stage_block), the dual variables of the
inner worst-case problem, per-realization dual-feasibility rows against
the continuation proxies theta_t^k, and McCormick envelopes that
linearize every product of a binary state entry with a bounded dual.
add_cut_rows appends the pooled under-approximation cut rows.
Minimizing the compiled model therefore evaluates the stage cost plus
the worst case of the current continuation approximation.  build_stage
covers every stage t = 1..T: the terminal stage, whose cost-to-go is
zero, compiles to the stage block alone, with no proxies and no duals.

Type 1 carries moment-window duals (alpha, beta); Type 2 the matching
duals (s, u, Y) with bilinear w, z and trilinear v envelopes, and, where
the next stage's support is rank-deficient and the moment maps stay in
its affine hull at every state, hull rows that remove the directions of
(u, Y) and of their products that cost nothing (build_type2_stage);
Type 3 the
ellipsoid/cone duals (s, Z-blocks, Y) whose PSD side is NOT encoded
here -- the builders only return symbolic block descriptors for the
bounding module.  The optional risk blend adds the CVaR shift variable
and the per-realization reweighting duals, and reduces exactly to the
risk-neutral rows at a zero blend weight.

Each distinct product has one column and one envelope: the symmetric
duals Y and z1, and their products x_i Y and x_i z1, have one column per
unordered pair j <= jp, as ambiguity's moment-matching master has one
covariance row per pair; x_i x_ip Y has one per i < ip, since x_i^2 = x_i
folds its diagonal into x_i Y.  The layout's families keep their full
index shapes and repeat a column wherever products are equal; a merged
column carries the summed coefficients of its positions.

McCormick needs finite dual bounds; the default big-M is
1e4 * (1 + max revenue + max transport cost).  A post-solve audit flags
any dual sitting at its bound, and solve_with_dual_bound runs its hook,
then settles it on a flat optimal face or reruns with 10x M.  Without
the Type 2 hull rows a rank-deficient support leaves u and Y a direction
that costs nothing, HiGHS may park them at the box, and each such solve
costs a probe; with them, a dual at its bound means the set is empty at
the solution's state, which the hook reports first, or M is too small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ambiguity import RiskSpec
from .lpmilp import OPTIMAL, LinearModel, solve_milp
from .misdp import PsdBlockRef
from .model import Instance, StageBlock, build_stage_block, revenue_lower_bound

DUAL_BOUND_FACTOR = 1e4
DUAL_BOUND_AUDIT_REL = 1e-6
FLAT_FACE_REL = 1e-7
MAX_DUAL_ESCALATIONS = 3
HULL_RANK_REL = 1e-9  # singular values below this times the data's scale count as zero


class UnboundedFactor(ValueError):
    """McCormick factor has an infinite bound."""


class DualAtBound(RuntimeError):
    """A dual variable still sits at its big-M bound after the last
    escalation."""


@dataclass
class DualBound:
    """A big-M dual bound, how often it has been escalated, and how many
    flat-face probes solve_with_dual_bound has run at it."""

    value: float
    escalations: int = 0
    probes: int = 0


@dataclass
class VarLayout:
    """Named column ranges of a compiled stage model."""

    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    z_copy: np.ndarray  # the incoming-state copy
    families: dict[str, np.ndarray] = field(default_factory=dict)
    audit_families: tuple[str, ...] = ()
    dual_bound: float = 0.0
    dem: np.ndarray | None = None  # the stage block's demand-cap rows

    def cost_value(self, inst: Instance, x_sol: np.ndarray) -> float:
        """Stage cost g_t of the flow part of a solution vector."""
        y_vals = np.asarray(x_sol)[self.y]
        return float(np.sum((inst.c - inst.R[None, :]) * y_vals))


def default_dual_bound(inst: Instance) -> float:
    return DUAL_BOUND_FACTOR * (1.0 + float(np.abs(inst.R).max())
                                + float(np.abs(inst.c).max()))


def mccormick_binary_product(model: LinearModel, b: int, y: int, z: int,
                             L: float, U: float) -> None:
    """Envelope rows forcing z = b*y at binary b, for y in [L, U]."""
    if not (math.isfinite(L) and math.isfinite(U)):
        raise UnboundedFactor("McCormick factor bounds must be finite")
    model.add_row({z: 1.0, b: -U}, "<=", 0.0)
    model.add_row({z: 1.0, b: -L}, ">=", 0.0)
    model.add_row({z: 1.0, y: -1.0, b: -L}, "<=", -L)
    model.add_row({z: 1.0, y: -1.0, b: -U}, ">=", -U)


def _start_stage(inst: Instance, t: int, x_prev, xi,
                 dual_bound: float | None) -> tuple[LinearModel, VarLayout, float]:
    """Common head of every stage builder: the stage feasible block, the
    continuation proxies theta and the layout; returns (model, layout, M)."""
    if not 1 <= t < inst.T:
        raise ValueError(f"stage {t} has no continuation (T={inst.T})")
    M = default_dual_bound(inst) if dual_bound is None else float(dual_bound)
    block = build_stage_block(inst, t, x_prev, xi)
    theta = block.model.add_vars(inst.K, revenue_lower_bound(inst, t), np.inf, prefix="th_")
    return block.model, _block_layout(block, theta, M), M


def _block_layout(block: StageBlock, theta: np.ndarray, dual_bound: float = 0.0) -> VarLayout:
    """The layout of a stage model made of the stage block and the
    continuation proxies theta."""
    lay = VarLayout(x=block.x, y=block.y, theta=theta, z_copy=block.z_copy,
                    dual_bound=dual_bound, dem=block.dem)
    lay.families = {"x": block.x, "y": block.y, "theta": theta, "z_copy": block.z_copy}
    return lay


def _finish_stage(m: LinearModel, inst: Instance, lay: VarLayout, dual_coeffs_per_k,
                  risk: RiskSpec | None, shift_sign: float) -> None:
    """Common tail of every stage builder: the CVaR columns when risk is
    on and one dual-feasibility row per realization (plus its CVaR row).
    The pooled cut rows come after, appended by add_cut_rows.

    shift_sign encodes the printed convention of the risk theorems: the
    moment-window form carries +lam*shift and rows pi_k + shift >= theta_k;
    the matching/cone forms carry -lam*shift and rows pi_k - shift >= theta_k.
    """
    theta = lay.theta
    if risk is not None:
        pi_cvar = m.add_vars(inst.K, 0.0, np.inf, prefix="pic_")
        shift = m.add_var(-np.inf, np.inf, name="cvar_shift")
        lay.families["pi_cvar"] = pi_cvar
        lay.families["cvar_shift"] = np.array([shift])
        m.set_objective(shift, shift_sign * risk.lam)
    for k in range(inst.K):
        coeffs = dict(dual_coeffs_per_k[k])
        if risk is None:
            coeffs[int(theta[k])] = coeffs.get(int(theta[k]), 0.0) - 1.0
            m.add_row(coeffs, ">=", 0.0, name=f"dual_{k}")
        else:
            coeffs[int(pi_cvar[k])] = -risk.lam / (1.0 - risk.alpha)
            coeffs[int(theta[k])] = -(1.0 - risk.lam)
            m.add_row(coeffs, ">=", 0.0, name=f"dual_{k}")
            m.add_row({int(pi_cvar[k]): 1.0, shift: shift_sign,
                       int(theta[k]): -1.0}, ">=", 0.0, name=f"cvar_{k}")


def add_cut_rows(m: LinearModel, lay: VarLayout, cuts) -> None:
    """One row theta_k - pi'x >= v per cut (v, pi) in cuts[k], realization
    by realization: the last rows of a compiled stage model."""
    for k, cut_list in enumerate(cuts):
        for v, pi in cut_list:
            coeffs = {int(lay.theta[k]): 1.0}
            for i, col in enumerate(lay.x):
                if pi[i] != 0.0:
                    coeffs[int(col)] = -float(pi[i])
            m.add_row(coeffs, ">=", float(v))


def build_type1_stage(inst: Instance, t: int, x_prev, xi,
                      risk: RiskSpec | None = None, *, dual_bound: float | None = None
                      ) -> tuple[LinearModel, VarLayout]:
    """Moment-window stage model (mean/second-moment windows per coordinate).

    The printed model also carries duals of the probability bounds
    0 <= p_k <= 1.  They are left out, since they cannot lower the stage
    value: gamma_lo only tightens its row, and gamma_hi costs as much as
    beta1, which relaxes every row by as much (tests/test_reformulate.py::
    test_prob_bound_dual_columns_are_neutral).
    """
    m, lay, M = _start_stage(inst, t, x_prev, xi, dual_bound)
    x = lay.x
    J, K = inst.J, inst.K
    s_base = inst.mu_bar**2 + inst.sigma_bar**2
    a1 = m.add_var(0.0, np.inf, obj=-1.0, name="al1")
    b1 = m.add_var(0.0, np.inf, obj=1.0, name="be1")
    a2 = m.add_vars(J, 0.0, M, prefix="al2_")
    a3 = m.add_vars(J, 0.0, M, prefix="al3_")
    b2 = m.add_vars(J, 0.0, M, prefix="be2_")
    b3 = m.add_vars(J, 0.0, M, prefix="be3_")
    for j in range(J):
        m.set_objective(int(a2[j]), -(inst.mu_bar[j] - inst.eps_mu[j]))
        m.set_objective(int(a3[j]), -s_base[j] * inst.eps_S_lo[j])
        m.set_objective(int(b2[j]), inst.mu_bar[j] + inst.eps_mu[j])
        m.set_objective(int(b3[j]), s_base[j] * inst.eps_S_hi[j])
    prods = {}
    for fam, factor, sign, weight in (
        ("z_a2", a2, -1.0, inst.lambda_mu * inst.mu_bar[:, None]),
        ("z_a3", a3, -1.0, inst.lambda_S * (inst.eps_S_lo * s_base)[:, None]),
        ("z_b2", b2, 1.0, inst.lambda_mu * inst.mu_bar[:, None]),
        ("z_b3", b3, 1.0, inst.lambda_S * (inst.eps_S_hi * s_base)[:, None]),
    ):
        # (J, I): one call per j keeps the columns and rows j-major
        prods[fam] = np.array([_product_vars(m, x, factor[j:j + 1], 0.0, M)[:, 0]
                               for j in range(J)])
        _add_objective(m, prods[fam], sign * weight)
    lay.families.update({"alpha1": np.array([a1]), "beta1": np.array([b1]),
                         "alpha2": a2, "alpha3": a3, "beta2": b2, "beta3": b3,
                         **prods})
    lay.audit_families = ("alpha2", "alpha3", "beta2", "beta3")

    xi_next = inst.stage_support(t + 1)
    dual_coeffs = []
    for k in range(K):
        coeffs = {a1: -1.0, b1: 1.0}
        for j in range(J):
            coeffs[int(a2[j])] = -xi_next[k, j]
            coeffs[int(b2[j])] = xi_next[k, j]
            coeffs[int(a3[j])] = -(xi_next[k, j] ** 2)
            coeffs[int(b3[j])] = xi_next[k, j] ** 2
        dual_coeffs.append(coeffs)
    _finish_stage(m, inst, lay, dual_coeffs, risk, 1.0)
    return m, lay


def _quadratic_value_coeffs(inst: Instance, xi_k: np.ndarray, Y: np.ndarray,
                            prod: np.ndarray, tri: np.ndarray) -> dict[int, float]:
    """Coefficients of (xi - mu(x))(xi - mu(x))' . Y with the binary
    products substituted: prod[i,j,jp] = x_i Y[j,jp], tri[i,ip,j,jp] =
    x_i x_ip Y[j,jp]; a column the maps repeat sums its terms."""
    J, I = inst.J, inst.I
    mu_b = inst.mu_bar
    lam = inst.lambda_mu
    coeffs: dict[int, float] = {}

    def bump(col, val):
        if val != 0.0:
            c = int(col)
            coeffs[c] = coeffs.get(c, 0.0) + float(val)

    for j in range(J):
        for jp in range(J):
            bump(Y[j, jp], xi_k[j] * xi_k[jp])
            t1 = xi_k[j] * mu_b[jp]
            bump(Y[j, jp], -t1)
            bump(Y[jp, j], -t1)
            for i in range(I):
                r = lam[jp, i] * t1
                bump(prod[i, jp, j], -r)
                bump(prod[i, j, jp], -r)
            t2 = mu_b[j] * mu_b[jp]
            bump(Y[j, jp], t2)
            for i in range(I):
                bump(prod[i, j, jp], (lam[j, i] + lam[jp, i]) * t2)
                for ip in range(I):
                    bump(tri[i, ip, j, jp], lam[j, i] * lam[jp, ip] * t2)
    return coeffs


def _pair_vars(m: LinearModel, n: int, lb, ub, prefix) -> np.ndarray:
    """Symmetric (n, n) column map: one column per unordered pair j <= jp."""
    cols = np.empty((n, n), dtype=int)
    for j in range(n):
        for jp in range(j, n):
            cols[j, jp] = cols[jp, j] = m.add_var(lb, ub, name=f"{prefix}{j}_{jp}")
    return cols


def _product_vars(m: LinearModel, x: np.ndarray, factor: np.ndarray, lo: float,
                  M: float) -> np.ndarray:
    """Column map p[i, ...] = x_i * factor[...] for binary columns x and
    a factor in [lo, M]: for each x_i one column in [lo, M], named after
    its factors, and one McCormick envelope per distinct column of
    factor, so p repeats a column wherever factor does."""
    flat = [int(f) for f in factor.ravel()]
    cols = np.empty((len(x), len(flat)), dtype=int)
    for i, b in enumerate(x):
        made: dict[int, int] = {}
        for f in dict.fromkeys(flat):
            made[f] = m.add_var(lo, M, name=f"{m.names[b]}.{m.names[f]}")
            mccormick_binary_product(m, int(b), f, made[f], lo, M)
        cols[i] = [made[f] for f in flat]
    return cols.reshape((len(x),) + factor.shape)


def _trilinear_vars(m: LinearModel, x: np.ndarray, prod: np.ndarray, M: float) -> np.ndarray:
    """Column map of x_i * x_ip * factor from prod = x_i * factor.  Its
    diagonal i = ip is prod itself, as x_i^2 = x_i; off it, one column
    x_ip * prod[i] per i < ip, shared by (ip, i)."""
    tri = np.repeat(prod[:, None], len(x), axis=1)
    for ip in range(1, len(x)):
        tri[:ip, ip] = tri[ip, :ip] = _product_vars(m, x[ip:ip + 1], prod[:ip], -M, M)[0]
    return tri


def _add_objective(m: LinearModel, cols: np.ndarray, weights) -> None:
    """Add weights to the objective of cols, position by position, so a
    repeated column gets their sum."""
    for c, w in zip(cols.ravel(), np.broadcast_to(weights, cols.shape).ravel()):
        m.set_objective(int(c), m.objective[c] + float(w))


def hull_directions(inst: Instance, t: int) -> np.ndarray:
    """Orthonormal rows d, spanning every direction along which the
    Type 2 set of stage t+1 is flat at every state x: d'(xi_k - xi_0) = 0
    for the support points xi_k of stage t+1, d'(mu(x) - xi_0) = 0 for
    the affine mean map mu(x) = mu_bar + (mu_bar * lambda_mu) x, checked
    on mu_bar - xi_0 and each column of mu_bar * lambda_mu, and
    Sigma_bar d = 0, so Sigma(x) d = 0: the null space of these rows,
    from numpy's SVD.  Empty for a support of full rank."""
    xi = inst.stage_support(t + 1)
    a = np.vstack([xi[1:] - xi[0], inst.mu_bar - xi[0],
                   (inst.mu_bar[:, None] * inst.lambda_mu).T, inst.Sigma_bar])
    _, sv, vt = np.linalg.svd(a)
    return vt[int(np.sum(sv > HULL_RANK_REL * max(1.0, float(np.abs(a).max())))):]


def _add_hull_row(m: LinearModel, cols: np.ndarray, weights: np.ndarray, name: str) -> None:
    """The row sum(weights * cols) = 0, a repeated column summing its
    weights and a round-off weight dropped."""
    coeffs: dict[int, float] = {}
    for c, wt in zip(cols.ravel(), weights.ravel()):
        coeffs[int(c)] = coeffs.get(int(c), 0.0) + float(wt)
    m.add_row({c: wt for c, wt in coeffs.items() if abs(wt) > HULL_RANK_REL}, "=", 0.0,
              name=name)


def build_type2_stage(inst: Instance, t: int, x_prev, xi,
                      risk: RiskSpec | None = None, *, dual_bound: float | None = None
                      ) -> tuple[LinearModel, VarLayout]:
    """Exact moment-matching stage model (duals s, u, Y; products w, z, v).

    Where hull_directions(inst, t) is not empty, the model also carries
    hull rows: for each direction d of it and each vector a of an
    orthonormal basis of R^J that starts with those directions, d'u = 0,
    d'w_i = 0 for each product w_i = x_i u, <da' + ad', Y> = 0 and
    <da' + ad', z_i> = 0 for each product z_i = x_i Y, one row per
    distinct matrix da' + ad'.  At binary x the envelopes make the
    product rows copies of the first ones; they also bind the LP
    relaxation.

    The rows keep the stage value at every state x.  At fixed x, moving
    u by r*d, Y by r*(da' + ad') and s by -r*d'xi_0 leaves every
    realization's dual term s + u'xi_k + <Y, (xi_k - mu(x))(xi_k - mu(x))'>
    unchanged, as d'(xi_k - mu(x)) = 0, and the objective
    s + u'mu(x) + <Y, Sigma(x)> too, as d'mu(x) = d'xi_0 and
    Sigma(x) d = 0.  The risk-neutral dual row of realization k is that
    term minus theta_k; the CVaR dual row is that term minus
    lam/(1-alpha) pic_k and (1-lam) theta_k, and the CVaR rows and the
    -lam*shift objective hold no s, u or Y: all are unmoved.  So the
    orthogonal projection of a feasible (u, Y) onto the rows' subspace,
    with s shifted to match, is feasible at the same objective, and the
    dual value without the big-M box is unchanged; an optimum that the
    audit finds inside the box is then optimal without it, as before.
    In primal terms the rows drop the matching rows
    d'(E[xi] - mu(x)) = 0 and a'(E[(xi - mu(x))(xi - mu(x))'] - Sigma(x))d
    = 0, which read 0 = 0 at every x given sum(p) = 1, so the primal is
    unchanged, empty or not.  At a state whose set is empty the dual is
    still unbounded, along a ray that moves u or Y (s alone cannot lower
    the objective), so the audit still flags the state and the hook of
    solve_with_dual_bound still reports it; no probe settles a free dual
    of these directions any more.
    """
    m, lay, M = _start_stage(inst, t, x_prev, xi, dual_bound)
    x = lay.x
    J, K = inst.J, inst.K
    sig = inst.Sigma_bar
    s = m.add_var(-np.inf, np.inf, obj=1.0, name="s")
    u = m.add_vars(J, -M, M, prefix="u_")
    Y = _pair_vars(m, J, -M, M, "Y_")
    w = _product_vars(m, x, u, -M, M)
    zz = _product_vars(m, x, Y, -M, M)
    v = _trilinear_vars(m, x, zz, M)
    _add_objective(m, u, inst.mu_bar)
    _add_objective(m, Y, sig)
    _add_objective(m, w, inst.mu_bar[None, :] * inst.lambda_mu.T)
    _add_objective(m, zz, sig[None] * inst.lambda_cov[:, None, None])
    lay.families.update({"s": np.array([s]), "u": u, "Y": Y, "w": w, "z": zz, "v": v})
    lay.audit_families = ("u", "Y")
    flat = hull_directions(inst, t)
    if len(flat):
        basis = np.linalg.svd(flat)[2]  # its first len(flat) rows span flat
        for r, d in enumerate(basis[:len(flat)]):
            rows = [("u", u, w, d)] + [
                (f"Y{c}", Y, zz, np.outer(d, basis[c]) + np.outer(basis[c], d))
                for c in range(r, J)]
            for name, dual, prods, weights in rows:
                _add_hull_row(m, dual, weights, f"hull_{name}_{r}")
                for i, cols in enumerate(prods):
                    _add_hull_row(m, cols, weights, f"hull_x{i}{name}_{r}")
    xi_next = inst.stage_support(t + 1)
    dual_coeffs = []
    for k in range(K):
        coeffs = _quadratic_value_coeffs(inst, xi_next[k], Y, zz, v)
        coeffs[s] = 1.0
        for j in range(J):
            coeffs[int(u[j])] = coeffs.get(int(u[j]), 0.0) + xi_next[k, j]
        dual_coeffs.append(coeffs)
    _finish_stage(m, inst, lay, dual_coeffs, risk, -1.0)
    return m, lay


def build_type3_stage(inst: Instance, t: int, x_prev, xi,
                      risk: RiskSpec | None = None, *, dual_bound: float | None = None
                      ) -> tuple[LinearModel, VarLayout, list[PsdBlockRef]]:
    """Ellipsoid/cone stage model; PSD is left to the bounding module.

    Returns block descriptors for Z = [[z1, z2], [z2', z3]] and Y.
    """
    m, lay, M = _start_stage(inst, t, x_prev, xi, dual_bound)
    x = lay.x
    J, K = inst.J, inst.K
    sig = inst.Sigma_bar
    eta = inst.eta_cov
    s = m.add_var(-np.inf, np.inf, obj=1.0, name="s")
    z1 = _pair_vars(m, J, -M, M, "z1_")
    z2 = m.add_vars(J, -M, M, prefix="z2_")
    z3 = m.add_var(0.0, np.inf, obj=float(inst.gamma), name="z3")
    Y = _pair_vars(m, J, -M, M, "Y3_")
    for c in (*np.diag(z1), *np.diag(Y)):
        m.set_bounds(int(c), 0.0, M)  # PSD diagonal
    w3 = _product_vars(m, x, z1, -M, M)
    u3 = _product_vars(m, x, z2, -M, M)
    r3 = _product_vars(m, x, Y, -M, M)
    v3 = _trilinear_vars(m, x, r3, M)
    lam_cov = inst.lambda_cov[:, None, None]
    _add_objective(m, z2, -2.0 * inst.mu_bar)
    _add_objective(m, z1, sig)
    _add_objective(m, Y, eta * sig)
    _add_objective(m, u3, -2.0 * inst.mu_bar[None, :] * inst.lambda_mu.T)
    _add_objective(m, w3, sig[None] * lam_cov)
    _add_objective(m, r3, eta * (sig[None] * lam_cov))
    lay.families.update({"s": np.array([s]), "z1": z1, "z2": z2,
                         "z3": np.array([z3]), "Y": Y, "w": w3, "u": u3,
                         "R": r3, "v": v3})
    lay.audit_families = ("z1", "z2", "Y")
    xi_next = inst.stage_support(t + 1)
    dual_coeffs = []
    for k in range(K):
        coeffs = _quadratic_value_coeffs(inst, xi_next[k], Y, r3, v3)
        coeffs[s] = 1.0
        for j in range(J):
            coeffs[int(z2[j])] = coeffs.get(int(z2[j]), 0.0) - 2.0 * xi_next[k, j]
        dual_coeffs.append(coeffs)
    _finish_stage(m, inst, lay, dual_coeffs, risk, -1.0)
    zdim = J + 1
    zcols = np.empty((zdim, zdim), dtype=int)
    zcols[:J, :J] = z1
    zcols[:J, J] = z2
    zcols[J, :J] = z2
    zcols[J, J] = z3
    blocks = [PsdBlockRef("Z", zdim, zcols), PsdBlockRef("Y", J, Y.copy())]
    return m, lay, blocks


def build_stage(inst: Instance, ttype: int, t: int, x_prev, xi,
                risk: RiskSpec | None = None, dual_bound: float | None = None):
    """Dispatch on ambiguity type; returns (model, layout, psd_blocks).

    The terminal stage t = T has no continuation: its model is the stage
    block's, with no theta, no audited duals and no PSD blocks, whatever
    the type, risk and dual bound.
    """
    if int(ttype) not in (1, 2, 3):
        raise ValueError(f"unknown ambiguity type {ttype}")
    if t == inst.T:
        block = build_stage_block(inst, t, x_prev, xi)
        return block.model, _block_layout(block, np.zeros(0, dtype=int)), []
    if int(ttype) == 3:
        return build_type3_stage(inst, t, x_prev, xi, risk, dual_bound=dual_bound)
    builder = build_type1_stage if int(ttype) == 1 else build_type2_stage
    m, lay = builder(inst, t, x_prev, xi, risk, dual_bound=dual_bound)
    return m, lay, []


def audit_dual_bounds(layout: VarLayout, x_sol: np.ndarray) -> str | None:
    """The first audited dual family with an entry within
    DUAL_BOUND_AUDIT_REL * M of its bound M, or None."""
    M = layout.dual_bound
    for fam in layout.audit_families:
        if np.any(np.abs(np.asarray(x_sol)[layout.families[fam]])
                  >= M - DUAL_BOUND_AUDIT_REL * M):
            return fam
    return None


def freeze_stage(inst: Instance, ttype: int, t: int, x, q,
                 risk: RiskSpec | None = None, dual_bound: float | None = None):
    """Stage model with the state frozen at x, flows at zero, and the
    continuation proxies pinned to q: its optimum is the dual-side value
    of the inner worst-case problem at x (for Types 1-2; Type 3 still
    needs PSD handling on the returned blocks)."""
    x = np.asarray(x, dtype=float)
    model, lay, blocks = build_stage(inst, ttype, t, x, np.zeros(inst.J),
                                     risk=risk, dual_bound=dual_bound)
    q = np.asarray(q, dtype=float)
    for i, col in enumerate(lay.x):
        model.set_bounds(int(col), x[i], x[i])
    for col in lay.y.ravel():
        model.set_bounds(int(col), 0.0, 0.0)
    for k, col in enumerate(lay.theta):
        model.set_bounds(int(col), q[k], q[k])
    return model, lay, blocks


def solve_with_dual_bound(solve_at, bound: DualBound, on_binding=None, first=None):
    """Solve a compiled model, escalating its big-M box while a dual
    rests on it; the one escalation routine of the kit.

    solve_at(b) builds and solves the model with dual bound b and returns
    a tuple whose first two entries are the solution and its VarLayout;
    first, if given, is solve_at(bound.value)'s result, already at hand.
    Each round audits the optimal solution (audit_dual_bounds).  A dual
    at its bound runs on_binding(sol, layout), if given, which may raise;
    then the solution is still accepted when a probe at 10x the box is
    optimal and leaves the objective unchanged to FLAT_FACE_REL relative:
    the dual sits on a flat optimal face.  Otherwise the bound grows 10x,
    at most MAX_DUAL_ESCALATIONS times over the life of `bound`, which is
    updated in place.  Returns the accepted round's solve_at result.
    """
    out = first if first is not None else solve_at(bound.value)
    while True:
        sol, lay = out[0], out[1]
        if sol.status != OPTIMAL:
            raise RuntimeError(f"dual-bounded solve returned {sol.status}")
        family = audit_dual_bounds(lay, sol.x)
        if family is None:
            return out
        if on_binding is not None:
            on_binding(sol, lay)
        bound.probes += 1
        probe = solve_at(bound.value * 10.0)[0]
        if (probe.status == OPTIMAL and abs(probe.objective - sol.objective)
                <= FLAT_FACE_REL * max(1.0, abs(sol.objective))):
            return out
        if bound.escalations >= MAX_DUAL_ESCALATIONS:
            raise DualAtBound(f"dual family {family} at bound {bound.value:g} after "
                              f"{bound.escalations} escalations")
        bound.value *= 10.0
        bound.escalations += 1
        out = solve_at(bound.value)


def frozen_dual_value(inst: Instance, ttype: int, t: int, x, q,
                      risk: RiskSpec | None = None) -> float:
    """Dual-side worst-case value at frozen x (Types 1-2), from the
    default big-M box escalated by solve_with_dual_bound."""
    if int(ttype) not in (1, 2):
        raise ValueError("frozen dual values without PSD handling need type 1 or 2")

    def solve_at(b: float):
        model, lay, _ = freeze_stage(inst, ttype, t, x, q, risk, b)
        return solve_milp(model), lay

    sol, _ = solve_with_dual_bound(solve_at, DualBound(default_dual_bound(inst)))
    return float(sol.objective)

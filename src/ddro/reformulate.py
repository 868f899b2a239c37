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


def mccormick_binary_product(model: LinearModel, b, y, z, L: float, U: float) -> None:
    """Envelope rows forcing z = b*y at binary b, for y in [L, U]: four
    rows per product, in the order z <= U b, z >= L b, z - y <= L (b - 1)
    and z - y >= U (b - 1), for each entry of the equal-length column
    arrays (or single columns) b, y and z, as one block."""
    if not (math.isfinite(L) and math.isfinite(U)):
        raise UnboundedFactor("McCormick factor bounds must be finite")
    b, y, z = np.broadcast_arrays(*np.atleast_1d(b, y, z))
    n = b.size
    # each product's rows hold 2, 2, 3 and 3 entries, in the column order
    # b < y < z in which the compilers make them
    cols = np.column_stack([b, z, b, z, b, y, z, b, y, z])
    vals = np.array([-U, 1.0, -L, 1.0, -L, -1.0, 1.0, -U, -1.0, 1.0])
    start = np.append((np.arange(n)[:, None] * 10 + [0, 2, 4, 7]).ravel(), 10 * n)
    model.add_rows(cols.ravel(), np.tile(vals, n), np.tile(["<=", ">=", "<=", ">="], n),
                   np.tile([0.0, 0.0, -L, -U], n), start=start)


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


def _finish_stage(m: LinearModel, inst: Instance, lay: VarLayout, dual: DualTable,
                  risk: RiskSpec | None, shift_sign: float) -> None:
    """Common tail of every stage builder: the CVaR columns when risk is
    on and one dual-feasibility row per realization (plus its CVaR row),
    as one block from the compiler's table of the dual terms.  The pooled
    cut rows come after, appended by add_cut_rows.

    shift_sign encodes the printed convention of the risk theorems: the
    moment-window form carries +lam*shift and rows pi_k + shift >= theta_k;
    the matching/cone forms carry -lam*shift and rows pi_k - shift >= theta_k.
    """
    K, n = inst.K, dual.cols.size
    k = np.arange(K)
    theta = lay.theta
    if risk is None:
        # rows dual_k: the dual terms - theta_k
        cols = np.concatenate([dual.cols, theta])
        kinds = ("dual",)
    else:
        pi_cvar = m.add_vars(K, 0.0, np.inf, prefix="pic_")
        shift = m.add_var(-np.inf, np.inf, name="cvar_shift")
        lay.families["pi_cvar"] = pi_cvar
        lay.families["cvar_shift"] = np.array([shift])
        m.set_objective(shift, shift_sign * risk.lam)
        # rows dual_k and cvar_k, in turn: the dual terms
        # - lam/(1-alpha) pic_k - (1-lam) theta_k, then
        # pic_k + shift_sign shift - theta_k
        cols = np.concatenate([dual.cols, theta, pi_cvar, [shift]])
        kinds = ("dual", "cvar")
    vals = np.zeros((K, len(kinds), cols.size))
    keep = np.zeros(vals.shape, dtype=bool)
    vals[:, 0, :n], keep[:, 0, :n] = dual.vals, dual.keep
    keep[k, :, n + k] = True
    if risk is None:
        vals[k, 0, n + k] = -1.0
    else:
        keep[k, :, n + K + k] = keep[:, 1, -1] = True
        vals[k, 0, n + k], vals[k, 0, n + K + k] = -(1.0 - risk.lam), -risk.lam / (1.0 - risk.alpha)
        vals[k, 1, n + k], vals[k, 1, n + K + k], vals[:, 1, -1] = -1.0, 1.0, shift_sign
    order = np.argsort(cols)
    m.add_rows(cols[order], vals.reshape(-1, cols.size)[:, order], ">=", 0.0,
               keep=keep.reshape(-1, cols.size)[:, order],
               names=[f"{kind}_{r}" for r in range(K) for kind in kinds])


def add_cut_rows(m: LinearModel, lay: VarLayout, cuts) -> None:
    """One row theta_k - pi'x >= v per cut (v, pi) in cuts[k], realization
    by realization, pi's zero entries left out, as one block: the last
    rows of a compiled stage model."""
    ks = [k for k, cut_list in enumerate(cuts) for _ in cut_list]
    if not ks:
        return
    rhs = [v for cut_list in cuts for v, _ in cut_list]
    pis = np.array([pi for cut_list in cuts for _, pi in cut_list], dtype=float)
    cols = np.column_stack([np.broadcast_to(lay.x, pis.shape), lay.theta[ks]])
    vals = np.column_stack([-pis, np.ones(len(ks))])
    keep = np.column_stack([pis != 0.0, np.ones(len(ks), dtype=bool)])
    m.add_rows(cols, vals, ">=", rhs, keep=keep)


@dataclass
class DualTable:
    """The terms of the K dual-feasibility rows of a stage model before
    theta: the columns, their coefficients per realization (K, columns),
    and which entries each row holds; a row may hold a coefficient 0.0."""

    cols: np.ndarray
    vals: np.ndarray
    keep: np.ndarray


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
    a2 = m.add_vars(J, 0.0, M, prefix="al2_", obj=-(inst.mu_bar - inst.eps_mu))
    a3 = m.add_vars(J, 0.0, M, prefix="al3_", obj=-s_base * inst.eps_S_lo)
    b2 = m.add_vars(J, 0.0, M, prefix="be2_", obj=inst.mu_bar + inst.eps_mu)
    b3 = m.add_vars(J, 0.0, M, prefix="be3_", obj=s_base * inst.eps_S_hi)
    fams = (
        ("z_a2", a2, -1.0, inst.lambda_mu * inst.mu_bar[:, None]),
        ("z_a3", a3, -1.0, inst.lambda_S * (inst.eps_S_lo * s_base)[:, None]),
        ("z_b2", b2, 1.0, inst.lambda_mu * inst.mu_bar[:, None]),
        ("z_b3", b3, 1.0, inst.lambda_S * (inst.eps_S_hi * s_base)[:, None]),
    )
    # (J, I) per family: one group per j keeps the columns and rows j-major
    maps = _product_vars(m, [(x, factor[j:j + 1]) for _, factor, _, _ in fams
                             for j in range(J)], 0.0, M)
    prods = {}
    for f, (fam, _, sign, weight) in enumerate(fams):
        prods[fam] = np.array([p[:, 0] for p in maps[f * J:(f + 1) * J]])
        _add_objective(m, prods[fam], sign * weight)
    lay.families.update({"alpha1": np.array([a1]), "beta1": np.array([b1]),
                         "alpha2": a2, "alpha3": a3, "beta2": b2, "beta3": b3,
                         **prods})
    lay.audit_families = ("alpha2", "alpha3", "beta2", "beta3")

    # dual rows: -alpha1 + beta1 + sum_j xi_j (beta2_j - alpha2_j)
    # + xi_j^2 (beta3_j - alpha3_j)
    xi = inst.stage_support(t + 1)
    # each square by the C library's pow, as a float's ** takes it; an
    # array's ** multiplies, which differs in the last bit now and then
    sq = np.array([v ** 2 for v in xi.ravel().tolist()]).reshape(xi.shape)
    cols = np.concatenate([[a1, b1], a2, b2, a3, b3])
    vals = np.hstack([np.tile([-1.0, 1.0], (K, 1)), -xi, xi, -sq, sq])
    _finish_stage(m, inst, lay, DualTable(cols, vals, np.ones(vals.shape, dtype=bool)),
                  risk, 1.0)
    return m, lay


def _quadratic_value_table(inst: Instance, xi: np.ndarray, Y: np.ndarray,
                           prod: np.ndarray, tri: np.ndarray) -> DualTable:
    """The terms of (xi_k - mu(x))(xi_k - mu(x))' . Y with the binary
    products substituted, prod[i,j,jp] = x_i Y[j,jp] and tri[i,ip,j,jp] =
    x_i x_ip Y[j,jp], for every realization xi_k (the rows of xi) at once.

    Per pair (j, jp) the terms are, in this order: Y[j,jp] xi_j xi_jp;
    -t1 on Y[j,jp] and on Y[jp,j], t1 = xi_j mu_jp; for each i, -lam[jp,i]
    t1 on prod[i,jp,j] and on prod[i,j,jp]; t2 = mu_j mu_jp on Y[j,jp];
    for each i, (lam[j,i] + lam[jp,i]) t2 on prod[i,j,jp], then
    lam[j,i] lam[jp,ip] t2 on tri[i,ip,j,jp] for each ip.  A column the
    maps repeat sums its terms in that order, from 0.0, and a row holds a
    column where one of its terms is nonzero.
    """
    J, I, K = inst.J, inst.I, xi.shape[0]
    mu, lam = inst.mu_bar, inst.lambda_mu
    t1 = xi[:, :, None] * mu  # (K, j, jp)
    r = lam * t1[..., None]  # (K, j, jp, i): lam[jp, i] t1
    t2 = mu[:, None] * mu  # (j, jp)
    per_i = np.concatenate([((lam[:, None] + lam) * t2[..., None])[..., None],
                            lam[:, None, :, None] * lam[None, :, None, :]
                            * t2[..., None, None]], axis=-1)  # (j, jp, i, 1 + ip)
    vals = np.concatenate([
        (xi[:, :, None] * xi[:, None, :])[..., None], -t1[..., None], -t1[..., None],
        np.repeat(-r, 2, axis=-1), np.broadcast_to(t2[..., None], (K, J, J, 1)),
        np.broadcast_to(per_i.reshape(J, J, -1), (K, J, J, I * (1 + I)))], axis=-1)
    prod_jpj = prod.transpose(2, 1, 0)  # [j, jp, i] = prod[i, jp, j]
    prod_jjp = prod.transpose(1, 2, 0)  # [j, jp, i] = prod[i, j, jp]
    cols = np.concatenate([
        Y[..., None], Y[..., None], Y.T[..., None],
        np.stack([prod_jpj, prod_jjp], axis=-1).reshape(J, J, 2 * I), Y[..., None],
        np.concatenate([prod_jjp[..., None], tri.transpose(2, 3, 0, 1)],
                       axis=-1).reshape(J, J, -1)], axis=-1).ravel()
    vals = vals.reshape(K, -1)
    distinct, slot = np.unique(cols, return_inverse=True)
    summed = np.zeros((distinct.size, K))
    np.add.at(summed, slot, vals.T)
    held = np.zeros((distinct.size, K), dtype=bool)
    np.logical_or.at(held, slot, vals.T != 0.0)
    return DualTable(distinct, summed.T, held.T)


def _pair_vars(m: LinearModel, n: int, lb, ub, prefix) -> np.ndarray:
    """Symmetric (n, n) column map: one column per unordered pair j <= jp,
    made in the order (0, 0), (0, 1), ..., (n-1, n-1)."""
    j, jp = np.triu_indices(n)
    made = m.add_vars(j.size, lb, ub, names=[f"{prefix}{a}_{b}" for a, b in zip(j, jp)])
    cols = np.empty((n, n), dtype=int)
    cols[j, jp] = cols[jp, j] = made
    return cols


def _product_vars(m: LinearModel, groups, lo: float, M: float) -> list[np.ndarray]:
    """Column maps p[i, ...] = x_i * factor[...], one per (x, factor) in
    groups, for binary columns x and factors in [lo, M]: for each x_i, one
    column in [lo, M] per distinct column of factor, named after its
    factors, with its McCormick envelope, so p repeats a column wherever
    factor does.  The columns and their envelopes are one block, group by
    group, x_i by x_i, each over factor's distinct columns in the order
    they first appear."""
    b, f, picks = [], [], []
    for x, factor in groups:
        flat = factor.ravel().tolist()
        distinct = list(dict.fromkeys(flat))
        b += [c for c in x for _ in distinct]
        f += distinct * len(x)
        picks.append((len(x), len(distinct), [distinct.index(c) for c in flat], factor.shape))
    made = m.add_vars(len(b), lo, M, names=[f"{m.names[i]}.{m.names[j]}" for i, j in zip(b, f)])
    mccormick_binary_product(m, b, f, made, lo, M)
    maps, at = [], 0
    for n, d, pick, shape in picks:
        maps.append(made[at:at + n * d].reshape(n, d)[:, pick].reshape((n,) + shape))
        at += n * d
    return maps


def _trilinear_vars(m: LinearModel, x: np.ndarray, prod: np.ndarray, M: float) -> np.ndarray:
    """Column map of x_i * x_ip * factor from prod = x_i * factor.  Its
    diagonal i = ip is prod itself, as x_i^2 = x_i; off it, one column
    x_ip * prod[i] per i < ip, shared by (ip, i), made ip by ip."""
    tri = np.repeat(prod[:, None], len(x), axis=1)
    maps = _product_vars(m, [(x[ip:ip + 1], prod[:ip]) for ip in range(1, len(x))], -M, M)
    for ip, made in enumerate(maps, 1):
        tri[:ip, ip] = tri[ip, :ip] = made[0]
    return tri


def _add_objective(m: LinearModel, cols: np.ndarray, weights) -> None:
    """Add weights to the objective of cols, position by position in
    order (np.add.at), so a repeated column gets their sum."""
    objective = m.objective.copy()
    np.add.at(objective, cols.ravel(), np.broadcast_to(weights, cols.shape).ravel())
    m.set_objective(cols.ravel(), objective[cols.ravel()])


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


def _add_hull_rows(m: LinearModel, rows, names) -> None:
    """Append the row sum(weights * cols) = 0 of each (cols, weights) pair
    in rows, as one block: a repeated column sums its weights, in order
    from 0.0, and a round-off weight is dropped."""
    nv = m.num_vars
    key = np.concatenate([r * nv + cols.ravel() for r, (cols, _) in enumerate(rows)])
    distinct, slot = np.unique(key, return_inverse=True)
    summed = np.zeros(distinct.size)
    np.add.at(summed, slot, np.concatenate([weights.ravel() for _, weights in rows]))
    kept = np.abs(summed) > HULL_RANK_REL
    row, col = np.divmod(distinct[kept], nv)
    m.add_rows(col, summed[kept], "=", 0.0, start=np.searchsorted(row, np.arange(len(rows) + 1)),
               names=names)


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
    w, zz = _product_vars(m, [(x, u), (x, Y)], -M, M)
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
        rows, names = [], []
        for r, d in enumerate(basis[:len(flat)]):
            for name, dual, prods, weights in [("u", u, w, d)] + [
                    (f"Y{c}", Y, zz, np.outer(d, basis[c]) + np.outer(basis[c], d))
                    for c in range(r, J)]:
                rows += [(cols, weights) for cols in (dual, *prods)]
                names += [f"hull_{name}_{r}"] + [f"hull_x{i}{name}_{r}" for i in range(len(prods))]
        _add_hull_rows(m, rows, names)
    # dual rows: s + u'xi_k + the quadratic terms
    xi = inst.stage_support(t + 1)
    quad = _quadratic_value_table(inst, xi, Y, zz, v)
    _finish_stage(m, inst, lay, DualTable(
        np.concatenate([[s], u, quad.cols]),
        np.hstack([np.ones((K, 1)), 0.0 + xi, quad.vals]),
        np.hstack([np.ones((K, 1 + J), dtype=bool), quad.keep])), risk, -1.0)
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
    m.set_bounds(np.concatenate([np.diag(z1), np.diag(Y)]), 0.0, M)  # PSD diagonal
    w3, u3, r3 = _product_vars(m, [(x, z1), (x, z2), (x, Y)], -M, M)
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
    # dual rows: s - 2 z2'xi_k + the quadratic terms
    xi = inst.stage_support(t + 1)
    quad = _quadratic_value_table(inst, xi, Y, r3, v3)
    _finish_stage(m, inst, lay, DualTable(
        np.concatenate([[s], z2, quad.cols]),
        np.hstack([np.ones((K, 1)), 0.0 - 2.0 * xi, quad.vals]),
        np.hstack([np.ones((K, 1 + J), dtype=bool), quad.keep])), risk, -1.0)
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
    model.set_bounds(lay.x, x, x)
    model.set_bounds(lay.y.ravel(), 0.0, 0.0)
    model.set_bounds(lay.theta, q, q)
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

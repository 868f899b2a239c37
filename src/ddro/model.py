"""Multistage facility-location instance model.

An Instance carries everything a solve needs: dimensions, grid
coordinates, costs, per-stage demand supports, the decision-dependency
coefficients of the moment maps, ambiguity radii, and risk parameters.
Instances are immutable after construction (arrays are frozen); the
stage feasible-set builder is a pure function.

Stage indices are 1-based throughout (t = 1..T); stage 1's support is a
singleton.  The per-stage feasible set couples consecutive stages only
through the binary open-facility vector: shipments are capped by demand
and by capacity of open facilities, newly built facilities must fit the
stage budget, and open facilities stay open.  Because openings are
monotone, the capacity row uses the current indicator x_ti scaled by
h_ti.  This departs from the printed history-sum row; the two give the
same stage values for the recipe capacities
(tests/test_model.py::test_capacity_history_equivalence).

The incoming state enters every stage model as a binary copy z, pinned
to the state by its bounds; the same model with z freed is the
Lagrangian relaxation of SDDiP (Zou, Ahmed & Sun 2019).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .lpmilp import BINARY, CONTINUOUS, INTEGER, LinearModel

FORMAT_VERSION = "ddro-instance-v1"
# budget slack of budget_states, relative to max(1, N): looser than
# HiGHS's feasibility tolerances (1e-7 primal, 1e-6 MIP), so every state
# a stage MILP may take is listed
BUDGET_STATE_TOL = 1e-6


@dataclass(frozen=True)
class Instance:
    T: int
    I: int
    J: int
    K: int
    facility_xy: np.ndarray  # (I, 2) grid coordinates
    customer_xy: np.ndarray  # (J, 2)
    c: np.ndarray  # (I, J) unit transport costs
    f: np.ndarray  # (T, I) building costs
    h: np.ndarray  # (T, I) capacities
    N: float  # per-stage building budget
    R: np.ndarray  # (J,) unit revenues
    mu_bar: np.ndarray  # (J,) empirical means
    sigma_bar: np.ndarray  # (J,) empirical std devs
    rho_bar: float  # demand variation coefficient
    Sigma_bar: np.ndarray  # (J, J) empirical covariance, exactly symmetric
    support: tuple  # support[0]: (1, J); support[t]: (K, J) for t >= 1
    lambda_mu: np.ndarray  # (J, I) first-moment impacts
    lambda_S: np.ndarray  # (J, I) second-moment impacts
    lambda_cov: np.ndarray  # (I,) covariance impacts
    eps_mu: np.ndarray  # (J,) mean window half-widths
    eps_S_lo: np.ndarray  # (J,) second-moment lower scales
    eps_S_hi: np.ndarray  # (J,) second-moment upper scales
    gamma: float  # mean-ellipsoid radius
    eta_cov: float  # covariance cone scale
    risk_lambda: np.ndarray  # (T,) expectation/CVaR blend weights
    risk_alpha: np.ndarray  # (T,) CVaR levels
    y_integrality: str  # "integer" | "continuous"

    def __post_init__(self):
        for fld in fields(self):
            val = getattr(self, fld.name)
            if isinstance(val, np.ndarray):
                val.setflags(write=False)
        for arr in self.support:
            arr.setflags(write=False)

    def xi1(self) -> np.ndarray:
        """Deterministic stage-1 realization."""
        return self.support[0][0]

    def stage_support(self, t: int) -> np.ndarray:
        """Realizations of stage t (1-based)."""
        return self.support[t - 1]


def validate_instance(inst: Instance) -> None:
    for name, strict in (("N", False), ("rho_bar", True), ("gamma", False),
                         ("eta_cov", True)):
        val = getattr(inst, name)
        if (isinstance(val, bool) or not isinstance(val, numbers.Real)
                or not math.isfinite(val) or val < 0 or (strict and val == 0)):
            raise ValueError(f"{name} must be a finite number {'>' if strict else '>='} 0, "
                             f"got {val!r}")
    if min(inst.T, inst.I, inst.J, inst.K) < 1:
        raise ValueError("dimensions must be >= 1")
    T, I, J = inst.T, inst.I, inst.J
    shapes = {"facility_xy": (I, 2), "customer_xy": (J, 2), "c": (I, J), "f": (T, I),
              "h": (T, I), "R": (J,), "mu_bar": (J,), "sigma_bar": (J,),
              "Sigma_bar": (J, J), "lambda_mu": (J, I), "lambda_S": (J, I),
              "lambda_cov": (I,), "eps_mu": (J,), "eps_S_lo": (J,), "eps_S_hi": (J,),
              "risk_lambda": (T,), "risk_alpha": (T,)}
    for name, shape in shapes.items():
        val = getattr(inst, name)
        if not np.all(np.isfinite(val)):
            raise ValueError(f"{name} entries must be finite")
        got = np.shape(val)
        if got != shape:
            raise ValueError(f"{name} must have shape {shape}, got {got}")
    if not np.array_equal(inst.Sigma_bar, inst.Sigma_bar.T):
        raise ValueError("Sigma_bar must be symmetric")
    if len(inst.support) != inst.T or inst.support[0].shape != (1, inst.J):
        raise ValueError("support must hold T stages with a singleton stage 1")
    if not all(np.all(np.isfinite(arr)) for arr in inst.support):
        raise ValueError("support entries must be finite")
    for t in range(1, inst.T):
        if inst.support[t].shape != (inst.K, inst.J):
            raise ValueError(f"stage {t + 1} support must be K x J")
        if np.any(inst.support[t] < 0):
            raise ValueError("support entries must be nonnegative")
    for name in ("lambda_mu", "lambda_S", "lambda_cov", "eps_mu"):
        if np.any(getattr(inst, name) < 0):
            raise ValueError(f"{name} entries must be nonnegative")
    if np.any(inst.eps_S_lo < 0) or np.any(inst.eps_S_lo > 1) or np.any(inst.eps_S_hi < 1):
        raise ValueError("need 0 <= eps_S_lo <= 1 <= eps_S_hi")
    if np.any(inst.risk_lambda < 0) or np.any(inst.risk_lambda > 1):
        raise ValueError("risk_lambda entries must lie in [0, 1]")
    if np.any(inst.risk_alpha <= 0) or np.any(inst.risk_alpha >= 1):
        raise ValueError("risk_alpha entries must lie in (0, 1)")
    if inst.y_integrality not in ("integer", "continuous"):
        raise ValueError("y_integrality must be 'integer' or 'continuous'")
    scale = max(1.0, float(np.abs(inst.Sigma_bar).max()))
    if np.linalg.eigvalsh(inst.Sigma_bar)[0] < -1e-8 * scale:
        raise ValueError("Sigma_bar must be positive semidefinite")


def manhattan(a_xy: np.ndarray, b_xy: np.ndarray) -> np.ndarray:
    """Pairwise Manhattan distances, shape (len(a), len(b))."""
    return np.abs(a_xy[:, None, :] - b_xy[None, :, :]).sum(axis=2).astype(float)


def _normalized_impact(dist_ij: np.ndarray, length_scale: float) -> np.ndarray:
    """exp(-dist/scale) per (j, i), normalized so each customer row sums to 1."""
    lam = np.exp(-dist_ij.T / length_scale)  # (J, I)
    return lam / lam.sum(axis=1, keepdims=True)


def _truncated_normal(rng, mu, sd, shape) -> np.ndarray:
    draws = rng.normal(mu, sd, shape)
    for _ in range(1000):
        neg = draws < 0.0
        if not neg.any():
            return draws
        draws = np.where(neg, rng.normal(mu, sd, shape), draws)
    raise RuntimeError("truncated normal sampling did not terminate")


def generate_instance(seed: int, T: int, I: int, J: int, K: int, rho_bar: float,
                      distribution: str = "normal", cost_mode: str = "manhattan4",
                      flat_cost: float = 10.0, budget: float = 100.0,
                      capacity: float = 1000.0,
                      eps_mu: float = 25.0, eps_S_lo: float = 0.1, eps_S_hi: float = 1.9,
                      gamma: float = 10.0, eta_cov: float = 100.0,
                      risk_lambda: float = 0.0, risk_alpha: float = 0.95,
                      y_integrality: str = "integer") -> Instance:
    """Sample an instance from the standard recipe.

    Deterministic in the seed; the generator draws, in order: facility
    coordinates, customer coordinates, empirical means, covariance
    impacts, then per-stage supports.  Normal supports are truncated at
    zero by resampling; log-normal supports use location log(mu) and
    shape rho*log(mu).  The empirical covariance is the sample
    covariance of the pooled stage draws.
    Every build cost f and unit revenue R is 100.
    """
    if min(T, I, J, K) < 1:
        raise ValueError("dimensions must be >= 1")
    if rho_bar <= 0:
        raise ValueError("rho_bar must be positive")
    if distribution not in ("normal", "lognormal"):
        raise ValueError("distribution must be 'normal' or 'lognormal'")
    if cost_mode not in ("manhattan4", "flat"):
        raise ValueError("cost_mode must be 'manhattan4' or 'flat'")
    rng = np.random.default_rng(seed)
    facility_xy = rng.integers(0, 101, size=(I, 2)).astype(float)
    customer_xy = rng.integers(0, 101, size=(J, 2)).astype(float)
    dist_ij = manhattan(facility_xy, customer_xy)  # (I, J)
    if cost_mode == "manhattan4":
        c = dist_ij / 4.0
    else:
        c = np.full((I, J), float(flat_cost))
    mu_bar = rng.uniform(20.0, 40.0, J)
    sigma_bar = mu_bar * rho_bar
    lambda_cov = rng.uniform(0.0, 1.0, I)
    lambda_cov = lambda_cov / lambda_cov.sum()
    lambda_mu = _normalized_impact(dist_ij, 25.0)
    lambda_S = _normalized_impact(dist_ij, 50.0)
    support = [mu_bar.reshape(1, J).copy()]
    for _ in range(T - 1):
        if distribution == "normal":
            support.append(_truncated_normal(rng, mu_bar, sigma_bar, (K, J)))
        else:
            support.append(rng.lognormal(np.log(mu_bar), rho_bar * np.log(mu_bar), (K, J)))
    pooled = np.vstack(support[1:]) if T > 1 else np.empty((0, J))
    if pooled.shape[0] > 1:
        cov = np.atleast_2d(np.cov(pooled, rowvar=False, ddof=1))
        Sigma_bar = (cov + cov.T) / 2.0
    else:
        Sigma_bar = np.diag(sigma_bar**2)
    inst = Instance(
        T=T, I=I, J=J, K=K,
        facility_xy=facility_xy, customer_xy=customer_xy,
        c=c, f=np.full((T, I), 100.0), h=np.full((T, I), float(capacity)),
        N=float(budget), R=np.full(J, 100.0),
        mu_bar=mu_bar, sigma_bar=sigma_bar, rho_bar=float(rho_bar), Sigma_bar=Sigma_bar,
        support=tuple(support),
        lambda_mu=lambda_mu, lambda_S=lambda_S, lambda_cov=lambda_cov,
        eps_mu=np.full(J, float(eps_mu)),
        eps_S_lo=np.full(J, float(eps_S_lo)), eps_S_hi=np.full(J, float(eps_S_hi)),
        gamma=float(gamma), eta_cov=float(eta_cov),
        risk_lambda=np.full(T, float(risk_lambda)), risk_alpha=np.full(T, float(risk_alpha)),
        y_integrality=y_integrality,
    )
    validate_instance(inst)
    return inst


def zero_lambda(inst: Instance) -> Instance:
    """Decision-independent counterpart: all dependency coefficients zeroed."""
    return replace_fields(
        inst,
        lambda_mu=np.zeros_like(inst.lambda_mu),
        lambda_S=np.zeros_like(inst.lambda_S),
        lambda_cov=np.zeros_like(inst.lambda_cov),
    )


def replace_fields(inst: Instance, **updates) -> Instance:
    vals = {fld.name: getattr(inst, fld.name) for fld in fields(Instance)}
    vals.update(updates)
    out = Instance(**{k: (np.array(v) if isinstance(v, np.ndarray) else v)
                      for k, v in vals.items()})
    validate_instance(out)
    return out


def to_json(inst: Instance) -> str:
    doc = {"version": FORMAT_VERSION}
    for fld in fields(Instance):
        val = getattr(inst, fld.name)
        if fld.name == "support":
            val = [arr.tolist() for arr in val]
        doc[fld.name] = val.tolist() if isinstance(val, np.ndarray) else val
    return json.dumps(doc, sort_keys=True, indent=1)


def from_json(text: str) -> Instance:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"an instance must be a JSON object, got {type(doc).__name__}")
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported instance format: {doc.get('version')!r}")
    kwargs = {fld.name: _float_array(fld.name, doc[fld.name]) if fld.type == "np.ndarray"
              else doc[fld.name] for fld in fields(Instance)}
    if not isinstance(kwargs["support"], list):
        raise ValueError("support must be a list of stage arrays")
    kwargs["support"] = tuple(_float_array(f"support stage {t}", a)
                              for t, a in enumerate(kwargs["support"], 1))
    for name in ("T", "I", "J", "K"):
        if isinstance(kwargs[name], bool) or not isinstance(kwargs[name], int):
            raise ValueError(f"{name} must be an integer, got {kwargs[name]!r}")
    inst = Instance(**kwargs)
    validate_instance(inst)
    return inst


def _float_array(name: str, raw) -> np.ndarray:
    """A JSON array of numbers as a float array; null, a number, an
    object, a string, or an array that is ragged or holds anything but
    numbers, in its place is a ValueError naming the field."""
    try:
        arr = np.array(raw) if isinstance(raw, list) else None
    except ValueError:  # ragged
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be an array of numbers")
    return arr.astype(float)


def load_instance(path) -> Instance:
    with open(path) as fh:
        return from_json(fh.read())


def save_instance(inst: Instance, path) -> None:
    with open(path, "w") as fh:
        fh.write(to_json(inst))
        fh.write("\n")


@dataclass
class StageBlock:
    """Compiled stage feasible set: model rows over (x, y, z) plus the layout."""

    model: LinearModel
    x: np.ndarray  # (I,) column ids
    y: np.ndarray  # (I, J) column ids
    z_copy: np.ndarray  # (I,) column ids of the incoming-state copy
    dem: np.ndarray  # (J,) demand-cap row ids


def build_stage_block(inst: Instance, t: int, x_prev, xi) -> StageBlock:
    """Rows of the stage-t feasible set at incoming state x_prev and demand xi.

    The incoming state enters as a binary copy z, as in SDDiP: the budget
    row reads f_t'x - f_t'z <= N and the keep-open rows x_i - z_i >= 0.
    set_stage_data pins z to x_prev by its bounds; x_prev None leaves z
    free in [0, 1], the Lagrangian relaxation of z = x_prev.  The data
    enter only the demand right-hand sides and the bounds and costs of z,
    so a compiled block is re-solved by patching a copy of its model.
    """
    I, J = inst.I, inst.J
    h_t, f_t = inst.h[t - 1], inst.f[t - 1]
    m = LinearModel()
    x = m.add_vars(I, 0.0, 1.0, BINARY, prefix="x_")
    y_kind = INTEGER if inst.y_integrality == "integer" else CONTINUOUS
    y = m.add_vars(I * J, 0.0, np.repeat(h_t, J), y_kind, obj=(inst.c - inst.R).ravel(),
                   names=[f"y_{i}_{j}" for i in range(I) for j in range(J)]).reshape(I, J)
    z = m.add_vars(I, 0.0, 1.0, BINARY, prefix="z_")
    dem = m.add_rows(y.T, 1.0, "<=", 0.0, names=[f"dem_{j}" for j in range(J)])
    # capacity of open facilities: sum_j y_ij - h_ti x_i <= 0
    m.add_rows(np.column_stack([x, y]), np.column_stack([-h_t, np.ones((I, J))]), "<=", 0.0,
               names=[f"cap_{i}" for i in range(I)])
    m.add_row((np.concatenate([x, z]), np.concatenate([f_t, -f_t])), "<=", float(inst.N),
              name="budget")
    m.add_rows(np.column_stack([x, z]), [1.0, -1.0], ">=", 0.0,
               names=[f"keep_{i}" for i in range(I)])
    set_stage_data(m, dem, z, x_prev, xi)
    return StageBlock(model=m, x=x, y=y, z_copy=z, dem=dem)


def budget_states(inst: Instance, t: int, x_prev, limit: int):
    """The binary states x of stage t from x_prev -- x >= x_prev and
    f_t'(x - x_prev) <= N + BUDGET_STATE_TOL * max(1, N) -- as int tuples
    in lexicographic order, or None if there are more than limit.

    The walk is depth-first over the entries x_prev leaves at 0, 0 before
    1, and drops a partial state that no completion keeps within the
    budget.  Every node it keeps leads to a listed state, so it visits
    O(I * limit) nodes before it stops, never 2^I.
    """
    x = [int(round(float(b))) for b in np.asarray(x_prev).ravel()]
    free = [i for i, b in enumerate(x) if b == 0]
    f = inst.f[t - 1]
    cap = inst.N + BUDGET_STATE_TOL * max(1.0, inst.N)
    # the least cost the free entries from position p on can add
    least = np.append(np.cumsum(np.minimum(f[free], 0.0)[::-1])[::-1], 0.0)
    out: list[tuple[int, ...]] = []

    def walk(p: int, spent: float) -> bool:
        """List the states below the partial one; True once past limit."""
        if spent + least[p] > cap:
            return False
        if p == len(free):
            out.append(tuple(x))
            return len(out) > limit
        if walk(p + 1, spent):
            return True
        x[free[p]] = 1
        stop = walk(p + 1, spent + float(f[free[p]]))
        x[free[p]] = 0
        return stop

    return None if walk(0, 0.0) else out


def set_stage_data(m: LinearModel, dem, z, x_prev, xi, pi=None) -> None:
    """Write the stage data into a stage model: the demand caps xi on the
    rows dem, the bounds of the copy columns z -- pinned at x_prev, or
    [0, 1] when x_prev is None -- and their costs -pi (0 without pi)."""
    m.set_rhs(dem, xi)
    if x_prev is None:
        m.set_bounds(z, 0.0, 1.0)
    else:
        m.set_bounds(z, x_prev, x_prev)
    m.set_objective(z, 0.0 if pi is None else -np.asarray(pi, dtype=float))


def revenue_lower_bound(inst: Instance, t: int) -> float:
    """Valid lower bound on Q_{t+1}(., xi^k): negated max revenue of stages t+1..T."""
    total = 0.0
    for tau in range(t + 1, inst.T + 1):
        xs = inst.stage_support(tau)
        total += float(np.max(xs @ inst.R))
    return -total

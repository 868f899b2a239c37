"""Correctness checks for one solve against its reference.

References come from ddro.bench's enumeration oracle and exact
multistage recursion, which take the inner maximum over probability
vectors directly and use neither the stage compilers, the cut pool nor
the PSD routines that a solve goes through.
"""

from __future__ import annotations

from dataclasses import dataclass

REL_TOL = 1e-6  # bound vs reference, relative to max(1, |reference|)
MONOTONE_REL = 1e-9  # float noise allowed between successive lower bounds


@dataclass(frozen=True)
class Reference:
    value: float
    optimal_x1: frozenset = frozenset()  # first-stage decisions within REL_TOL


def _slack(value: float) -> float:
    return REL_TOL * max(1.0, abs(value))


def check(kind: str, report, ref: Reference) -> list[str]:
    """Problems with one solve's report; empty when it is correct.

    kind: "exact" (bounds equal the reference; with two-stage candidates
    also the first-stage decision), "lb" (a lower bound) or "ub" (an
    upper bound).
    """
    lbs = list(report.lb_per_iter)
    if not lbs:
        return ["no iterations"]
    problems = [f"lower bound fell from {a!r} to {b!r} at iteration {i + 2}"
                for i, (a, b) in enumerate(zip(lbs, lbs[1:]))
                if b < a - MONOTONE_REL * max(1.0, abs(a))]
    lb, ub, exact = lbs[-1], report.ub_estimate, ref.value
    if kind == "exact":
        if report.status != "Optimal":
            problems.append(f"status {report.status!r} ({report.termination})")
        if not abs(lb - exact) <= _slack(exact):
            problems.append(f"lb {lb!r} != reference {exact!r}")
        if not abs(ub - exact) <= _slack(exact):
            problems.append(f"ub {ub!r} != reference {exact!r}")
        if ref.optimal_x1 and tuple(report.first_stage_x) not in ref.optimal_x1:
            problems.append(f"first stage {report.first_stage_x} not among "
                            f"the optimal candidates {sorted(ref.optimal_x1)}")
    elif kind == "lb":
        if not lb <= exact + _slack(exact):
            problems.append(f"lb {lb!r} above reference {exact!r}")
    elif kind == "ub":
        if not exact <= ub + _slack(exact):
            problems.append(f"ub {ub!r} below reference {exact!r}")
    else:
        raise ValueError(f"unknown check kind {kind!r}")
    return problems


def enumeration_reference(result) -> Reference:
    """Reference from a two-stage enumeration: its optimum and every
    candidate within REL_TOL of it."""
    best = result.objective
    return Reference(best, frozenset(
        r.x1 for r in result.rows
        if r.status == "ok" and r.value <= best + _slack(best)))

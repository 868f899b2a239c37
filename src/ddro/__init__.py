"""Solver kit for multistage distributionally robust mixed-integer programs
with decision-dependent moment ambiguity sets.

Modules
-------
linalg       dense symmetric eigen/Cholesky kernels
lpmilp       LP/MILP core (bounded variables, one result record, deterministic search)
model        facility-location instance data model and stage feasible sets
ambiguity    decision-dependent moment maps and worst-case oracles
reformulate  stage subproblem compilers (dual reformulations, McCormick)
sddip        forward/backward decomposition engine with Lagrangian cuts
misdp        PSD handling: eigen-cut outer bound, diagonally-dominant inner bound
bench        enumeration oracle, pattern suites, experiment runner
cli          command-line front end
"""

__version__ = "0.1.0"

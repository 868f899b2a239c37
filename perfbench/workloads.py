"""The four workloads: which instances each solves, with which run
configuration, and what each solve is checked against.

Type 1 instances come from model.generate_instance at fixed generation
seeds: from one generation seed to the next, the same recipe costs
anywhere from 0.3 s to 6.7 s per solve (I=9), so a drawn instance would
turn the workload's cost into a lottery.  The --seed argument sets the
support draws of the Type 2 and Type 3 pattern instances, whose cost
barely moves with it, and the engine's forward-pass sampling seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ddro import bench, sddip
from ddro.model import generate_instance, replace_fields
from ddro.sddip import SddipConfig

from checks import Reference, enumeration_reference

WORKLOADS = ("two_stage", "multi_stage", "type3_lower", "type3_upper")

# generate_instance(seed, T, I, J, K, rho) arguments of the Type 1 instances.
TWO_STAGE_TYPE1 = ((1, 2, 6, 2, 4, 0.8), (1, 2, 9, 2, 4, 0.8))
# The ROADMAP recipe: at these windows every stage's ambiguity set is
# nonempty, where the default recipe empties stage 2 at T=3.
MULTI_RECIPE = dict(eps_mu=40.0, eps_S_lo=0.05, eps_S_hi=3.0)
# (seed, T, I, K, risk-averse copy too); J=1, rho=0.3.
MULTI_STAGE = ((1, 3, 3, 6, False), (1, 4, 3, 3, True), (1, 5, 3, 3, False),
               (1, 3, 5, 3, False))
RISK = dict(risk_lambda=0.5, risk_alpha=0.9)
TYPE3_ITERS = 12  # as acceptance criterion 3


@dataclass
class Case:
    label: str
    kind: str  # check kind, see checks.check
    inst: object
    ttype: int
    config: SddipConfig
    reference: object  # zero-argument callable returning a checks.Reference

    def solve(self):
        return sddip.run(self.inst, self.ttype, self.config)


def _enum_case(label, kind, inst, ttype, config) -> Case:
    return Case(label, kind, inst, ttype, config,
                lambda: enumeration_reference(bench.enumerate_two_stage(inst, ttype)))


def _multi_case(label, inst, config, risk) -> Case:
    ref_inst = inst
    if risk:
        ref_inst = replace_fields(inst, risk_lambda=np.full(inst.T, RISK["risk_lambda"]),
                                  risk_alpha=np.full(inst.T, RISK["risk_alpha"]))
    return Case(label, "exact", inst, 1, config,
                lambda: Reference(bench.exact_multistage_value(ref_inst, 1, risk=risk)))


def build(workload: str, seed: int) -> list[Case]:
    """The cases of one round of the workload, in solve order."""
    cfg = SddipConfig(max_iters=30, seed=seed)
    cases: list[Case] = []
    if workload == "two_stage":
        for g, T, I, J, K, rho in TWO_STAGE_TYPE1:
            inst = generate_instance(g, T, I, J, K, rho)
            cases.append(_enum_case(f"t1-I{I}-K{K}-g{g}", "exact", inst, 1, cfg))
        for pat in bench.TYPE2_PATTERNS:
            inst = bench.make_pattern_instance(pat, seed=seed)
            cases.append(_enum_case(f"p{pat.name}", "exact", inst, 2, cfg))
    elif workload == "multi_stage":
        for g, T, I, K, with_risk in MULTI_STAGE:
            inst = generate_instance(g, T, I, 1, K, 0.3, **MULTI_RECIPE)
            label = f"t1-T{T}-I{I}-K{K}-g{g}"
            cases.append(_multi_case(label, inst, cfg, False))
            if with_risk:
                cases.append(_multi_case(label + "-risk", inst,
                                         sddip.replace_config(cfg, **RISK), True))
    elif workload in ("type3_lower", "type3_upper"):
        mode = "lb" if workload == "type3_lower" else "ub"
        t3 = sddip.replace_config(cfg, max_iters=TYPE3_ITERS, bound_mode=mode)
        for pat in bench.TYPE3_PATTERNS:
            inst = bench.make_pattern_instance(pat, seed=seed)
            cases.append(_enum_case(f"p{pat.name}-{mode}", mode, inst, 3, t3))
    else:
        raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")
    return cases

"""Command-line front end.

Subcommands: gen (instance -> JSON), solve (decomposition run -> report
files), enum (two-stage oracle), bench (experiment grid -> artifact
directory), export-lp (debug model dump), verify (bound sandwich check).
Every command is a pure function of its input files, flags, and seed.
Exit codes: 0 success, 1 validation error, 2 solver failure, 3 empty
ambiguity set / unbounded model.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bench, model, sddip
from .ambiguity import EmptyAmbiguity
from .lpmilp import NumericalFailure, write_lp
from .reformulate import DualAtBound, build_stage

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_UNBOUNDED = 3


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ddro", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance JSON file")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--T", type=int, default=2)
    g.add_argument("--I", type=int, default=3)
    g.add_argument("--J", type=int, default=1)
    g.add_argument("--K", type=int, default=10)
    g.add_argument("--rho", type=float, default=0.8)
    g.add_argument("--distribution", choices=("normal", "lognormal"), default="normal")
    g.add_argument("--cost-mode", choices=("manhattan4", "flat"), default="manhattan4")
    g.add_argument("--flat-cost", type=float, default=10.0)
    g.add_argument("--budget", type=float, default=100.0)
    g.add_argument("--eps-mu", type=float, default=25.0)
    g.add_argument("--eps-s-lo", type=float, default=0.1)
    g.add_argument("--eps-s-hi", type=float, default=1.9)
    g.add_argument("--gamma", type=float, default=10.0)
    g.add_argument("--eta", type=float, default=100.0)
    g.add_argument("--y-mode", choices=("integer", "continuous"), default="integer")
    g.add_argument("--out", required=True)

    s = sub.add_parser("solve", help="run the decomposition solver")
    s.add_argument("--instance", required=True)
    s.add_argument("--type", type=int, choices=(1, 2, 3), required=True)
    s.add_argument("--bound", choices=("exact", "lb", "ub"), default=None,
                   help="type-3 bounding route (default: exact for types 1-2, lb for 3)")
    s.add_argument("--config", help="run-config JSON file")
    s.add_argument("--max-iters", type=int)
    s.add_argument("--num-paths", type=int)
    s.add_argument("--tol", type=float)
    s.add_argument("--seed", type=int)
    s.add_argument("--risk", action="store_true", help="use the instance risk blend")
    s.add_argument("--risk-lambda", type=float, dest="risk_lambda",
                   help="constant per-stage blend weight (implies --risk)")
    s.add_argument("--risk-alpha", type=float, dest="risk_alpha",
                   help="constant per-stage CVaR level")
    s.add_argument("--out-prefix", help="write <prefix>.json and <prefix>.csv")

    e = sub.add_parser("enum", help="two-stage enumeration oracle")
    e.add_argument("--instance", required=True)
    e.add_argument("--type", type=int, choices=(1, 2, 3), required=True)
    e.add_argument("--risk", action="store_true")
    e.add_argument("--out", help="write the result as JSON")

    b = sub.add_parser("bench", help="run an experiment grid")
    b.add_argument("--spec", required=True, help="ExperimentSpec JSON file")
    b.add_argument("--out-dir", required=True)

    x = sub.add_parser("export-lp", help="dump a compiled stage model")
    x.add_argument("--instance", required=True)
    x.add_argument("--type", type=int, choices=(1, 2, 3), required=True)
    x.add_argument("--stage", type=int, default=1, help="stage, 1..T")
    x.add_argument("--k", type=int, default=0,
                   help="stage realization index, 0..K-1 (stage 1 has one)")
    x.add_argument("--out", required=True)

    v = sub.add_parser("verify", help="assert lb report <= ub report")
    v.add_argument("--lb-report", required=True)
    v.add_argument("--ub-report", required=True)
    return p


def _cmd_gen(args) -> int:
    inst = model.generate_instance(
        args.seed, args.T, args.I, args.J, args.K, args.rho,
        distribution=args.distribution, cost_mode=args.cost_mode,
        flat_cost=args.flat_cost, budget=args.budget,
        eps_mu=args.eps_mu, eps_S_lo=args.eps_s_lo, eps_S_hi=args.eps_s_hi,
        gamma=args.gamma, eta_cov=args.eta, y_integrality=args.y_mode)
    model.save_instance(inst, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _load_config(args) -> sddip.SddipConfig:
    """The run config: --config, then the flags; a Type 3 run whose route
    neither sets takes the "lb" route."""
    cfg, file_keys = sddip.SddipConfig(), ()
    if args.config:
        with open(args.config) as fh:
            text = fh.read()
        cfg, file_keys = sddip.config_from_json(text), json.loads(text)
    overrides = {}
    for name, val in (("max_iters", args.max_iters), ("num_paths", args.num_paths),
                      ("tol", args.tol), ("seed", args.seed),
                      ("risk_lambda", getattr(args, "risk_lambda", None)),
                      ("risk_alpha", getattr(args, "risk_alpha", None))):
        if val is not None:
            overrides[name] = val
    if args.risk:
        overrides["risk"] = True
    if args.bound is not None:
        overrides["bound_mode"] = args.bound
    elif args.type == 3 and "bound_mode" not in file_keys:
        overrides["bound_mode"] = "lb"
    return sddip.replace_config(cfg, **overrides)


def _cmd_solve(args) -> int:
    inst = model.load_instance(args.instance)
    cfg = _load_config(args)
    report = sddip.run(inst, args.type, cfg)
    if args.out_prefix:
        with open(args.out_prefix + ".json", "w") as fh:
            fh.write(report.to_json(include_timing=False))
            fh.write("\n")
        with open(args.out_prefix + ".csv", "w") as fh:
            fh.write(report.to_csv())
        if report.eigen_cuts_per_stage:
            with open(args.out_prefix + ".eigencuts.csv", "w") as fh:
                fh.write("stage,eigen_cuts\n")
                for t, count in sorted(report.eigen_cuts_per_stage.items()):
                    fh.write(f"{t},{count}\n")
    lb = report.lb_per_iter[-1] if report.lb_per_iter else float("nan")
    print(f"status={report.status} lb={lb:.6f} ub={report.ub_estimate:.6f} "
          f"gap={report.gap:.3e} x1={report.first_stage_x}")
    return EXIT_UNBOUNDED if report.status == "Unbounded" else EXIT_OK


def _cmd_enum(args) -> int:
    inst = model.load_instance(args.instance)
    res = bench.enumerate_two_stage(inst, args.type, risk=args.risk)
    doc = {
        "objective": res.objective,
        "best_x1": None if res.best_x1 is None else list(res.best_x1),
        "status": res.status,
        "candidates": [
            {"x1": list(r.x1), "value": r.value, "status": r.status} for r in res.rows
        ],
    }
    text = json.dumps(doc, sort_keys=True, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_UNBOUNDED if res.status == "unbounded" else EXIT_OK


def _cmd_bench(args) -> int:
    with open(args.spec) as fh:
        spec = bench.spec_from_json(fh.read())
    index = bench.run_experiment(spec, args.out_dir)
    print(json.dumps(index, sort_keys=True))
    return EXIT_OK


def _cmd_export_lp(args) -> int:
    inst = model.load_instance(args.instance)
    if not 1 <= args.stage <= inst.T:
        raise ValueError(f"--stage must lie in 1..{inst.T}, got {args.stage}")
    if not 0 <= args.k < inst.K:
        raise ValueError(f"--k must lie in 0..{inst.K - 1}, got {args.k}")
    k = 0 if args.stage == 1 else args.k
    m, _, _ = build_stage(inst, args.type, args.stage, np.zeros(inst.I),
                          inst.stage_support(args.stage)[k])
    kind = "terminal" if args.stage == inst.T else f"type{args.type}"
    write_lp(m, args.out, name=f"stage{args.stage}_{kind}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _report_bound(path, side: str) -> float:
    """The last lower bound ("lb") or the upper-bound estimate ("ub") of
    a solve report; a report without a finite one is a validation error."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path} is not a solve report")
    if side == "lb" and not isinstance(doc.get("lb_per_iter"), list):
        raise ValueError(f"{path}: lb_per_iter is not a list")
    found = doc["lb_per_iter"][-1:] if side == "lb" else [doc.get("ub_estimate")]
    if (not found or isinstance(found[0], bool) or not isinstance(found[0], (int, float))
            or not np.isfinite(found[0])):
        raise ValueError(f"{path} holds no finite {side}")
    return float(found[0])


def _cmd_verify(args) -> int:
    lb = _report_bound(args.lb_report, "lb")
    ub = _report_bound(args.ub_report, "ub")
    slack = sddip.SANDWICH_REL_SLACK * max(1.0, abs(ub))
    if lb > ub + slack:
        print(f"FAIL: lb={lb} > ub={ub}", file=sys.stderr)
        return EXIT_SOLVER
    print(f"ok: lb={lb} <= ub={ub}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    handlers = {
        "gen": _cmd_gen, "solve": _cmd_solve, "enum": _cmd_enum,
        "bench": _cmd_bench, "export-lp": _cmd_export_lp, "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except EmptyAmbiguity as exc:
        print(f"unbounded: {exc}", file=sys.stderr)
        return EXIT_UNBOUNDED
    except (ValueError, OSError, KeyError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalFailure, DualAtBound, RuntimeError, AssertionError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())

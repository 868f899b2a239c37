"""Digest of every benchmark case's solve report, for byte-identity checks.

    python3 tools/report_digests.py 1 2 > digests.txt

For each seed given and each case of perfbench/workloads.build(w, seed),
over the four workloads, prints one line: workload, seed, case label and
the md5 of SolveReport.to_json() (timing excluded).  Run it on two
commits and diff the outputs to show that a change keeps every report
byte-identical.  Type 3 cases solve under their case's bound_mode, as
the benchmark does.  After the workload lines come those of the
"type3_stretch" cases, which no workload covers: Type 3 patterns 3-1,
3-3 and 3-4 at K = 4 stretched to T = 3 (bench.stretch_to_three_stages),
whose stage 2 is an intermediate PSD stage, on the "lb" and "ub" routes.
Pattern 3-2 is left out: at seeds 2 and 3 its "lb" route raises
sddip.RelaxedStateEmpty after about 0.1 s, because a relaxed stage-2
solve reaches the state (1, 1, 1), whose stage-3 set is empty, so it has
no report to digest.  At seed 1 both of its routes end, in about 0.7 s
("lb") and 0.3 s ("ub") on a 2-core Xeon.  Last come the "type1_cap"
lines, one per seed given: the Type 1 instance
generate_instance(1, 4, 6, 1, 4, 0.3) at the multi_stage recipe's
windows, solved at max_iters = 3, which it needs 9 iterations to close.
Each of its runs ends on that cap, so its report shows what a run that
stops short reports; the seed only labels the report.  It takes about
0.5 s on a 2-core Xeon.

    python3 tools/report_digests.py --drop stage_solves 1 2 3

removes the named top-level report fields before hashing (repeat --drop
for more), to show that a change alters only those fields.

    python3 tools/report_digests.py --values 1 2 > values.jsonl
    python3 tools/report_digests.py --values --against values.jsonl 1 2

The value mode prints, in place of the digest, one JSON line per case
with the report's status, termination, iterations, first_stage_x, lb
(the last lower bound) and ub (ub_estimate), and with its work fields
stage_solves, dual_solves, eigen_cuts_per_stage and counters (the split
and eigen-cut loop counts of SolveReport.counters).  Given the dump of
another commit with --against, it also compares: a case that differs
in a discrete field, has no counterpart, or moves lb or ub by more than
REL_TOL = 1e-6 relative to max(1, |value|) is listed on stderr, and the
exit code is 1.  This shows that a change which moves the last bits of the bounds
keeps every result.  The work fields are not compared: a case whose
work fields moved gets one WORK line on stderr, which leaves the exit
code as it is, so that a change which moves the search shows it next to
its bounds; a work field that is a dict shows only its entries that
moved.  A work field that either dump lacks, as in a dump written before
the field was printed, is skipped.

    python3 tools/report_digests.py --inputs 1 2 3 > inputs.txt

The input mode prints, in place of the report's digest, the md5 of every
HiGHS load the case's solve makes, in call order, and the number of
loads.  Every load is a functools.partial of a _Highs method (passModel,
or addRows on a kept LP) that reaches lpmilp.milp or lpmilp.linprog; the
mode patches both names and hashes each load's method name and
arguments there: an array by its dtype, shape and bytes, a scalar by its
value.  Run it on two commits and diff the outputs to show that a change
hands HiGHS byte-identical models.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402  (perfbench/workloads.py)
from ddro import bench, lpmilp  # noqa: E402
from ddro.model import generate_instance  # noqa: E402
from ddro.sddip import SddipConfig, SolveReport  # noqa: E402

FIELDS = sorted(f.name for f in dataclasses.fields(SolveReport))
DISCRETE = ("status", "termination", "iterations", "first_stage_x")
BOUNDS = ("lb", "ub")
WORK = ("stage_solves", "dual_solves", "eigen_cuts_per_stage",
        "counters")  # printed, not compared
REL_TOL = 1e-6  # largest relative lb or ub difference --against accepts
STRETCH = "type3_stretch"
STRETCH_PATTERNS = ("3-1", "3-3", "3-4")
STRETCH_K = 4  # realizations per stage of a stretch case
CAP = "type1_cap"
CAP_ITERS = 3  # the cap case's iteration cap, below the 9 iterations it needs


def stretch_cases(seed: int):
    """The type3_stretch cases at one seed, as workloads.Case."""
    for pat in bench.TYPE3_PATTERNS:
        if pat.name not in STRETCH_PATTERNS:
            continue
        inst = bench.stretch_to_three_stages(
            bench.make_pattern_instance(pat, seed=seed, K=STRETCH_K))
        for mode in ("lb", "ub"):
            config = SddipConfig(max_iters=workloads.TYPE3_ITERS, seed=seed, bound_mode=mode)
            yield workloads.Case(f"p{pat.name}-{mode}", mode, inst, 3, config, None)


def cap_case(seed: int):
    """The type1_cap case at one seed, as workloads.Case."""
    T, I, K = 4, 6, 4
    inst = generate_instance(1, T, I, 1, K, 0.3, **workloads.MULTI_RECIPE)
    config = SddipConfig(max_iters=CAP_ITERS, seed=seed)
    return workloads.Case(f"t1-T{T}-I{I}-K{K}-g1", "exact", inst, 1, config, None)


def all_cases(seeds):
    """(workload, seed, case) of every case: the workloads' at each seed,
    then the stretch cases at each seed, then the cap case at each seed."""
    for seed in seeds:
        for name in workloads.WORKLOADS:
            for case in workloads.build(name, seed):
                yield name, seed, case
    for seed in seeds:
        for case in stretch_cases(seed):
            yield STRETCH, seed, case
    for seed in seeds:
        yield CAP, seed, cap_case(seed)


def report_text(report: SolveReport, drop=()) -> str:
    """report.to_json() without the top-level fields in drop."""
    text = report.to_json()
    if not drop:
        return text
    doc = json.loads(text)
    for name in drop:
        doc.pop(name, None)
    return json.dumps(doc, sort_keys=True, indent=1)


def report_values(report: SolveReport) -> dict:
    """The fields of a report that the value mode prints: the result
    fields it compares, then the work fields."""
    doc = {name: getattr(report, name) for name in DISCRETE}
    doc["lb"] = report.lb_per_iter[-1] if report.lb_per_iter else float("nan")
    doc["ub"] = report.ub_estimate
    doc.update((name, getattr(report, name)) for name in WORK)
    return doc


def bound_gap(a: float, b: float) -> float:
    """|a - b| relative to max(1, |a|, |b|): 0 when both are equal or
    NaN, inf when only one is finite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(1.0, abs(a), abs(b))


def compare(new: dict, old: dict) -> list[str]:
    """What differs between two value records of one case."""
    out = [f"{name} {old[name]} -> {new[name]}" for name in DISCRETE if new[name] != old[name]]
    for name in BOUNDS:
        gap = bound_gap(new[name], old[name])
        if gap > REL_TOL:
            out.append(f"{name} {old[name]!r} -> {new[name]!r} (rel {gap:.3g})")
    return out


def moved_work(new: dict, old: dict) -> list[str]:
    """The work fields that moved between two value records of one
    case, a dict field by the entries that moved; a field either record
    lacks is skipped."""
    out = []
    for name in WORK:
        if name not in new or name not in old or new[name] == old[name]:
            continue
        was, now = old[name], new[name]
        if isinstance(was, dict) and isinstance(now, dict):
            moved = [k for k in {**was, **now} if was.get(k) != now.get(k)]
            was, now = ({k: d[k] for k in moved if k in d} for d in (was, now))
        out.append(f"{name} {was} -> {now}")
    return out


def key(rec: dict) -> tuple:
    return rec["workload"], rec["seed"], rec["case"]


def check_against(records: list[dict], path: str) -> int:
    """Compare value records with the --values dump at path, over the
    seeds the records cover; list each case that differs or has no
    counterpart on stderr, and return 1 if there is one.  Each case
    whose work moved gets a WORK line on stderr too."""
    with open(path) as fh:
        old = {key(rec): rec for rec in map(json.loads, fh)}
    seeds = {rec["seed"] for rec in records}
    old = {k: rec for k, rec in old.items() if k[1] in seeds}
    failed, largest = 0, dict.fromkeys(BOUNDS, 0.0)
    for rec in records:
        prev = old.pop(key(rec), None)
        if prev is None:
            diffs = ["no counterpart"]
        else:
            diffs = compare(rec, prev)
            for b in BOUNDS:
                largest[b] = max(largest[b], bound_gap(rec[b], prev[b]))
            moved = moved_work(rec, prev)
            if moved:
                print("WORK {} {} {}: ".format(*key(rec)) + "; ".join(moved), file=sys.stderr)
        if diffs:
            failed += 1
            print("DIFF {} {} {}: ".format(*key(rec)) + "; ".join(diffs), file=sys.stderr)
    for k in old:
        failed += 1
        print("DIFF {} {} {}: missing here".format(*k), file=sys.stderr)
    print(f"{failed} case(s) differ; largest relative lb difference "
          f"{largest['lb']:.3g}, ub {largest['ub']:.3g}", file=sys.stderr)
    return 1 if failed else 0


def hash_load(md5, load) -> None:
    """Add one HiGHS load (a functools.partial of a _Highs method) to md5:
    the method's name, then each argument, an array by its dtype, shape
    and bytes and a scalar by its value."""
    md5.update(load.func.__name__.encode())
    for arg in load.args:
        if isinstance(arg, np.ndarray):
            md5.update(f"|{arg.dtype.str}{arg.shape}|".encode())
            md5.update(np.ascontiguousarray(arg).tobytes())
        else:
            md5.update(f"|{arg.item() if isinstance(arg, np.generic) else arg!r}|".encode())


def input_digest(solve) -> tuple[str, int]:
    """(md5 of every HiGHS load solve() makes, in call order, number of
    loads), read where each load reaches lpmilp.milp or lpmilp.linprog."""
    md5, loads = hashlib.md5(), []
    saved = lpmilp.milp, lpmilp.linprog

    def hashed(run):
        def traced(highs, load):
            hash_load(md5, load)
            loads.append(load.func.__name__)
            return run(highs, load)
        return traced

    lpmilp.milp, lpmilp.linprog = (hashed(run) for run in saved)
    try:
        solve()
    finally:
        lpmilp.milp, lpmilp.linprog = saved
    return md5.hexdigest(), len(loads)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seeds", nargs="+", type=int, help="workload seeds")
    ap.add_argument("--drop", action="append", default=[], choices=FIELDS,
                    metavar="FIELD", help="report field left out of the digest; repeatable")
    ap.add_argument("--values", action="store_true",
                    help="print each case's result fields as a JSON line, not a digest")
    ap.add_argument("--inputs", action="store_true",
                    help="print the md5 of each case's HiGHS loads, not of its report")
    ap.add_argument("--against", metavar="FILE",
                    help="--values dump of another commit to compare with; exit 1 on a difference")
    args = ap.parse_args(argv)
    if args.against and not args.values:
        ap.error("--against needs --values")
    if args.values and args.drop:
        ap.error("--drop applies to digests, not --values")
    if args.inputs and (args.values or args.drop):
        ap.error("--inputs takes neither --values nor --drop")
    records = []
    for name, seed, case in all_cases(args.seeds):
        if args.inputs:
            digest, loads = input_digest(case.solve)
            print(f"{name} {seed} {case.label} {digest} {loads}", flush=True)
            continue
        report = case.solve()
        if args.values:
            records.append({"workload": name, "seed": seed, "case": case.label,
                            **report_values(report)})
            print(json.dumps(records[-1]), flush=True)
        else:
            digest = hashlib.md5(report_text(report, args.drop).encode()).hexdigest()
            print(f"{name} {seed} {case.label} {digest}", flush=True)
    return check_against(records, args.against) if args.against else 0


if __name__ == "__main__":
    sys.exit(main())

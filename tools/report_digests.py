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
Pattern 3-2 is left out: its two routes take about 10 s.

    python3 tools/report_digests.py --drop stage_solves 1 2 3

removes the named top-level report fields before hashing (repeat --drop
for more), to show that a change alters only those fields.

    python3 tools/report_digests.py --values 1 2 > values.jsonl
    python3 tools/report_digests.py --values --against values.jsonl 1 2

The value mode prints, in place of the digest, one JSON line per case
with the report's status, termination, iterations, first_stage_x, lb
(the last lower bound) and ub (ub_estimate), and with its stage_solves
and eigen_cuts_per_stage.  Given the dump of another commit with
--against, it also compares: a case that differs in a discrete field,
has no counterpart, or moves lb or ub by more than REL_TOL = 1e-6
relative to max(1, |value|) is listed on stderr, and the exit code is
1.  This shows that a change which moves the last bits of the bounds
keeps every result.  The work fields are printed and not compared, so
that a change which moves cut-loop work shows it next to its bounds.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402  (perfbench/workloads.py)
from ddro import bench  # noqa: E402
from ddro.sddip import SddipConfig, SolveReport  # noqa: E402

FIELDS = sorted(f.name for f in dataclasses.fields(SolveReport))
DISCRETE = ("status", "termination", "iterations", "first_stage_x")
BOUNDS = ("lb", "ub")
WORK = ("stage_solves", "eigen_cuts_per_stage")  # printed, not compared
REL_TOL = 1e-6  # largest relative lb or ub difference --against accepts
STRETCH = "type3_stretch"
STRETCH_PATTERNS = ("3-1", "3-3", "3-4")
STRETCH_K = 4  # realizations per stage of a stretch case


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


def all_cases(seeds):
    """(workload, seed, case) of every case: the workloads' at each seed,
    then the stretch cases at each seed."""
    for seed in seeds:
        for name in workloads.WORKLOADS:
            for case in workloads.build(name, seed):
                yield name, seed, case
    for seed in seeds:
        for case in stretch_cases(seed):
            yield STRETCH, seed, case


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


def key(rec: dict) -> tuple:
    return rec["workload"], rec["seed"], rec["case"]


def check_against(records: list[dict], path: str) -> int:
    """Compare value records with the --values dump at path, over the
    seeds the records cover; list each case that differs or has no
    counterpart on stderr, and return 1 if there is one."""
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
        if diffs:
            failed += 1
            print("DIFF {} {} {}: ".format(*key(rec)) + "; ".join(diffs), file=sys.stderr)
    for k in old:
        failed += 1
        print("DIFF {} {} {}: missing here".format(*k), file=sys.stderr)
    print(f"{failed} case(s) differ; largest relative lb difference "
          f"{largest['lb']:.3g}, ub {largest['ub']:.3g}", file=sys.stderr)
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seeds", nargs="+", type=int, help="workload seeds")
    ap.add_argument("--drop", action="append", default=[], choices=FIELDS,
                    metavar="FIELD", help="report field left out of the digest; repeatable")
    ap.add_argument("--values", action="store_true",
                    help="print each case's result fields as a JSON line, not a digest")
    ap.add_argument("--against", metavar="FILE",
                    help="--values dump of another commit to compare with; exit 1 on a difference")
    args = ap.parse_args(argv)
    if args.against and not args.values:
        ap.error("--against needs --values")
    if args.values and args.drop:
        ap.error("--drop applies to digests, not --values")
    records = []
    for name, seed, case in all_cases(args.seeds):
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

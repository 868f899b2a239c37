"""Digest of every benchmark case's solve report, for byte-identity checks.

    python3 tools/report_digests.py 1 2 > digests.txt

For each seed given and each case of perfbench/workloads.build(w, seed),
over the four workloads, prints one line: workload, seed, case label and
the md5 of SolveReport.to_json() (timing excluded).  Run it on two
commits and diff the outputs to show that a change keeps every report
byte-identical.  Type 3 cases solve under their case's bound_mode, as
the benchmark does.

    python3 tools/report_digests.py --drop stage_solves 1 2 3

removes the named top-level report fields before hashing (repeat --drop
for more), to show that a change alters only those fields.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402  (perfbench/workloads.py)
from ddro.sddip import SolveReport  # noqa: E402

FIELDS = sorted(f.name for f in dataclasses.fields(SolveReport))


def report_text(report: SolveReport, drop=()) -> str:
    """report.to_json() without the top-level fields in drop."""
    text = report.to_json()
    if not drop:
        return text
    doc = json.loads(text)
    for name in drop:
        doc.pop(name, None)
    return json.dumps(doc, sort_keys=True, indent=1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seeds", nargs="+", type=int, help="workload seeds")
    ap.add_argument("--drop", action="append", default=[], choices=FIELDS,
                    metavar="FIELD", help="report field left out of the digest; repeatable")
    args = ap.parse_args(argv)
    for seed in args.seeds:
        for name in workloads.WORKLOADS:
            for case in workloads.build(name, seed):
                text = report_text(case.solve(), args.drop)
                digest = hashlib.md5(text.encode()).hexdigest()
                print(f"{name} {seed} {case.label} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

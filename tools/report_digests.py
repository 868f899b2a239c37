"""Digest of every benchmark case's solve report, for byte-identity checks.

    python3 tools/report_digests.py 1 2 > digests.txt

For each seed given and each case of perfbench/workloads.build(w, seed),
over the four workloads, prints one line: workload, seed, case label and
the md5 of SolveReport.to_json() (timing excluded).  Run it on two
commits and diff the outputs to show that a change keeps every report
byte-identical.  Type 3 cases solve under their case's bound_mode, as
the benchmark does.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402  (perfbench/workloads.py)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seeds", nargs="+", type=int, help="workload seeds")
    args = ap.parse_args(argv)
    for seed in args.seeds:
        for name in workloads.WORKLOADS:
            for case in workloads.build(name, seed):
                digest = hashlib.md5(case.solve().to_json().encode()).hexdigest()
                print(f"{name} {seed} {case.label} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Closed-loop solve-time benchmark for ddro.

    python3 perfbench/run.py --workload two_stage --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One single-threaded process per workload solves the workload's cases one
after another, each a fresh sddip.run on a pre-generated instance with
no warm-up, in whole rounds, for about --seconds seconds.  Every solve is
checked against a reference computed before the timed rounds.  The last
line of stdout is one JSON object: with --trace 0 the end-to-end metrics
(solve_s, setup_s, peak_rss_mb), with --trace 1 the per-layer metrics of
perfbench/spans.py.  See perfbench/README.md.

Times are reported in seconds at a fixed reference CPU speed, which the
host's drifting speed does not move; see perfbench/speed.py.
"""

from speed import SpeedClock, probe_loop

# Set-up is timed from here: the clock's first probe.
CLOCK = SpeedClock()
if __name__ == "__main__":
    CLOCK.start()
SETUP_MARK = CLOCK.mark()

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

from checks import check
from spans import Tracer, layer_metrics

# One thread: numpy's BLAS would otherwise start worker threads of its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 2  # extra processes that only set up, for a median set-up time
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up seconds and exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def run_round(cases, refs, clock, tracer=None):
    """Solve every case once, with a speed mark before the first solve
    and after each.  Returns (seconds per solve at the reference speed,
    wall seconds per solve, failed, reports); only the solves are timed,
    and a failed solve is logged and counted without stopping the
    round."""
    seconds, wall, failed, reports = [], [], 0, []
    before = clock.mark()
    for case in cases:
        try:
            rep = tracer.root("solve", case.solve) if tracer else case.solve()
        except Exception:
            rep = None
            log(f"FAILED {case.label}: raised\n{traceback.format_exc()}")
        after = clock.mark()
        s, w = clock.between(before, after)
        seconds.append(s)
        wall.append(w)
        before = after
        if rep is None:
            failed += 1
            continue
        reports.append(rep)
        problems = check(case.kind, rep, refs[case.label])
        if problems:
            failed += 1
            log(f"FAILED {case.label}: " + "; ".join(problems))
    return seconds, wall, failed, reports


def measure(cases, refs, seconds: float, clock, tracer=None):
    """Whole rounds, as many as fit `seconds` best: another round starts
    while it is expected to end before `seconds` plus half a round.
    With a tracer each round is an untraced round followed by a traced
    one."""
    plain, traced, layers, round_spans, wall = [], [], [], [], []
    failed = 0
    start = time.perf_counter()
    while True:
        s, w, f, _ = run_round(cases, refs, clock)
        plain.append(s)
        wall.append(w)
        failed += f
        if tracer is not None:
            tracer.reset()
            s, w, f, reports = run_round(cases, refs, clock, tracer)
            # Layer times at the reference speed, by the round's own factor.
            layer = layer_metrics(tracer.spans, tracer.counts, reports)
            factor = sum(s) / sum(w)
            layers.append({k: v * factor if k.endswith("_s") else v
                           for k, v in layer.items()})
            round_spans.append(tracer.spans)
            traced.append(s)
            failed += f
        per_round = (time.perf_counter() - start) / len(plain)
        if time.perf_counter() - start + per_round / 2 > seconds:
            break
    return plain, traced, layers, round_spans, wall, failed


def round_seconds(rounds) -> float:
    """Time of one round: the sum over cases of each case's median solve
    time across rounds.  A burst of host load that slows a few solves in
    one round moves this less than it moves that round's total."""
    return sum(statistics.median(case) for case in zip(*rounds))


def setup_probe_seconds(args) -> list[float]:
    out = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              check=True)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def run_all(args, names) -> int:
    """Each workload in its own process, one after the other."""
    results = {}
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S * 2)
        if done.returncode != 0:
            log(f"workload {name} exited with {done.returncode}")
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ddro", "__init__.py")):
        log(f"no ddro sources under {SRC}; run from a checkout of the repository")
        return 2
    sys.path.insert(0, SRC)
    import ddro
    import workloads

    if not os.path.abspath(ddro.__file__).startswith(SRC + os.sep):
        log(f"imported ddro from {ddro.__file__}, not from {SRC}")
        return 2
    if args.workload == "all":
        CLOCK.stop()
        return run_all(args, workloads.WORKLOADS)
    cases = workloads.build(args.workload, args.seed)
    setup_s, _ = CLOCK.between(SETUP_MARK, CLOCK.mark())
    if args.setup_only:
        print(repr(setup_s))
        return 0

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # HiGHS writes progress lines straight to descriptor 1 during some
    # MILP solves.  Point descriptor 1 at a file for the whole run and
    # keep the real stdout for the result line alone.
    sys.stdout.flush()
    result_fd = os.dup(1)
    sink = os.path.join(OUT, f"solver-stdout-{tag}.txt")
    sink_fd = os.open(sink, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    os.dup2(sink_fd, 1)
    os.close(sink_fd)

    refs = {c.label: c.reference() for c in cases}
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        # A probe inside a solve is a span of its own, so no layer's self
        # time holds it.
        CLOCK.probe = tracer.wrap("probe", probe_loop)
    try:
        plain, traced, layers, round_spans, wall, failed = measure(cases, refs, args.seconds, CLOCK, tracer)
    finally:
        CLOCK.stop()  # no probes while the set-up processes below run
        if tracer is not None:
            tracer.uninstall()
    attempted = (len(plain) + len(traced)) * len(cases)
    solve_s = round_seconds(plain)

    if args.trace:
        metrics = {k: statistics.median(round_[k] for round_ in layers) for k in layers[0]}
        metrics["trace_overhead_s"] = round_seconds(traced) - solve_s
        counts = [{k: v for k, v in layer.items() if not k.endswith("_s")}
                  for layer in layers]
        if any(c != counts[0] for c in counts):
            log("per-layer counts differ between traced rounds")
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [setup_s] + setup_probe_seconds(args)
        metrics = {"solve_s": solve_s, "setup_s": statistics.median(setups),
                   "peak_rss_mb": peak_rss_mb}
    units = {k: ("s" if k.endswith("_s") else "ratio" if k.endswith("_ratio")
                 else "MB" if k.endswith("_mb") else "count") for k in metrics}
    with open(sink) as fh:
        highs_lines = sum(1 for _ in fh)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "cases": [c.label for c in cases],
              "references": {k: r.value for k, r in refs.items()},
              "solve_seconds": plain, "solve_wall_seconds": wall,
              "traced_solve_seconds": traced,
              "setup_samples_s": None if args.trace else setups, "solver_stdout_lines": highs_lines,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if round_spans:
        with open(os.path.join(OUT, f"spans-{tag}.json"), "w") as fh:
            json.dump(round_spans, fh)
    log(f"{args.workload} seed {args.seed}: {len(plain)} untraced rounds of "
        f"{len(cases)} solves, attempted {attempted}, failed {failed}, "
        f"{highs_lines} solver lines kept off stdout; " + ", ".join(
            f"{k} {v:.6g} {units[k]}" for k, v in metrics.items()))
    # correct: every solve that did not fail matched its reference; a
    # wrong answer counts as a failed solve.
    result = {"correct": True, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    with os.fdopen(result_fd, "w") as out:
        out.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        CLOCK.stop()
    sys.exit(code)

"""In-memory spans around ddro's public functions, for the traced run.

Each patched name gets a wrapper that records a span (name, start, end,
parent span).  The modules import the functions by name, so a function
is patched in every module that looks it up, not only where it is
defined.  Spans are recorded only while `enabled` is set; the benchmark
sets it around each solve, so reference computations stay untraced.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

# (module, attribute, span name) for every lookup site a solve goes
# through; bench's sites serve only the untraced references.  The
# model.block and reformulate.build spans cover the builds the engine
# calls itself; builds that build_stage makes internally stay in
# reformulate.build.
SPAN_SITES = (
    ("lpmilp", "milp", "lpmilp.milp_highs"),
    ("lpmilp", "linprog", "lpmilp.lp_highs"),
    ("lpmilp", "solve_milp", "lpmilp.solve_milp"),
    ("sddip", "solve_milp", "lpmilp.solve_milp"),
    ("misdp", "solve_milp", "lpmilp.solve_milp"),
    ("lpmilp", "solve_lp", "lpmilp.solve_lp"),
    ("sddip", "solve_lp", "lpmilp.solve_lp"),
    ("ambiguity", "solve_lp", "lpmilp.solve_lp"),
    ("sddip", "build_stage_block", "model.block"),
    ("sddip", "build_stage", "reformulate.build"),
    ("sddip", "worst_case", "ambiguity.worst_case"),
    ("sddip", "forward_pass", "sddip.forward"),
    ("sddip", "backward_pass", "sddip.backward"),
    ("sddip", "evaluate_policy", "sddip.policy"),
    ("misdp", "add_dd_inner_general", "misdp.dd"),
    ("misdp", "min_eigenpair", "linalg.eig"),
    ("ambiguity", "min_eigenpair", "linalg.eig"),
)
BUILD_SPANS = ("model.block", "reformulate.build")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.enabled = False
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def reset(self) -> None:
        """Start a fresh span list and fresh counters."""
        self.spans, self.counts = [], Counter()

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """fn inside a span; after(args, result) runs once it returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                after(args, out)
            return out

        return traced

    def root(self, name: str, fn, *args):
        """Run fn(*args) as a top-level traced span."""
        self.enabled = True
        rec = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(rec)
            self.enabled = False

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Patch every site in SPAN_SITES plus the counting hooks."""
        from ddro import ambiguity, lpmilp, misdp, sddip

        modules = {"ambiguity": ambiguity, "lpmilp": lpmilp, "misdp": misdp,
                   "sddip": sddip}

        def milp_after(args, sol):
            self.counts["milp_rows"] += args[0].num_rows
            self.counts["milp_nodes"] += sol.node_count

        def build_after(args, out):
            self.counts["builds"] += 1

        hooks = {"lpmilp.solve_milp": milp_after,
                 **{name: build_after for name in BUILD_SPANS}}
        for mod, attr, name in SPAN_SITES:
            owner = modules[mod]
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr),
                                               hooks.get(name)))

        add = sddip.CutPool.add

        def counted_add(pool, *args):
            if self.enabled:
                self.counts["cuts"] += 1
            return add(pool, *args)

        solve_stage = sddip.StageOracle.solve_stage

        def counted_solve_stage(oracle, *args):
            if not self.enabled:
                return solve_stage(oracle, *args)
            counts = self.counts
            before = counts["builds"]
            out = solve_stage(oracle, *args)
            counts["stage_calls"] += 1
            counts["stage_hits"] += int(counts["builds"] == before)
            return out

        self._patch(sddip.CutPool, "add", counted_add)
        self._patch(sddip.StageOracle, "solve_stage", counted_solve_stage)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def self_times(spans) -> tuple[Counter, Counter]:
    """(self seconds, calls) per span name.  A span's self time is its
    duration minus the durations of its direct children, so nested spans
    count each interval once."""
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    seconds: Counter = Counter()
    calls: Counter = Counter()
    for i, (name, _, _, _) in enumerate(spans):
        seconds[name] += dur[i] - child[i]
        calls[name] += 1
    return seconds, calls


def layer_metrics(spans, counts: Counter, reports) -> dict:
    """Per-layer figures of one traced round: spans and counters taken
    while it ran, plus the solve reports it returned."""
    sec, calls = self_times(spans)
    stage_calls = counts["stage_calls"]
    return {
        "lpmilp.milp_calls": calls["lpmilp.solve_milp"],
        "lpmilp.milp_rows": counts["milp_rows"],
        "lpmilp.milp_nodes": counts["milp_nodes"],
        "lpmilp.milp_highs_s": sec["lpmilp.milp_highs"],
        "lpmilp.lp_calls": calls["lpmilp.solve_lp"],
        "lpmilp.lp_highs_s": sec["lpmilp.lp_highs"],
        "lpmilp.marshal_s": sec["lpmilp.solve_milp"] + sec["lpmilp.solve_lp"],
        "model.block_calls": calls["model.block"],
        "model.block_s": sec["model.block"],
        "reformulate.build_calls": calls["reformulate.build"],
        "reformulate.build_s": sec["reformulate.build"],
        "ambiguity.worst_case_calls": calls["ambiguity.worst_case"],
        "ambiguity.worst_case_s": sec["ambiguity.worst_case"],
        "sddip.iterations": sum(r.iterations for r in reports),
        "sddip.cuts": counts["cuts"],
        "sddip.policy_s": sec["sddip.policy"],
        "sddip.stage_calls": stage_calls,
        "sddip.stage_solves": sum(r.stage_solves for r in reports),
        "sddip.stage_hit_ratio": counts["stage_hits"] / stage_calls if stage_calls else 0.0,
        "sddip.dual_solves": sum(r.dual_solves for r in reports),
        "sddip.backward_s": sec["sddip.backward"],
        "sddip.forward_s": sec["sddip.forward"],
        "misdp.eigen_cuts": sum(sum(r.eigen_cuts_per_stage.values()) for r in reports),
        "misdp.dd_calls": calls["misdp.dd"],
        "misdp.dd_s": sec["misdp.dd"],
        "linalg.eig_calls": calls["linalg.eig"],
        "linalg.eig_s": sec["linalg.eig"],
    }

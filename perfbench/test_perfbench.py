"""Self-test of the benchmark's checks, round runner and span arithmetic.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import os
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import run
from checks import Reference, check
from spans import Tracer, self_times
from speed import REFERENCE_PROBE_S, SpeedClock

HERE = os.path.dirname(os.path.abspath(__file__))


def _report(lbs, ub=float("nan"), status="BoundLimit", x1=()):
    return SimpleNamespace(lb_per_iter=list(lbs), ub_estimate=ub, status=status,
                           termination="", first_stage_x=list(x1))


class _Case:
    def __init__(self, label, kind, outcome):
        self.label, self.kind, self.outcome, self.calls = label, kind, outcome, 0

    def solve(self):
        self.calls += 1
        if isinstance(self.outcome, Exception):
            raise self.outcome
        return self.outcome


def test_wrong_answers_fail_their_operation_and_the_round_goes_on():
    exact_lb, exact_ub = -3720.0, -3720.0
    cases = [
        _Case("lb-above", "lb", _report([exact_lb - 5.0, exact_lb * (1 - 1e-3)])),
        _Case("ub-below", "ub", _report([exact_ub - 9.0], ub=exact_ub * (1 + 1e-3))),
        _Case("raises", "lb", RuntimeError("solver broke")),
        _Case("lb-right", "lb", _report([exact_lb - 5.0, exact_lb])),
        _Case("ub-right", "ub", _report([exact_ub - 9.0], ub=exact_ub)),
    ]
    refs = {"lb-above": Reference(exact_lb), "ub-below": Reference(exact_ub),
            "raises": Reference(exact_lb), "lb-right": Reference(exact_lb),
            "ub-right": Reference(exact_ub)}
    seconds, wall, failed, reports = run.run_round(cases, refs, SpeedClock())
    assert failed == 3
    assert [c.calls for c in cases] == [1] * len(cases)
    assert len(reports) == 4
    assert len(seconds) == len(wall) == len(cases) and min(seconds) >= 0.0


def test_clock_scales_each_segment_by_its_own_probes_and_leaves_probes_out():
    clock = SpeedClock()
    r = REFERENCE_PROBE_S
    # Probes at reference speed, then one and two at half speed; the
    # segments between them are 2 s and 6 s of wall time.
    clock.probes = [(0.0, r), (r + 2.0, 2 * r + 2.0), (2 * r + 8.0, 4 * r + 8.0)]
    scaled, wall = clock.between(0, 2)
    assert wall == pytest.approx(8.0)
    assert scaled == pytest.approx(2.0 + 6.0 * 2 / 3)
    assert clock.between(1, 1) == (0.0, 0.0)


def test_clock_probes_from_the_timer_fall_between_marks():
    clock = SpeedClock(every_s=0.02)
    clock.start()
    try:
        first = clock.mark()
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        last = clock.mark()
    finally:
        clock.stop()
    assert last - first > 2
    scaled, wall = clock.between(first, last)
    assert 0.0 < wall < 0.2 and scaled > 0.0


def test_round_time_sums_each_cases_median():
    # three rounds of two cases; a slow second case in round 1 is ignored
    assert run.round_seconds([[1.0, 5.0], [2.0, 1.0], [3.0, 2.0]]) == 2.0 + 2.0


def test_lower_bound_a_thousandth_above_reference_fails():
    ref = Reference(100.0)
    assert check("lb", _report([99.0, 100.0 + 1e-3 * 100.0]), ref)
    assert check("lb", _report([99.0, 100.0 + 0.5e-6 * 100.0]), ref) == []


def test_type3_upper_bound_below_enumeration_fails():
    ref = Reference(-3557.96)
    assert check("ub", _report([-3600.0], ub=-3557.96 - 1e-3 * 3557.96), ref)
    assert check("ub", _report([-3600.0], ub=-3557.96), ref) == []


def test_exact_check_needs_both_bounds_status_and_an_optimal_first_stage():
    ref = Reference(-6500.0, frozenset({(0, 1, 0), (1, 0, 0)}))
    good = _report([-6600.0, -6500.0], ub=-6500.0, status="Optimal", x1=(0, 1, 0))
    assert check("exact", good, ref) == []
    assert check("exact", _report([-6600.0, -6500.0 * (1 - 1e-3)], ub=-6500.0,
                                  status="Optimal", x1=(0, 1, 0)), ref)
    assert check("exact", _report([-6500.0], ub=-6500.0, status="BoundLimit",
                                  x1=(0, 1, 0)), ref)
    assert check("exact", _report([-6500.0], ub=-6500.0, status="Optimal",
                                  x1=(0, 0, 1)), ref)


def test_falling_lower_bound_fails():
    problems = check("lb", _report([-10.0, -9.0, -9.5]), Reference(0.0))
    assert len(problems) == 1 and "iteration 3" in problems[0]


def test_self_time_counts_nested_children_once():
    spans = [["solve", 0.0, 10.0, -1], ["a", 2.0, 5.0, 0], ["b", 3.0, 4.0, 1],
             ["c", 6.0, 7.0, 0], ["b", 8.0, 9.5, 0]]
    seconds, calls = self_times(spans)
    assert seconds == {"solve": 4.5, "a": 2.0, "b": 2.5, "c": 1.0}
    assert calls == {"solve": 1, "a": 1, "b": 2, "c": 1}
    assert sum(seconds.values()) == 10.0


def test_wrapped_calls_record_parents_and_self_times_add_up():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3 and tracer.spans == []  # recording is off
    assert tracer.root("solve", outer, 1) == 3
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [
        ("solve", -1), ("outer", 0), ("inner", 1), ("inner", 1)]
    seconds, _ = self_times(tracer.spans)
    _, start, end, _ = tracer.spans[0]
    assert sum(seconds.values()) == pytest.approx(end - start, rel=1e-9, abs=1e-12)


def test_install_patches_every_lookup_site_and_uninstall_restores_them():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from ddro import lpmilp, misdp, sddip

    originals = (sddip.solve_milp, misdp.solve_milp, lpmilp.milp, sddip.CutPool.add)
    tracer = Tracer()
    tracer.install()
    try:
        patched = (sddip.solve_milp, misdp.solve_milp, lpmilp.milp, sddip.CutPool.add)
        assert all(p is not o for p, o in zip(patched, originals))
    finally:
        tracer.uninstall()
    assert (sddip.solve_milp, misdp.solve_milp, lpmilp.milp,
            sddip.CutPool.add) == originals


def test_exits_nonzero_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "two_stage", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""

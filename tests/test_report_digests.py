"""The value mode of tools/report_digests.py: a dump of another commit
is compared case by case, on the discrete fields exactly and on the
bounds to a relative tolerance."""

import importlib.util
import json
from pathlib import Path

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "report_digests.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("report_digests", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rec(case, **fields):
    rec = {"workload": "w", "seed": 1, "case": case, "status": "Optimal",
           "termination": "gap_closed", "iterations": 2, "first_stage_x": [0, 1],
           "lb": -100.0, "ub": -99.0}
    rec.update(fields)
    return rec


def test_value_dump_comparison(tmp_path, capsys):
    tool = _load_tool()
    dump = tmp_path / "parent.jsonl"
    dump.write_text("".join(json.dumps(r) + "\n"
                            for r in (_rec("a"), _rec("b"), _rec("c", seed=2))))

    def check(*records):
        return tool.check_against(list(records), str(dump))

    # a last-bit move of a bound passes; seed 2 was not run, so c is not missed
    assert check(_rec("a", lb=-100.0 * (1 + 1e-7), ub=-99.0 * (1 - 1e-7)), _rec("b")) == 0
    for changed in (_rec("a", lb=-100.1), _rec("a", ub=float("nan")),
                    _rec("a", iterations=3), _rec("a", first_stage_x=[1, 0]),
                    _rec("a", status="BoundLimit")):
        assert check(changed, _rec("b")) == 1, changed
    assert check(_rec("a")) == 1  # b has no counterpart here
    assert check(_rec("a"), _rec("b"), _rec("d")) == 1  # d has none in the dump
    # the work fields are printed, not compared: moved work or a dump
    # without them passes, and only moved work gets a WORK line
    capsys.readouterr()
    assert check(_rec("a", stage_solves=40, eigen_cuts_per_stage={"1": 7}),
                 _rec("b", stage_solves=12, eigen_cuts_per_stage={})) == 0
    assert "WORK" not in capsys.readouterr().err
    dump.write_text("".join(json.dumps(r) + "\n" for r in (
        _rec("a", stage_solves=54, eigen_cuts_per_stage={}),
        _rec("b", stage_solves=12, eigen_cuts_per_stage={"1": 7}),
        _rec("c", stage_solves=9, eigen_cuts_per_stage={}))))
    assert check(_rec("a", stage_solves=32, eigen_cuts_per_stage={}),
                 _rec("b", stage_solves=12, eigen_cuts_per_stage={"1": 8}),
                 _rec("c", stage_solves=9, eigen_cuts_per_stage={})) == 0
    work = [line for line in capsys.readouterr().err.splitlines() if line.startswith("WORK")]
    assert work == ["WORK w 1 a: stage_solves 54 -> 32",
                    "WORK w 1 b: eigen_cuts_per_stage {'1': 7} -> {'1': 8}"]
    # a moved search next to a changed result: a DIFF line, a WORK line, exit 1
    assert check(_rec("a", stage_solves=30, iterations=3), _rec("b"), _rec("c")) == 1
    err = capsys.readouterr().err
    assert "DIFF w 1 a: iterations 2 -> 3" in err and "WORK w 1 a: stage_solves 54 -> 30" in err


def test_dual_solves_is_a_work_field_that_an_older_dump_may_lack(tmp_path, capsys):
    # dual_solves is printed and not compared: moved, it gets a WORK line
    # and leaves the exit code; a dump written without it compares as before
    tool = _load_tool()
    assert "dual_solves" in tool.WORK
    dump = tmp_path / "parent.jsonl"
    dump.write_text(json.dumps(_rec("a", stage_solves=32, dual_solves=12,
                                    eigen_cuts_per_stage={})) + "\n")
    assert tool.check_against([_rec("a", stage_solves=22, dual_solves=4,
                                    eigen_cuts_per_stage={})], str(dump)) == 0
    work = [line for line in capsys.readouterr().err.splitlines() if line.startswith("WORK")]
    assert work == ["WORK w 1 a: stage_solves 32 -> 22; dual_solves 12 -> 4"]
    dump.write_text(json.dumps(_rec("a", stage_solves=32, eigen_cuts_per_stage={})) + "\n")
    assert tool.check_against([_rec("a", stage_solves=32, dual_solves=4,
                                    eigen_cuts_per_stage={})], str(dump)) == 0
    assert "WORK" not in capsys.readouterr().err
    assert tool.check_against([_rec("a", stage_solves=32, dual_solves=4, iterations=3,
                                    eigen_cuts_per_stage={})], str(dump)) == 1
    assert "DIFF w 1 a: iterations 2 -> 3" in capsys.readouterr().err


def test_value_records_carry_the_work_fields():
    tool = _load_tool()
    report = tool.SolveReport(lb_per_iter=[-5.0], ub_estimate=-4.0, iterations=2,
                              stage_solves=31, dual_solves=12, eigen_cuts_per_stage={"1": 9})
    values = tool.report_values(report)
    assert values["stage_solves"] == 31 and values["eigen_cuts_per_stage"] == {"1": 9}
    assert values["dual_solves"] == 12
    assert (values["lb"], values["ub"], values["iterations"]) == (-5.0, -4.0, 2)
    assert set(values) == set(tool.DISCRETE) | set(tool.BOUNDS) | set(tool.WORK)


def test_counters_is_a_work_field_shown_by_the_entries_that_moved(tmp_path, capsys):
    # the split and eigen-cut loop counters are printed, not compared; a
    # WORK line names only the counters that moved, or that one side lacks
    tool = _load_tool()
    assert "counters" in tool.WORK
    dump = tmp_path / "parent.jsonl"
    dump.write_text(json.dumps(_rec("a", counters={
        "split_solves": 18, "split_blocks": 58, "psd_lp_solves": 120})) + "\n")
    assert tool.check_against([_rec("a", counters={
        "split_solves": 14, "split_blocks": 58, "psd_lp_solves": 120, "dual_probes": 0})],
        str(dump)) == 0
    work = [line for line in capsys.readouterr().err.splitlines() if line.startswith("WORK")]
    assert work == ["WORK w 1 a: counters {'split_solves': 18} -> "
                    "{'split_solves': 14, 'dual_probes': 0}"]


def test_input_digest_hashes_every_highs_load_in_order():
    # the same solve twice hands HiGHS the same arrays; one changed
    # right-hand side changes the digest, and the patched names are restored
    from ddro import lpmilp
    from ddro.lpmilp import INTEGER, LinearModel, WarmLp, solve_milp

    tool = _load_tool()
    saved = lpmilp.milp, lpmilp.linprog

    def model(rhs):
        m = LinearModel()
        x = m.add_var(0.0, 3.0, INTEGER, obj=-1.0)
        y = m.add_var(0.0, 3.0, obj=-1.0)
        m.add_row({x: 1.0, y: 2.0}, "<=", rhs)
        return m

    def solve(rhs):
        def run():
            solve_milp(model(rhs))
            lp = model(rhs)
            warm = WarmLp(lp)
            warm.solve()
            lp.add_row({0: 1.0}, "<=", 2.0)
            warm.solve()  # an addRows load
        return run

    first = tool.input_digest(solve(4.0))
    assert first[1] == 3 and tool.input_digest(solve(4.0)) == first
    assert tool.input_digest(solve(4.5))[0] != first[0]
    assert (lpmilp.milp, lpmilp.linprog) == saved


def test_input_digest_of_a_workload_case_repeats():
    tool = _load_tool()
    case = tool.workloads.build("type3_upper", 1)[0]
    digest, loads = tool.input_digest(case.solve)
    assert loads > 10 and tool.input_digest(case.solve) == (digest, loads)

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


def test_value_dump_comparison(tmp_path):
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

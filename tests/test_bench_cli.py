import csv
import json
import os

import numpy as np
import pytest

from ddro import bench, cli, sddip
from ddro.bench import (ExperimentSpec, enumerate_two_stage,
                        exact_multistage_value, make_pattern_instance,
                        run_experiment, solve_didr, spec_from_json)
from ddro.linalg import SymMatrix
from ddro.model import (from_json, generate_instance, load_instance,
                        replace_fields, save_instance, to_json, zero_lambda)


def permute_facilities(inst, perm):
    perm = np.asarray(perm)
    return replace_fields(
        inst,
        facility_xy=inst.facility_xy[perm],
        c=inst.c[perm, :],
        f=inst.f[:, perm],
        h=inst.h[:, perm],
        lambda_mu=inst.lambda_mu[:, perm],
        lambda_S=inst.lambda_S[:, perm],
        lambda_cov=inst.lambda_cov[perm],
    )


def test_enumeration_matches_exact_recursion():
    inst = generate_instance(44, 2, 3, 1, 5, 0.8)
    res = enumerate_two_stage(inst, 1)
    exact = exact_multistage_value(inst, 1)
    assert abs(res.objective - exact) <= 1e-7 * max(1.0, abs(exact))


def test_oracle_symmetry_under_relabeling():
    inst = generate_instance(15, 2, 3, 1, 6, 0.8)
    perm = [2, 0, 1]
    res = enumerate_two_stage(inst, 1)
    res_p = enumerate_two_stage(permute_facilities(inst, perm), 1)
    assert abs(res.objective - res_p.objective) <= 1e-7 * max(1.0, abs(res.objective))
    values = sorted(round(r.value, 6) for r in res.rows if r.value is not None)
    values_p = sorted(round(r.value, 6) for r in res_p.rows if r.value is not None)
    assert values == values_p


def test_single_candidate_when_budget_zero():
    inst = generate_instance(15, 2, 3, 1, 5, 0.8, budget=0.0)
    res = enumerate_two_stage(inst, 1)
    assert len(res.rows) == 1
    assert res.rows[0].x1 == (0, 0, 0)


def test_didr_reduction_identical_reports():
    inst = generate_instance(9, 2, 3, 1, 6, 0.8)
    zeroed = zero_lambda(inst)
    cfg = sddip.SddipConfig(max_iters=10, seed=5)
    direct = sddip.run(zeroed, 1, cfg)
    dedicated = solve_didr(inst, 1, cfg)
    assert direct.to_json() == dedicated.to_json()


def test_pattern_instances_have_nonempty_sets():
    from ddro.ambiguity import AmbiguityType, is_nonempty
    from ddro.bench import PATTERN_SUITES, budget_feasible_states

    for ttype, suite in PATTERN_SUITES.items():
        for pat in suite:
            inst = make_pattern_instance(pat, seed=1)
            for x in budget_feasible_states(inst, 1, np.zeros(inst.I)):
                assert is_nonempty(inst, AmbiguityType(ttype), x), (pat.name, x)


def test_pattern_solutions_follow_reference():
    for pat in bench.TYPE1_PATTERNS + bench.TYPE2_PATTERNS + bench.TYPE3_PATTERNS:
        inst = make_pattern_instance(pat, seed=1)
        res = enumerate_two_stage(inst, pat.ttype)
        assert res.status == "ok"
        didr = enumerate_two_stage(zero_lambda(inst), pat.ttype)
        assert res.objective <= didr.objective + 1e-6 * max(1.0, abs(didr.objective))
        if pat.name not in ("1-2", "2-3"):  # reference rows with ties
            assert res.best_x1 == pat.reference_x1, pat.name


def test_experiment_spec_validation():
    with pytest.raises(ValueError):
        spec_from_json('{"table": "nope", "seeds": [1]}')
    with pytest.raises(ValueError):
        spec_from_json('{"table": "support_sweep", "seeds": []}')
    with pytest.raises(ValueError):
        spec_from_json('{"table": "support_sweep", "seeds": [1], "K_grid": []}')
    with pytest.raises(ValueError):
        spec_from_json('{"table": "support_sweep", "seeds": [1], "bogus": 2}')
    spec = spec_from_json('{"table": "support_sweep", "seeds": [1, 2]}')
    assert spec.seeds == [1, 2]


def test_run_experiment_support_sweep(tmp_path):
    spec = ExperimentSpec(table="support_sweep", seeds=[1], K_grid=[4, 6],
                          J=1, max_iters=8)
    out = run_experiment(spec, str(tmp_path))
    assert out["cells"] == 2
    cells = (tmp_path / "cells.csv").read_text().splitlines()
    assert len(cells) == 3  # header + 2 cells
    plot = (tmp_path / "plotdata.csv").read_text().splitlines()
    assert plot[0] == "series,x,y"
    assert json.loads((tmp_path / "index.json").read_text())["cells"] == 2


def test_run_experiment_pattern_table(tmp_path):
    spec = ExperimentSpec(table="patterns_type1", seeds=[1], max_iters=10)
    out = run_experiment(spec, str(tmp_path))
    assert out["cells"] == 4
    text = (tmp_path / "cells.csv").read_text()
    assert "reference_obj" in text
    assert "dddr_le_didr" in text
    rows = text.splitlines()
    assert all("True" in r for r in rows[1:] if r)  # dddr <= didr on every row


def test_cli_gen_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["gen", "--seed", "7", "--T", "2", "--I", "3", "--J", "1", "--out"]
    assert cli.main(argv + [str(a)]) == 0
    assert cli.main(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_solve_then_enum_agree(tmp_path):
    inst_path = tmp_path / "inst.json"
    assert cli.main(["gen", "--seed", "7", "--T", "2", "--I", "3", "--J", "1",
                     "--K", "6", "--out", str(inst_path)]) == 0
    prefix = str(tmp_path / "run")
    assert cli.main(["solve", "--instance", str(inst_path), "--type", "1",
                     "--out-prefix", prefix]) == 0
    enum_out = tmp_path / "enum.json"
    assert cli.main(["enum", "--instance", str(inst_path), "--type", "1",
                     "--out", str(enum_out)]) == 0
    rep = json.loads(open(prefix + ".json").read())
    enum_doc = json.loads(enum_out.read_text())
    lb = rep["lb_per_iter"][-1]
    assert abs(lb - enum_doc["objective"]) <= 1e-6 * max(1.0, abs(lb))
    csv_lines = open(prefix + ".csv").read().splitlines()
    assert csv_lines[0] == "iter,lb,ub,gap,seconds"


def test_cli_type3_bounds_and_verify(tmp_path):
    inst = make_pattern_instance(bench.TYPE3_PATTERNS[0], seed=2)
    inst_path = tmp_path / "t3.json"
    save_instance(inst, inst_path)
    lb_prefix = str(tmp_path / "lb")
    ub_prefix = str(tmp_path / "ub")
    assert cli.main(["solve", "--instance", str(inst_path), "--type", "3",
                     "--bound", "lb", "--max-iters", "10",
                     "--out-prefix", lb_prefix]) == 0
    assert cli.main(["solve", "--instance", str(inst_path), "--type", "3",
                     "--bound", "ub", "--max-iters", "10",
                     "--out-prefix", ub_prefix]) == 0
    assert cli.main(["verify", "--lb-report", lb_prefix + ".json",
                     "--ub-report", ub_prefix + ".json"]) == 0


def test_cli_type3_route_from_config_file(tmp_path):
    # the route a --config file sets is kept; lb only when nothing sets one
    p = tmp_path / "t3.json"
    save_instance(make_pattern_instance(bench.TYPE3_PATTERNS[0], seed=1), p)
    cfg_path = tmp_path / "cfg.json"
    for doc, route in (({"bound_mode": "ub"}, "ub"), ({"max_iters": 1}, "lb")):
        cfg_path.write_text(json.dumps(doc))
        prefix = str(tmp_path / route)
        assert cli.main(["solve", "--instance", str(p), "--type", "3", "--max-iters", "1",
                         "--config", str(cfg_path), "--out-prefix", prefix]) == 0, doc
        assert json.loads(open(prefix + ".json").read())["bound_mode"] == route
    cfg_path.write_text(json.dumps({"bound_mode": "exact"}))
    assert cli.main(["solve", "--instance", str(p), "--type", "3",
                     "--config", str(cfg_path)]) == 1


def _empty_ambiguity_instance():
    inst = generate_instance(7, 2, 3, 1, 4, 0.8)
    return replace_fields(
        inst,
        mu_bar=np.array([10.0]), sigma_bar=np.array([1.0]),
        eps_mu=np.array([1.0]), lambda_mu=np.zeros((1, 3)),
        lambda_S=np.zeros((1, 3)), Sigma_bar=SymMatrix(np.array([[1.0]])),
        support=(np.array([[10.0]]),
                 np.array([[20.0], [21.0], [22.0], [23.0]])),
    )


def test_cli_verify_rejects_reports_without_finite_bounds(tmp_path, capsys):
    # an Unbounded run's report has no lb and a NaN ub: verify cannot pass on it
    good, empty = tmp_path / "good.json", tmp_path / "empty.json"
    save_instance(generate_instance(7, 2, 3, 1, 4, 0.8), good)
    save_instance(_empty_ambiguity_instance(), empty)
    ok, unb = str(tmp_path / "ok"), str(tmp_path / "unb")
    assert cli.main(["solve", "--instance", str(good), "--type", "1",
                     "--out-prefix", ok]) == 0
    assert cli.main(["solve", "--instance", str(empty), "--type", "1",
                     "--out-prefix", unb]) == 3
    doc = json.loads(open(unb + ".json").read())
    assert doc["lb_per_iter"] == [] and np.isnan(doc["ub_estimate"])
    capsys.readouterr()
    for lb_rep, ub_rep in ((ok, unb), (unb, ok)):
        assert cli.main(["verify", "--lb-report", lb_rep + ".json",
                         "--ub-report", ub_rep + ".json"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("validation error:") and unb + ".json" in out.err
        assert "Traceback" not in out.err
    (tmp_path / "five.json").write_text("5")
    assert cli.main(["verify", "--lb-report", str(tmp_path / "five.json"),
                     "--ub-report", ok + ".json"]) == 1
    assert "five.json is not a solve report" in capsys.readouterr().err
    # lb_per_iter not a list, or missing; ub_estimate missing
    bad = str(tmp_path / "bad.json")
    not_a_list = "bad.json: lb_per_iter is not a list"
    for doc, lb_rep, ub_rep, why in (({"lb_per_iter": 5}, bad, ok + ".json", not_a_list),
                                     ({"lb_per_iter": None}, bad, ok + ".json", not_a_list),
                                     ({}, bad, ok + ".json", not_a_list),
                                     ({}, ok + ".json", bad, "bad.json holds no finite ub")):
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        assert cli.main(["verify", "--lb-report", lb_rep, "--ub-report", ub_rep]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and why in err
    assert cli.main(["verify", "--lb-report", ok + ".json", "--ub-report", ok + ".json"]) == 0


def test_cli_verify_fails_when_lb_exceeds_ub(tmp_path, capsys):
    (tmp_path / "lb.json").write_text(json.dumps({"lb_per_iter": [0.5, 2.0]}))
    (tmp_path / "ub.json").write_text(json.dumps({"ub_estimate": 1.0}))
    capsys.readouterr()
    assert cli.main(["verify", "--lb-report", str(tmp_path / "lb.json"),
                     "--ub-report", str(tmp_path / "ub.json")]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("FAIL: lb=2.0 > ub=1.0")


def test_cli_verify_rejects_boolean_bounds(tmp_path, capsys):
    # JSON true is a Python bool, an int subclass: it must not pass as 1.0
    reports = {"num": {"lb_per_iter": [0.5], "ub_estimate": 1.0},
               "lb_true": {"lb_per_iter": [True], "ub_estimate": 1.0},
               "ub_true": {"lb_per_iter": [0.5], "ub_estimate": True}}
    for name, doc in reports.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    path = lambda name: str(tmp_path / f"{name}.json")
    assert cli.main(["verify", "--lb-report", path("num"), "--ub-report", path("num")]) == 0
    capsys.readouterr()
    for lb_rep, ub_rep, bad in (("lb_true", "num", "lb"), ("num", "ub_true", "ub")):
        assert cli.main(["verify", "--lb-report", path(lb_rep),
                         "--ub-report", path(ub_rep)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("validation error:")
        assert f"holds no finite {bad}" in out.err


def test_cli_exit_codes(tmp_path):
    # validation error: missing file
    assert cli.main(["solve", "--instance", str(tmp_path / "nope.json"),
                     "--type", "1"]) == 1
    # validation error: bad arguments
    assert cli.main(["solve", "--type", "1"]) == 1
    # validation error: bad run-config values, from --config or a flag
    good = tmp_path / "inst.json"
    save_instance(generate_instance(7, 2, 3, 1, 4, 0.8), good)
    for doc in ({"max_iters": "3"}, {"max_iters": 2.5}, {"max_iters": 0},
                {"tol": -1}, {"bound_mode": "both"}):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli.main(["solve", "--instance", str(good), "--type", "1",
                         "--config", str(cfg_path)]) == 1, doc
    assert cli.main(["solve", "--instance", str(good), "--type", "1",
                     "--max-iters", "0"]) == 1
    # unbounded: empty ambiguity set
    p = tmp_path / "empty.json"
    save_instance(_empty_ambiguity_instance(), p)
    assert cli.main(["solve", "--instance", str(p), "--type", "1"]) == 3
    assert cli.main(["enum", "--instance", str(p), "--type", "1"]) == 3


def test_cli_export_lp(tmp_path):
    inst_path = tmp_path / "inst.json"
    cli.main(["gen", "--seed", "3", "--T", "2", "--I", "2", "--J", "1",
              "--K", "4", "--out", str(inst_path)])
    out = tmp_path / "model.lp"
    assert cli.main(["export-lp", "--instance", str(inst_path), "--type", "1",
                     "--stage", "1", "--out", str(out)]) == 0
    text = out.read_text()
    assert "Minimize" in text and "Binaries" in text and "End" in text
    assert "th_" in text  # continuation proxies carry layout names
    # the incoming state is the copy z, fixed by its bounds at all-closed
    assert "keep_0: 1 x_0 - 1 z_4 >= 0" in text and " 0 <= z_4 <= 0" in text


def test_cli_export_lp_rejects_stage_and_k_out_of_range(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    save_instance(generate_instance(3, 2, 2, 1, 4, 0.8), inst_path)
    out = tmp_path / "model.lp"
    base = ["export-lp", "--instance", str(inst_path), "--type", "1", "--out", str(out)]
    capsys.readouterr()
    for flags in (["--stage", "0"], ["--stage", "3"], ["--stage", "5"],
                  ["--stage", "2", "--k", "4"], ["--stage", "2", "--k", "99"],
                  ["--stage", "2", "--k", "-1"], ["--stage", "1", "--k", "-1"]):
        assert cli.main(base + flags) == 1, flags
        assert "validation error:" in capsys.readouterr().err, flags
    assert not out.exists()
    assert cli.main(base + ["--stage", "2", "--k", "3"]) == 0
    assert "stage2_terminal" in out.read_text()


def test_cli_rejects_malformed_instance_files(tmp_path, capsys):
    # a non-object document, or a dimension that is not an integer, is a
    # validation error, not a traceback or a silently truncated value
    doc = json.loads(to_json(generate_instance(7, 2, 3, 1, 4, 0.8)))
    path = tmp_path / "inst.json"
    capsys.readouterr()
    for text in ("[1, 2]", "5", json.dumps({**doc, "K": 4.9}),
                 json.dumps({**doc, "T": True}), json.dumps({**doc, "I": "3"})):
        path.write_text(text)
        for cmd in (["solve", "--type", "1"], ["export-lp", "--type", "1", "--out",
                                               str(tmp_path / "m.lp")]):
            assert cli.main(cmd + ["--instance", str(path)]) == 1, text
            err = capsys.readouterr().err
            assert err.startswith("validation error:") and "Traceback" not in err, text
    with pytest.raises(ValueError, match="K must be an integer"):
        from_json(json.dumps({**doc, "K": 4.9}))
    assert from_json(json.dumps(doc)).K == 4
    # an array of the wrong shape for (T, I, J) = (2, 3, 1) is rejected by
    # name, not solved (c) or left to an IndexError (f)
    reshaped = {name: doc[name] + doc[name] for name in (
        "facility_xy", "customer_xy", "h", "R", "mu_bar", "sigma_bar", "lambda_mu",
        "lambda_S", "lambda_cov", "eps_mu", "eps_S_lo", "eps_S_hi", "risk_lambda",
        "risk_alpha")}
    reshaped["c"] = [row * 2 for row in doc["c"]]
    reshaped["f"] = doc["f"][:1]
    reshaped["Sigma_bar"] = np.kron(np.eye(2), doc["Sigma_bar"]).tolist()
    for name, val in reshaped.items():
        path.write_text(json.dumps({**doc, name: val}))
        for cmd in (["solve", "--type", "1"], ["export-lp", "--type", "1", "--out",
                                               str(tmp_path / "m.lp")]):
            assert cli.main(cmd + ["--instance", str(path)]) == 1, name
            err = capsys.readouterr().err
            assert err.startswith(f"validation error: {name} must have shape"), (name, err)
    # a scalar that is not a finite real number, is a bool or is out of
    # range is rejected by name, not solved or left to a TypeError
    for name, val in (("N", [100, 100]), ("N", -3.0), ("gamma", -5.0), ("gamma", True),
                      ("rho_bar", "x"), ("eta_cov", -1.0)):
        path.write_text(json.dumps({**doc, name: val}))
        for cmd in (["solve", "--type", "1"], ["export-lp", "--type", "1", "--out",
                                               str(tmp_path / "m.lp")]):
            assert cli.main(cmd + ["--instance", str(path)]) == 1, (name, val)
            err = capsys.readouterr().err
            assert err.startswith(f"validation error: {name} "), (name, val, err)


def test_cli_bench_rejects_malformed_specs(tmp_path, capsys):
    # a non-object spec, a missing key, a grid that is not a list of
    # numbers or has an entry out of range, or a scalar of the wrong type
    # or range exits 1 before any cell runs
    spec_path, out_dir = tmp_path / "spec.json", tmp_path / "arts"
    base = {"table": "support_sweep", "seeds": [1], "J": 1, "max_iters": 2}
    capsys.readouterr()
    for doc in (5, [base], {"seeds": [1]}, {**base, "seeds": 5}, {**base, "seeds": [1.5]},
                {**base, "K_grid": [4, "6"]}, {**base, "K_grid": [True]},
                {**base, "rho_grid": 0.8}, {**base, "N_grid": [None]},
                {**base, "seeds": [1, -1]}, {**base, "K_grid": [0]}, {**base, "K_grid": [4, -2]},
                {**base, "rho_grid": [0.0]}, {**base, "rho_grid": [0.8, -1.0]},
                {**base, "rho_grid": [float("inf")]}, {**base, "rho_grid": [float("nan")]},
                {**base, "N_grid": [-5]}, {**base, "N_grid": [float("inf")]},
                {**base, "table": "variance_sweep", "K_grid": [0], "rho_grid": [0.0, -1.0],
                 "N_grid": [-5]},
                {**base, "T": "2"}, {**base, "T": 0}, {**base, "I": 2.5}, {**base, "J": True},
                {**base, "max_iters": 0}, {**base, "tol": -1}, {**base, "tol": "1e-6"},
                {**base, "tol": True}, {**base, "tol": float("inf")}, {**base, "ttype": True},
                {**base, "ttype": 4}, {**base, "ttype": 2.0},
                {**base, "distribution": "uniform"}, {**base, "distribution": None}):
        spec_path.write_text(json.dumps(doc))
        assert cli.main(["bench", "--spec", str(spec_path), "--out-dir", str(out_dir)]) == 1, doc
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and "Traceback" not in err, doc
        with pytest.raises(ValueError):
            spec_from_json(json.dumps(doc))
    assert not out_dir.exists()


def test_cli_config_checks_seed_risk_and_shape(tmp_path, capsys):
    good = tmp_path / "inst.json"
    save_instance(generate_instance(7, 2, 3, 1, 4, 0.8), good)
    cfg_path = tmp_path / "cfg.json"
    capsys.readouterr()
    for text in ('{"seed": "x"}', '{"seed": true}', '{"seed": -1}', '{"risk": "yes"}',
                 '{"risk_lambda": 2}', '{"risk_alpha": 1.0}', "5", "null", '"abc"'):
        cfg_path.write_text(text)
        assert cli.main(["solve", "--instance", str(good), "--type", "1",
                         "--config", str(cfg_path)]) == 1, text
        err = capsys.readouterr().err
        assert "validation error:" in err and "Traceback" not in err, text


def test_cli_bench_subcommand(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "table": "variance_sweep", "seeds": [1], "rho_grid": [0.8, 1.0],
        "J": 1, "max_iters": 6,
    }))
    out_dir = tmp_path / "arts"
    assert cli.main(["bench", "--spec", str(spec_path),
                     "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "index.json").exists()
    # invalid spec exits 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"table": "support_sweep", "seeds": []}')
    assert cli.main(["bench", "--spec", str(bad), "--out-dir", str(out_dir)]) == 1


def test_tie_breaking_lexicographic_on_pattern_12():
    pat = bench.TYPE1_PATTERNS[1]  # equal mean impacts: three-way tie
    inst = make_pattern_instance(pat, seed=1)
    res = enumerate_two_stage(inst, 1)
    vals = [r.value for r in res.rows if r.x1 != (0, 0, 0)]
    assert max(vals) - min(vals) <= 1e-6 * max(1.0, abs(vals[0]))
    assert res.best_x1 == (0, 0, 1)  # lexicographically smallest tie
    rep = sddip.run(inst, 1, sddip.SddipConfig(max_iters=15))
    assert tuple(rep.first_stage_x) == (0, 0, 1)


def test_variance_sweep_records_unbounded_cells(tmp_path):
    spec = ExperimentSpec(table="variance_sweep", seeds=[1],
                          rho_grid=[0.2, 1.0], I=2, J=8, T=3, K_grid=[10],
                          max_iters=6)
    run_experiment(spec, str(tmp_path))
    text = (tmp_path / "cells.csv").read_text()
    assert "unbounded" in text  # the low-variance cell is empty-set
    assert "ok" in text


def test_cli_risk_flags(tmp_path):
    inst_path = tmp_path / "inst.json"
    cli.main(["gen", "--seed", "7", "--T", "2", "--I", "3", "--J", "1",
              "--K", "6", "--out", str(inst_path)])
    prefix = str(tmp_path / "risky")
    code = cli.main(["solve", "--instance", str(inst_path), "--type", "1",
                     "--risk-lambda", "0.0", "--risk-alpha", "0.9",
                     "--out-prefix", prefix])
    assert code == 0
    neutral_prefix = str(tmp_path / "neutral")
    cli.main(["solve", "--instance", str(inst_path), "--type", "1",
              "--out-prefix", neutral_prefix])
    rep_r = json.loads(open(prefix + ".json").read())
    rep_n = json.loads(open(neutral_prefix + ".json").read())
    assert abs(rep_r["lb_per_iter"][-1] - rep_n["lb_per_iter"][-1]) <= 1e-8 * max(
        1.0, abs(rep_n["lb_per_iter"][-1]))


def test_cli_risk_flag_with_zero_blend_weights_matches_neutral(tmp_path):
    inst = generate_instance(7, 2, 3, 1, 6, 0.8)
    assert not np.any(inst.risk_lambda)
    inst_path = tmp_path / "inst.json"
    save_instance(inst, inst_path)
    lbs = {}
    for name, flags in (("risk", ["--risk"]), ("neutral", [])):
        prefix = str(tmp_path / name)
        assert cli.main(["solve", "--instance", str(inst_path), "--type", "1",
                         "--out-prefix", prefix, *flags]) == 0
        lbs[name] = json.loads(open(prefix + ".json").read())["lb_per_iter"][-1]
    assert abs(lbs["risk"] - lbs["neutral"]) <= 1e-8 * max(1.0, abs(lbs["neutral"]))


def test_run_experiment_type3_pattern_table(tmp_path):
    spec = ExperimentSpec(table="patterns_type3", seeds=[1], max_iters=4)
    assert run_experiment(spec, str(tmp_path))["cells"] == 4
    with open(tmp_path / "cells.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for row in rows:
        assert row["status"] == "ok", row
        dddr, enum = float(row["dddr_obj"]), float(row["enum_obj"])
        assert dddr <= enum + 1e-6 * max(1.0, abs(enum)), row


def test_cli_type3_writes_eigencut_csv(tmp_path):
    inst = make_pattern_instance(bench.TYPE3_PATTERNS[0], seed=1)
    p = tmp_path / "t3.json"
    save_instance(inst, p)
    prefix = str(tmp_path / "lbrun")
    assert cli.main(["solve", "--instance", str(p), "--type", "3",
                     "--bound", "lb", "--max-iters", "6",
                     "--out-prefix", prefix]) == 0
    lines = open(prefix + ".eigencuts.csv").read().splitlines()
    assert lines[0] == "stage,eigen_cuts"
    assert len(lines) >= 2


def test_cli_solve_stdout_holds_only_the_status_line(tmp_path, capfd):
    # HiGHS writes stray lines to descriptor 1 during this run's MILP solves
    p = tmp_path / "t3.json"
    save_instance(make_pattern_instance(bench.TYPE3_PATTERNS[0], seed=1), p)
    capfd.readouterr()
    assert cli.main(["solve", "--instance", str(p), "--type", "3",
                     "--out-prefix", str(tmp_path / "lb")]) == 0
    lines = capfd.readouterr().out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("status=")


def test_readme_config_keys_match_sddip_config():
    import dataclasses
    import re

    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    listed = re.search(r"`--config` \(keys:\s*([a-z_,\s]+);", readme)
    assert listed, "README lists no --config keys"
    keys = [k.strip() for k in listed.group(1).split(",")]
    assert keys == [f.name for f in dataclasses.fields(sddip.SddipConfig)]


def test_stretch_to_three_stages_repeats_stage_two():
    inst = make_pattern_instance(bench.TYPE3_PATTERNS[0], seed=1, K=4)
    out = bench.stretch_to_three_stages(inst)
    assert out.T == 3 and np.array_equal(out.stage_support(3), inst.stage_support(2))
    for name in ("f", "h", "risk_lambda", "risk_alpha"):
        field = getattr(out, name)
        assert np.array_equal(field[:2], getattr(inst, name)) and np.array_equal(field[2], field[1])
    with pytest.raises(ValueError, match="two-stage"):
        bench.stretch_to_three_stages(out)

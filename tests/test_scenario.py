import functools
import os
import re
import time

import numpy as np
import pytest

import vnfscale as vs
from vnfscale import lp, milp, rpadmm, scaling, scenario
from vnfscale.cli import main as cli_main

from corpus import pm
from oracle import forwarding_cost_of, without_rows

SCEN_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def scen(name):
    return os.path.join(SCEN_DIR, name)


def write_scenario(tmp_path, body, name="case.scn"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


MINIMAL = """
[topology]
k = 2

[group]
chain = c
gamma = 1.0
ingress = P1
egress = P4
candidates = P1-P4
offline = 1

[vms]
vm1  P2  100  %s

[pms]
capacity = cpu:100

[event]
baseline = 100
%s

[solver]
method = %s
%s
"""


def minimal(util="0.95", event="preset = overload:1", method="lp", extra=""):
    return MINIMAL % (util, event, method, extra)


# -- parsing ------------------------------------------------------------------

def test_pm_names_are_one_based():
    tree = vs.build_fat_tree(4)
    got = scenario.parse_pm("P5", tree)
    assert got == pm(5) and got is tree.pms[4]
    got = scenario.parse_pm_list("P1 P3-P5", tree)
    assert got == [pm(1), pm(3), pm(4), pm(5)]
    assert all(q is tree.pms[q.index] for q in got)


def test_bad_pm_name_rejected():
    with pytest.raises(scenario.ScenarioParseError):
        scenario.parse_pm("Q5", vs.build_fat_tree(4))


def test_pm_outside_topology_rejected(tmp_path):
    body = minimal().replace("egress = P4", "egress = P9")
    with pytest.raises(scenario.ScenarioParseError):
        scenario.load_scenario(write_scenario(tmp_path, body))


def test_missing_section_rejected(tmp_path):
    body = minimal().replace("[event]", "[evnt]")
    with pytest.raises(scenario.ScenarioParseError):
        scenario.load_scenario(write_scenario(tmp_path, body))


def test_duplicate_section_rejected(tmp_path):
    body = minimal() + "\n[vms]\nvm9 P1 100 0.5\n"
    with pytest.raises(scenario.ScenarioParseError):
        scenario.load_scenario(write_scenario(tmp_path, body))


def test_content_before_sections_rejected(tmp_path):
    with pytest.raises(scenario.ScenarioParseError):
        scenario.load_scenario(write_scenario(tmp_path, "k = 2\n" + minimal()))


def test_pm_outside_the_tree_is_named_as_written(tmp_path):
    body = minimal().replace("egress = P4", "egress = P0100")
    with pytest.raises(scenario.ScenarioParseError,
                       match="egress = P0100: P0100 is not in the topology"):
        scenario.load_scenario(write_scenario(tmp_path, body))
    # a range names its first PM outside the tree
    topo = vs.build_fat_tree(2)
    for text, named in (("P3-P9", "P5"), ("P0-P2", "P0"), ("P02-P07", "P5")):
        with pytest.raises(scenario.ScenarioParseError,
                           match="^%s is not in the topology$" % named):
            scenario.parse_pm_list(text, topo)


@pytest.mark.parametrize("text, error", [
    ("P1 Px P9", "bad PM name 'Px'"),
    ("P9 Px", "P9 is not in the topology"),
    ("P3-P1 P9 Px", "reversed PM range 'P3-P1'"),
    ("P1-Px P3-P1", "bad PM range 'P1-Px'"),
    ("P1 P2-P9 Px", "P5 is not in the topology"),
    ("P2 P1 P2 P1", "P2 named twice"),
    ("P4 P1-P4 P1", "P4 named twice"),
    ("P3 P1-P4", "P3 named twice"),
    ("P1-P2 P02", "P2 named twice"),
])
def test_first_fault_of_a_pm_list_wins(text, error):
    """Names parse in file order, the first bad one raising; then the
    first repeat in list order is the one reported."""
    with pytest.raises(scenario.ScenarioParseError, match="^%s$" % error):
        scenario.parse_pm_list(text, vs.build_fat_tree(2))


def loaded(path):
    """What a scenario file loads to, compared field by field."""
    sc = scenario.load_scenario(path)
    return (sc.topology, sc.group, sc.baseline, sc.traffic, sc.method,
            sc.admm_config, sc.pm_capacity, sc.expect)


def test_crlf_files_parse_alike(tmp_path):
    body = minimal(extra="\n[expect]\nkeep = P2\nstate = overload")
    crlf = tmp_path / "crlf.scn"
    crlf.write_bytes(body.replace("\n", "\r\n").encode())
    assert loaded(str(crlf)) == loaded(write_scenario(tmp_path, body))
    twice = body.replace("preset = overload:1",
                         "preset = overload:1\npreset = underload")
    crlf.write_bytes(twice.replace("\n", "\r\n").encode())
    with pytest.raises(scenario.ScenarioParseError,
                       match="crlf.scn:22 \\[event\\] preset given twice"):
        scenario.load_scenario(str(crlf))


def test_vertical_tab_and_form_feed_do_not_split_a_line(tmp_path):
    """Only a line feed (after universal newlines) ends a line: a page
    break or vertical tab inside a line is part of it, and the lines
    after it keep their numbers."""
    body = "# page\x0cbreak\x0bhere\n" + minimal().replace(
        "chain = c", "chain = c\x0cd").replace(
        "preset = overload:1", "preset = overload:1\npreset = underload")
    with pytest.raises(scenario.ScenarioParseError,
                       match="case.scn:23 \\[event\\] preset given twice"):
        scenario.load_scenario(write_scenario(tmp_path, body))
    body = "# page\x0cbreak\x0bhere\n" + minimal().replace("chain = c",
                                                          "chain = c\x0cd")
    assert scenario.load_scenario(
        write_scenario(tmp_path, body)).group.chain == "c\x0cd"


def test_unknown_preset_rejected(tmp_path):
    body = minimal(event="preset = surge")
    with pytest.raises(scenario.ScenarioParseError):
        scenario.load_scenario(write_scenario(tmp_path, body))


def test_unknown_method_rejected(tmp_path):
    with pytest.raises(scenario.ScenarioParseError):
        scenario.load_scenario(write_scenario(tmp_path, minimal(method="qp")))


def test_presets_scale_the_baseline(tmp_path):
    sc = scenario.load_scenario(write_scenario(tmp_path, minimal()))
    assert sc.traffic == 150.0
    sc = scenario.load_scenario(write_scenario(
        tmp_path, minimal(event="preset = overload:2"), name="b.scn"))
    assert sc.traffic == 200.0
    sc = scenario.load_scenario(write_scenario(
        tmp_path, minimal(event="preset = underload"), name="c.scn"))
    assert sc.traffic == 50.0
    sc = scenario.load_scenario(write_scenario(
        tmp_path, minimal(event="traffic = 123"), name="d.scn"))
    assert sc.traffic == 123.0


# (old, new, message after "<path>: "): one edit of scale_out_v4.scn and
# the whole message load_scenario raises for it
LOAD_ERRORS = {
    "k": ("k = 4", "k = four",
          "[topology] k = four: invalid literal for int() with base 10: 'four'"),
    "costs": ("costs = 10 20 40", "costs = 10 20 x",
              "[topology] costs = 10 20 x: could not convert string to float: 'x'"),
    "omega": ("gamma = 1.25", "gamma = 1.25\nomega = cpu:1 mem:x",
              "[group] omega = cpu:1 mem:x: bad name:value token 'mem:x':"
              " could not convert string to float: 'x'"),
    "thresholds": ("gamma = 1.25",
                   "gamma = 1.25\nthresholds = hot:0.9 warm:0.8 cool:0.3",
                   "[group] thresholds = hot:0.9 warm:0.8 cool:0.3:"
                   " need exactly hot, warm and cold"),
    "vm_id_twice": ("vm2  P5  100  0.95", "vm1  P5  100  0.95",
                    "[vms] row 'vm1 P5 100 0.95': VM id vm1 named twice"),
    "vm_capacity_zero": ("vm2  P5  100  0.95", "vm2  P5  0  0.95",
                         "[vms] row 'vm2 P5 0 0.95': must be above 0"),
    "phi": ("gamma = 1.25", "gamma = 1.25\nphi = 2",
            "[group]: phi must lie in (0, 1]"),
    "beta": ("method = lp", "method = lp\nbeta = 0",
             "[solver]: beta must be positive and finite"),
    "iters": ("method = lp", "method = lp\niters = 0",
              "[solver]: max_iters must be at least 1"),
    "offline": ("offline = 8", "offline = -1",
                "[group] offline = -1: must be at least 0"),
    # an int past the float range is not finite, and no traceback
    "offline_past_float": ("offline = 8", "offline = 1" + "0" * 400,
                           "[group] offline = 1%s: must be a finite number" % ("0" * 400)),
    "preset": ("preset = overload:2", "preset = overload:two",
               "[event] preset = overload:two:"
               " invalid literal for int() with base 10: 'two'"),
    "preset_past_float": ("preset = overload:2", "preset = overload:1" + "0" * 400,
                          "[event] preset = overload:1%s: must be a finite number"
                          % ("0" * 400)),
    "pms_capacity": ("capacity = cpu:100", "capacity = cpu:1e3x",
                     "[pms] capacity = cpu:1e3x: bad name:value token"
                     " 'cpu:1e3x': could not convert string to float: '1e3x'"),
}


@pytest.mark.parametrize("case", list(LOAD_ERRORS))
def test_every_load_error_message_is_pinned(tmp_path, case):
    old, new, message = LOAD_ERRORS[case]
    path = v4_with(tmp_path, old, new)
    with pytest.raises(scenario.ScenarioParseError) as err:
        scenario.load_scenario(path)
    assert str(err.value) == "%s: %s" % (path, message)


def test_cli_overrides_beat_file_values(tmp_path):
    path = write_scenario(tmp_path, minimal(method="rpadmm",
                                            extra="seed = 3\nbeta = 2.0"))
    sc = scenario.load_scenario(path, {"seed": 7, "method": "lp"})
    assert sc.admm_config.seed == 7
    assert sc.admm_config.beta == 2.0
    assert sc.method == "lp"


# -- the shipped corpus self-verifies -------------------------------------------

def test_every_shipped_scenario_passes_its_expectations():
    names = sorted(f for f in os.listdir(SCEN_DIR) if f.endswith(".scn"))
    assert len(names) >= 8
    t0 = time.perf_counter()
    for name in names:
        report = scenario.run_scenario(scen(name))
        assert report.expect_failures == [], (name, report.expect_failures)
    assert time.perf_counter() - t0 < 60.0


def test_normal_scenario_skips_the_solver():
    report = scenario.run_scenario(scen("normal_state.scn"))
    assert report.state == vs.NORMAL
    assert report.decision is None
    assert "no reconfiguration" in report.text()


def test_row1_v4_report_shape():
    report = scenario.run_scenario(scen("scale_out_v4.scn"))
    assert report.state == vs.OVERLOAD
    assert report.v_star == 4
    assert set(report.decision.launched.values()) == {pm(1), pm(4)}
    assert report.cost_delta > 0
    assert report.stats["num_vars"] > 0
    text = report.text()
    assert "launch" in text and "keep" in text


def test_cost_delta_round_trips_through_flow_costs():
    report = scenario.run_scenario(scen("scale_out_v4.scn"))
    assert report.cost_delta == report.forwarding_cost - report.baseline_cost
    # the u(q) price and the arc walk agree to the 1e-12 of
    # test_arc_walk_equals_the_unit_cost_price, not to the last bit
    dec = report.decision
    sc = scenario.load_scenario(scen("scale_out_v4.scn"))
    p = scenario._problem_for(sc, report.state)
    walk = forwarding_cost_of(*scaling.route_flows(p, dec.split), sc.topology)
    assert report.forwarding_cost == pytest.approx(walk, rel=1e-12, abs=0)


@pytest.mark.parametrize("name, lp_solves", [
    ("scale_out_v4.scn", 1),            # the relaxation; the baseline is priced
    ("distributed_scale_out.scn", 0),   # ADMM decides, the baseline is priced
])
def test_baseline_is_solved_once_per_decision(monkeypatch, name, lp_solves):
    solves, baselines = [], []
    real_solve, real_baseline = lp.solve, scaling.baseline_forwarding_cost

    def counting_solve(*args, **kwargs):
        solves.append(args[0].name)
        return real_solve(*args, **kwargs)

    def counting_baseline(p):
        baselines.append(p)
        return real_baseline(p)

    monkeypatch.setattr(lp, "solve", counting_solve)
    monkeypatch.setattr(scaling, "baseline_forwarding_cost", counting_baseline)
    report = scenario.run_scenario(scen(name))
    assert len(baselines) == 1
    assert len(solves) == lp_solves


def test_underload_terminates_and_saves():
    report = scenario.run_scenario(scen("scale_in_two_hosts.scn"))
    assert report.state == vs.UNDERLOAD
    assert set(report.decision.terminated.values()) == {pm(5)}
    assert report.cost_delta < 0


def test_run_writes_csv_artifacts(tmp_path):
    report = scenario.run_scenario(scen("distributed_scale_out.scn"),
                                   out_dir=str(tmp_path))
    for key in ("decisions", "flows", "trace"):
        path = report.trace_paths[key]
        assert os.path.exists(path)
    header = open(report.trace_paths["trace"]).readline()
    assert header.startswith("iteration,objective,violation_")


@pytest.mark.parametrize("name, method", [
    ("scale_out_v4.scn", "lp"),
    ("joint_migration_k2.scn", "milp"),
    ("distributed_scale_out.scn", "rpadmm"),
])
def test_a_run_without_out_dir_routes_no_flows(monkeypatch, name, method):
    want = scenario.run_scenario(scen(name))

    def no_routing(*args):
        raise AssertionError("flows routed with no flows CSV to write")

    monkeypatch.setattr(scaling, "route_flows", no_routing)
    report = scenario.run_scenario(scen(name))
    assert report.method == method
    dec = report.decision
    assert scaling.decision_csv(dec) == scaling.decision_csv(want.decision)
    assert dec.shares == want.decision.shares
    assert dec.forwarding_cost == want.decision.forwarding_cost
    assert dec.warnings == want.decision.warnings


@pytest.mark.parametrize("method, families_read", [
    ("lp", 0), ("milp", 0), ("rpadmm", 1)])
def test_a_decision_formats_no_names(monkeypatch, method, families_read):
    """Names and labels are formatted only when read: a decision reads
    none, and RP-ADMM reads only the row families."""
    formatted, families = [], []
    format_name, row_families = lp._format_name, lp.LpModel.row_families
    monkeypatch.setattr(lp, "_format_name",
                        lambda *a: formatted.append(a) or format_name(*a))
    monkeypatch.setattr(lp.LpModel, "row_families",
                        lambda self: families.append(self) or row_families(self))
    report = scenario.run_scenario(scen("scale_out_v4.scn"), overrides={"method": method})
    assert report.method == method and report.decision.launched
    assert formatted == [] and len(families) == families_read
    if families:
        # the spy sees each name the model formats once it is read
        names = families[0].var_names
        assert names[0] == "alpha[PM0,d1]" and len(formatted) == len(names)


def test_milp_scenario_migrates_and_reports(tmp_path):
    report = scenario.run_scenario(scen("joint_migration_k2.scn"),
                                   out_dir=str(tmp_path))
    assert report.stats["binaries"] > 0
    assert report.decision.placement["vm1"] == pm(1)
    assert report.decision.placement["off1"] == pm(4)
    assert os.path.exists(report.trace_paths["decisions"])


def test_decision_warnings_are_printed():
    dec = scaling.ScalingDecision(warnings=["first", "second"])
    report = scenario.RunReport(
        scenario="s", state=vs.OVERLOAD, v_star=2, method="lp", decision=dec,
        baseline_cost=1.0, forwarding_cost=1.0, cost_delta=0.0,
        stats={"num_vars": 1, "num_rows": 1, "runtime_s": 0.0})
    lines = report.text().splitlines()
    assert [l for l in lines if "WARNING" in l] == ["  WARNING: first",
                                                    "  WARNING: second"]


def test_distributed_run_warns_when_the_shares_fall_short():
    short = scenario.run_scenario(scen("distributed_scale_out.scn"),
                                  overrides={"iters": 1})
    assert short.stats["coverage"] < 1.0 - 1e-6
    assert short.decision.warnings == ["the shares cover 0.875000000 of the traffic"]
    assert "  WARNING: the shares cover 0.875000000 of the traffic\n" in short.text()
    full = scenario.run_scenario(scen("distributed_scale_out.scn"))
    assert full.stats["coverage"] >= 1.0 - 1e-6
    assert full.decision.warnings == [] and "WARNING" not in full.text()


# a k=4 overload whose distributed point at seed 2 sums its shares
# above 1 after the 25 sweeps
OVER_COVERING = """
[topology]
k = 4
pms_per_rack = 2

[group]
chain = c
gamma = 0.919610
ingress = P11
egress = P1
candidates = P1-P16
offline = 2

[vms]
vm1  P6   100  0.957406
vm2  P12  100  0.700557
vm3  P11  100  0.558090

[pms]
capacity = none

[event]
baseline = 183.462344
traffic = 326.008479

[solver]
method = rpadmm
seed = 2
"""


def test_distributed_run_warns_when_the_shares_cover_too_much(tmp_path):
    report = scenario.run_scenario(write_scenario(tmp_path, OVER_COVERING))
    assert report.stats["coverage"] > 1.0 + 1e-6
    assert report.decision.warnings == ["the shares cover 1.001311694 of the traffic"]
    assert "  WARNING: the shares cover 1.001311694 of the traffic\n" in report.text()


def underload_body():
    body = minimal(util="0.10", event="preset = underload", method="rpadmm")
    return body.replace("vm1  P2  100  0.10",
                        "vm1  P2  100  0.10\nvm2  P3  100  0.15")


def test_distributed_solver_decides_underload(tmp_path, capsys):
    path = write_scenario(tmp_path, underload_body())
    report = scenario.run_scenario(path)
    assert report.state == vs.UNDERLOAD
    dec = report.decision
    assert 1 <= len(dec.kept) <= 2
    assert set(dec.kept) | set(dec.terminated) == {"vm1", "vm2"}
    assert report.stats["coverage"] == pytest.approx(1.0, abs=1e-3)
    assert cli_main(["run", path]) == 0
    assert "coverage" in capsys.readouterr().out


# -- size sweep -----------------------------------------------------------------

def test_sweep_counts_match_the_small_tree():
    rows = scenario.sweep_topologies([2], method="lp")
    k, switches, pms, nv, nr, secs = rows[0]
    assert (k, switches, pms) == (2, 5, 4)
    assert nv > 0 and nr > 0 and secs is not None


def test_model_sizes_grow_with_k():
    sizes = [scenario.model_counts("lp", k)[0] for k in (2, 4, 8)]
    assert sizes[0] < sizes[1] < sizes[2]


def test_sweep_reports_a_dead_worker_without_blocking(monkeypatch):
    monkeypatch.setattr(scenario, "_solve_job",
                        lambda method, k, conn: os._exit(1))
    t0 = time.perf_counter()
    rows = scenario.sweep_topologies([2], time_budget=5)
    assert time.perf_counter() - t0 < 5
    assert rows[0][5] is None
    assert rows[0][3:5] == scenario.model_counts("lp", 2)
    assert "N/A" in scenario.sweep_table(rows, "lp")


def test_sweep_marks_budget_exhaustion():
    rows = scenario.sweep_topologies([4], method="milp", time_budget=1e-3)
    assert rows[0][5] is None
    assert rows[0][3] > 0                     # counts still reported
    table = scenario.sweep_table(rows, "milp")
    assert "N/A" in table


# -- central vs distributed -------------------------------------------------------

def test_compare_reaches_the_central_optimum():
    report = scenario.compare_solvers(scen("distributed_scale_out.scn"),
                                      overrides={"seed": 9})
    assert report.optimum == pytest.approx(126000.0)
    assert report.best_gap <= 0.01
    assert report.converged
    assert report.final_gap <= 0.01
    assert len(report.gaps) < 25
    assert "best gap" in report.text()


def test_compare_accepts_underload(tmp_path):
    path = write_scenario(tmp_path, underload_body())
    report = scenario.compare_solvers(path)
    sc = scenario.load_scenario(path)
    p = scenario._problem_for(sc, vs.UNDERLOAD)
    assert report.optimum == lp.solve(vs.build_underload_lp(p)).objective_value
    assert report.best_gap <= 0.01


def test_compare_gap_zero_without_traffic(tmp_path):
    body = minimal(event="traffic = 0")
    report = scenario.compare_solvers(write_scenario(tmp_path, body))
    assert report.optimum == 0.0
    assert report.gaps[0] == 0.0
    assert report.converged


def test_compare_requires_overload(tmp_path):
    body = minimal(util="0.50")
    with pytest.raises(scenario.ScenarioParseError):
        scenario.compare_solvers(write_scenario(tmp_path, body))


# -- CLI exit codes ----------------------------------------------------------------

def test_cli_run_ok(capsys):
    assert cli_main(["run", scen("scale_out_v3.scn")]) == 0
    out = capsys.readouterr().out
    assert "launch" in out


def test_cli_expectation_failure_is_exit_one(tmp_path, capsys):
    body = minimal() + "\n[expect]\nstate = underload\n"
    assert cli_main(["run", write_scenario(tmp_path, body)]) == 1
    assert "EXPECT FAILED" in capsys.readouterr().out


def test_cli_expectation_failure_in_normal_state_is_printed(tmp_path, capsys):
    body = minimal(util="0.50") + "\n[expect]\nstate = overload\n"
    assert cli_main(["run", write_scenario(tmp_path, body)]) == 1
    assert "EXPECT FAILED: state normal" in capsys.readouterr().out


def test_cli_failed_cost_delta_expectation_is_exit_one(tmp_path, capsys):
    with open(scen("scale_in_two_hosts.scn")) as f:
        body = f.read()
    assert "cost_delta = negative" in body
    path = write_scenario(tmp_path, body.replace("cost_delta = negative",
                                                 "cost_delta = positive"))
    assert cli_main(["run", path]) == 1
    assert "EXPECT FAILED: cost delta -31500, expected positive" in \
        capsys.readouterr().out


# two VMs of 100 cpu on PMs of 10 cpu: no share of the traffic fits
TOO_SMALL_PMS = """
[topology]
k = 4
[group]
ingress = P1
egress = P4
candidates = P1-P16
[vms]
vm1 P2 100 0.95
vm2 P5 100 0.50
[pms]
capacity = cpu:10
[event]
baseline = 10
traffic = 100
[solver]
method = lp
"""


def test_a_relaxation_highs_finds_infeasible_is_exit_three(tmp_path, capsys):
    path = write_scenario(tmp_path, TOO_SMALL_PMS)
    assert cli_main(["run", path, "--solver", "lp"]) == 3
    assert capsys.readouterr().err == "infeasible: relaxation is infeasible\n"
    assert cli_main(["compare", path]) == 3
    assert capsys.readouterr().err == \
        "infeasible: central relaxation is infeasible\n"
    # RP-ADMM stops at its sweep limit and decides on the point it reached
    assert cli_main(["run", path, "--solver", "rpadmm"]) == 0
    out = capsys.readouterr().out
    assert "vm1       keep       P2" in out and "vm2       keep       P5" in out
    assert "sweeps: 25, converged: False, coverage 0.8346" in out
    assert "WARNING: the shares cover 0.834571458 of the traffic" in out


def test_a_solver_breakdown_is_exit_four(monkeypatch, capsys):
    # a fresh process HiGHS object allowed no simplex iteration
    monkeypatch.setattr(lp, "_HIGHS", None)
    monkeypatch.setattr(lp, "_OPTIONS", {**lp._OPTIONS, "presolve": "off",
                                         "simplex_iteration_limit": 0})
    assert cli_main(["run", scen("scale_out_v3.scn")]) == 4
    assert capsys.readouterr().err == "no usable solution: solver breakdown" \
        " on overload_lp: Iteration limit reached\n"
    monkeypatch.undo()
    assert cli_main(["run", scen("scale_out_v3.scn")]) == 0
    assert "launch" in capsys.readouterr().out


# each name and each end of a range must be P followed by ASCII digits
BAD_PM_NAMES = ["1-4", "PP1-PP4", "P1-4", "P+1-P4", "1", "PP1", "P+1",
                "P\u0661", "P1-P\u0664"]


@pytest.mark.parametrize("old, new, named", [
    ("[solver]", "[solvers]", "unknown section [solvers]"),
    ("k = 2", "k = four", "[topology] k = four"),
    ("candidates = P1-P4", "candidates = P1-Px", "[group] candidates"),
    ("gamma = 1.0", "gamma = 1.0\nomega = cpu", "[group] omega"),
    ("vm1  P2  100  0.95", "vm1  P2  big  0.5", "[vms] row"),
    ("preset = overload:1", "traffic = -5", "[event] traffic"),
    ("baseline = 100", "baseline = -1", "[event] baseline"),
    ("gamma = 1.0", "gamma = nan", "[group] gamma"),
    ("capacity = cpu:100", "capacity = cpu:nan", "[pms] capacity"),
    ("k = 2", "k = 2\ncosts = nan 20 40", "[topology] costs"),
    ("method = lp", "method = lp\nbeta = nan", "[solver] beta"),
    ("baseline = 100", "baseline = inf", "[event] baseline"),
    ("vm1  P2  100  0.95", "vm1  P2  0  0.95", "[vms] row"),
    ("ingress = P1", "ingress =", "[group] ingress"),
    ("egress = P4", "egress =", "[group] egress"),
    ("preset = overload:1", "preset = overload:-1", "[event] preset"),
    ("offline = 1", "offline = -1", "[group] offline"),
    ("[pms]", "[pm]", "unknown section [pm]"),
    ("method = lp", "method = lp\nbta = 0.1", "[solver] has no key 'bta'"),
    ("method = lp", "method = lp\n\n[expect]\nlauch = P4",
     "[expect] has no key 'lauch'"),
    ("capacity = cpu:100", "capacity = cpu:100\nP1 100", "bare row 'P1 100'"),
    ("method = lp", "method = lp\n\n[expect]\nstate = overlaod",
     "[expect] state"),
    ("method = lp", "method = lp\n\n[expect]\ncost_delta = zero",
     "[expect] cost_delta"),
    ("preset = overload:1", "preset = overloaded", "[event] preset"),
    ("vm1  P2  100  0.95", "vm1  P2  100  -0.95", "[vms] row"),
    ("gamma = 1.0", "gamma = 1.0\nomega = cpu:-1", "[group] omega"),
    ("k = 2", "k = 2\npms_per_rack = 0", "[topology] pms_per_rack = 0"),
    ("k = 2", "k = 2\ncosts = 10 20", "[topology] costs = 10 20"),
    ("k = 2", "k = 2\ncosts = -1 20 40", "[topology] costs = -1 20 40"),
    ("candidates = P1-P4", "candidates = P4-P1", "[group] candidates"),
    ("candidates = P1-P4", "candidates = P1 P1 P4", "[group] candidates"),
    ("candidates = P1-P4", "candidates = P1-P3 P2-P4", "[group] candidates"),
    ("vm1  P2  100  0.95", "vm1  P2  100  0.95\nvm1  P3  100  0.95",
     "[vms] row"),
    ("capacity = cpu:100", "capacity = cpu:100 cpu:0",
     "[pms] capacity = cpu:100 cpu:0: cpu named twice"),
    ("preset = overload:1", "preset = overload:1\npreset = underload",
     "case.scn:22 [event] preset given twice"),
    ("preset = overload:1", "preset = overload:1\ntraffic = 150",
     "case.scn: [event] needs exactly one of preset and traffic"),
    ("preset = overload:1", "", "case.scn: [event] needs exactly one of"),
    ("vm1  P2  100  0.95\n", "", "case.scn: [vms] lists no online VM"),
    ("vm1  P2  100  0.95", "vm1  P2  100",
     "case.scn: [vms] row 'vm1 P2 100' needs: id host capacity util"),
    ("[event]\nbaseline = 100\npreset = overload:1\n", "",
     "case.scn: missing [event] section"),
    ("baseline = 100\n", "", "case.scn: [event] needs baseline"),
    ("gamma = 1.0", "gamma = 1.0\nthresholds = hot:0.9 warm:0.8",
     "case.scn: [group] thresholds = hot:0.9 warm:0.8: need exactly hot,"
     " warm and cold"),
] + [("candidates = P1-P4", "candidates = " + bad, "[group] candidates")
     for bad in BAD_PM_NAMES],
    ids=["section", "k", "candidates", "omega", "vm_row", "traffic",
        "baseline", "gamma_nan", "capacity_nan", "costs_nan", "beta_nan",
        "baseline_inf", "vm_capacity_zero", "ingress_empty", "egress_empty",
        "preset_negative", "offline_negative", "unknown_section",
        "unknown_solver_key", "unknown_expect_key", "bare_row",
        "expect_state", "expect_cost_delta", "preset_unknown",
        "vm_util_negative", "omega_negative", "pms_per_rack_zero",
        "costs_two", "costs_negative", "range_reversed", "pm_twice",
        "ranges_overlap", "vm_id_twice", "pair_twice", "key_twice",
        "traffic_and_preset", "no_traffic", "vms_empty", "vm_row_short",
        "no_event", "no_baseline", "thresholds_two"]
    + ["candidates_%r" % bad for bad in BAD_PM_NAMES])
def test_cli_parse_error_is_exit_two(tmp_path, capsys, old, new, named):
    body = minimal().replace(old, new)
    assert body != minimal()
    assert cli_main(["run", write_scenario(tmp_path, body)]) == 2
    bad = capsys.readouterr()
    assert named in bad.err
    assert cli_main(["run", str(tmp_path / "missing.scn")]) == 2
    for captured in (bad, capsys.readouterr()):
        assert "Traceback" not in captured.out + captured.err
        assert "error: " in captured.err



@pytest.mark.parametrize("verb", ["run", "compare"])
@pytest.mark.parametrize("case", ["directory", "not_utf8", "out_dir_is_a_file"])
def test_cli_unreadable_input_or_unwritable_output_is_exit_two(
        tmp_path, capsys, verb, case):
    path = write_scenario(tmp_path, minimal())
    latin = tmp_path / "latin.scn"
    latin.write_bytes(b"\xff\xfe[topology]\n")
    argv, message = {
        "directory": ([verb, str(tmp_path)], "Is a directory"),
        "not_utf8": ([verb, str(latin)], "latin.scn is not UTF-8 text"),
        "out_dir_is_a_file": ([verb, path, "--out-dir", path], "File exists"),
    }[case]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert captured.err.startswith("error: ") and message in captured.err

def masked(report):
    return re.sub(r"solve \d+\.\d+ s", "solve <t> s", report.text())


def test_a_byte_order_mark_is_dropped(tmp_path, capsys):
    """A file saved with a UTF-8 byte-order mark reads as the same file
    without one."""
    original = scen("scale_out_v3.scn")
    with open(original, "rb") as fh:
        text = fh.read()
    marked = tmp_path / "scale_out_v3.scn"
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    assert masked(scenario.run_scenario(str(marked))) == \
        masked(scenario.run_scenario(original))
    assert cli_main(["run", str(marked)]) == 0
    assert "error" not in capsys.readouterr().err


def test_non_utf8_bytes_after_a_byte_order_mark_are_exit_two(tmp_path, capsys):
    bad = tmp_path / "latin.scn"
    bad.write_bytes(b"\xef\xbb\xbf" + minimal().replace(
        "chain = c", "chain = caf\xe9").encode("latin-1"))
    assert cli_main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "latin.scn is not UTF-8 text" in err


@pytest.mark.parametrize("bad", ["four", "3", "0"])
def test_cli_sweep_bad_k_is_usage_error(capsys, bad):
    with pytest.raises(SystemExit) as exc:
        cli_main(["sweep", "--k", bad])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert "positive even integers" in captured.err


@pytest.mark.parametrize("flag, val", [
    ("--beta", "0"), ("--iters", "0"), ("--seed", "-1")])
def test_cli_bad_solver_setting_is_exit_two(capsys, flag, val):
    assert cli_main(["run", scen("scale_out_v3.scn"), flag, val]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert "error: " in captured.err


@pytest.mark.parametrize("argv", [
    ["sweep", "--k", "2", "--beta", "2"],
    ["sweep", "--k", "2", "--seed", "1"],
    ["sweep", "--k", "2", "--iters", "3"],
    ["sweep", "--k", "2", "--out-dir", "d"],
    ["compare", scen("distributed_scale_out.scn"), "--solver", "milp"],
])
def test_cli_flag_a_verb_does_not_read_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert "unrecognized arguments" in captured.err


@pytest.mark.parametrize("bad", ["nan", "-1", "0", "abc", "inf"])
def test_cli_sweep_bad_budget_is_usage_error(capsys, bad):
    with pytest.raises(SystemExit) as exc:
        cli_main(["sweep", "--k", "2", "--budget", bad])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert "positive number of seconds" in captured.err


def test_cli_infeasible_is_exit_three(tmp_path, capsys):
    # four instances at share cap 25/200 cannot carry the load
    body = minimal(event="traffic = 200").replace("vm1  P2  100", "vm1  P2  25")
    assert cli_main(["run", write_scenario(tmp_path, body)]) == 3


@pytest.mark.parametrize("solver, why", [
    ("lp", "the offline pool holds 0 VMs, 1 launches required"),
    ("rpadmm", "the offline pool holds 0 VMs, 1 launches required"),
    ("milp", "joint model is infeasible"),
])
def test_cli_launch_beyond_the_offline_pool_is_exit_three(tmp_path, capsys,
                                                           solver, why):
    # v* = 3 with two online VMs needs one launch, and the pool is empty
    with open(scen("scale_out_v3.scn")) as f:
        body = f.read().replace("offline = 8", "offline = 0")
    path = write_scenario(tmp_path, body)
    assert cli_main(["run", path, "--solver", solver]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "infeasible: %s\n" % why


# an underload group of four VMs that may shrink to three on k=4: its root
# relaxation is fractional and the first branch finds the optimum
BRANCHING = """
[topology]
k = 4
pms_per_rack = 2

[group]
chain = c
gamma = 1.455
ingress = P1
egress = P3
candidates = P1-P16
offline = 1

[vms]
vm1  P5   100  0.27
vm2  P8   100  0.20
vm3  P12  100  0.23
vm4  P9   100  0.18

[pms]
capacity = cpu:200

[event]
baseline = 240.33
traffic = 277.11

[solver]
method = milp
"""


def with_budget(monkeypatch, budget):
    monkeypatch.setattr(milp, "solve_milp",
                        functools.partial(milp.solve_milp, budget=budget))


def test_cli_milp_budget_spent_on_a_finished_proof_does_not_warn(
        tmp_path, capsys, monkeypatch):
    # BRANCHING proves in 2 nodes: at budget 2 every open node left is
    # pruned by the incumbent, so the run is proven
    path = write_scenario(tmp_path, BRANCHING)
    assert cli_main(["run", path]) == 0
    proven = capsys.readouterr().out
    assert "WARNING" not in proven
    with_budget(monkeypatch, 2)
    assert cli_main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "WARNING" not in out
    assert out.split("  model:")[0] == proven.split("  model:")[0]


def test_cli_milp_budget_with_an_incumbent_warns(tmp_path, capsys, monkeypatch):
    # without its cover row BRANCHING's MILP is still open after 4 nodes,
    # with an incumbent in hand
    path = write_scenario(tmp_path, BRANCHING)
    assert cli_main(["run", path]) == 0
    proven = capsys.readouterr().out
    real = milp.build_milp
    monkeypatch.setattr(milp, "build_milp",
                        lambda p: without_rows(real(p), "cover"))
    with_budget(monkeypatch, 4)
    assert cli_main(["run", path]) == 0
    out = capsys.readouterr().out
    assert ("WARNING: not proven optimal: branch-and-bound stopped at its"
            " budget (4 nodes) with this incumbent") in out
    # the incumbent is the decision printed, here a tied optimum
    cost = [line for line in out.splitlines() if "forwarding cost" in line]
    assert cost == [line for line in proven.splitlines()
                    if "forwarding cost" in line]
    assert "terminate" in out.split("  model:")[0]


def test_cli_milp_budget_without_an_incumbent_is_exit_four(tmp_path, capsys,
                                                          monkeypatch):
    with_budget(monkeypatch, 1)
    assert cli_main(["run", write_scenario(tmp_path, BRANCHING)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("no usable solution: branch-and-bound found no"
                            " integral point within its budget (1 nodes)\n")


def v4_with(tmp_path, old, new):
    """A copy of scale_out_v4.scn with one line edited."""
    with open(scen("scale_out_v4.scn")) as fh:
        text = fh.read()
    assert text.count(old) == 1
    return write_scenario(tmp_path, text.replace(old, new), "v4.scn")


@pytest.mark.parametrize("old, new", [("gamma = 1.25", "gamma = 1e308"),
                                      ("costs = 10 20 40", "costs = 10 20 1e308")])
@pytest.mark.parametrize("argv, model", [(["run", "--solver", "lp"], "overload_lp"),
                                         (["run", "--solver", "milp"], "milp"),
                                         (["compare"], "overload_lp"),
                                         (["run", "--solver", "rpadmm"], "overload_lp")])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_an_overflowing_cost_is_exit_four(tmp_path, capsys, old, new, argv, model):
    # every unit cost overflows to inf: the model handed to lp.solve or
    # rpadmm.reformulate is not finite, a solver fault (exit 4) named
    # before any arithmetic runs on it
    path = v4_with(tmp_path, old, new)
    assert cli_main([argv[0], path, *argv[1:]]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("no usable solution: %s: objective and rows must be"
                            " finite\n" % model)


def test_cli_a_preset_past_a_finite_traffic_is_exit_two(tmp_path, capsys):
    path = v4_with(tmp_path, "baseline = 200", "baseline = 1e308")
    assert cli_main(["run", path]) == 2
    assert capsys.readouterr().err == (
        "error: %s: [event] preset = overload:2: the traffic it gives is not"
        " finite\n" % path)


def test_cli_over_capped_baseline_is_exit_three(tmp_path, capsys):
    # one VM serves 100 units: the event's two instances cover 150, the
    # single pre-event VM does not cover a baseline of 150
    body = minimal(event="traffic = 150").replace("baseline = 100", "baseline = 150")
    assert cli_main(["run", write_scenario(tmp_path, body)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "infeasible: baseline configuration is infeasible\n"


def test_cli_launches_on_a_pm_short_of_a_slot_by_float_error(tmp_path, capsys):
    # 0.3 - 2*0.1 is 0.09999999999999998: P2 still has room for a third VM
    body = (minimal(event="traffic = 0.25")
            .replace("k = 2", "k = 4")
            .replace("candidates = P1-P4", "candidates = P2")
            .replace("vm1  P2  100  0.95", "vm1  P2  0.1  0.95\nvm2  P2  0.1  0.95")
            .replace("capacity = cpu:100", "capacity = cpu:0.3")
            .replace("baseline = 100", "baseline = 0.15"))
    assert cli_main(["run", write_scenario(tmp_path, body)]) == 0
    out = capsys.readouterr().out
    assert "v* = 3" in out
    assert "d3        launch     P2 " in out


def test_cli_overfull_baseline_is_exit_three(tmp_path, capsys):
    # two VMs share P2, which serves 150 units: their share caps cover the
    # baseline of 180, P2's capacity does not
    body = (minimal(event="traffic = 190")
            .replace("vm1  P2  100  0.95", "vm1  P2  100  0.95\nvm2  P2  100  0.95")
            .replace("capacity = cpu:100", "capacity = cpu:150")
            .replace("baseline = 100", "baseline = 180"))
    assert cli_main(["run", write_scenario(tmp_path, body)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "infeasible: baseline configuration is infeasible\n"
    assert "Traceback" not in captured.out + captured.err


def test_cli_unusable_solver_point_is_exit_four(monkeypatch, capsys):
    # a solver point of all zeros gives the new instance no interest
    real_run = rpadmm.run

    def zero_point(system, cfg):
        x, trace = real_run(system, cfg)
        return np.zeros_like(x), trace
    monkeypatch.setattr(rpadmm, "run", zero_point)
    assert cli_main(["run", scen("distributed_scale_out.scn"),
                     "--iters", "1"]) == 4
    captured = capsys.readouterr()
    assert "all-zero interest column" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_cli_unbounded_block_update_is_exit_four(monkeypatch, capsys):
    def unbounded(system, cfg):
        raise rpadmm.UnboundedUpdateError(
            "block update has no quadratic term and runs off to -inf")
    monkeypatch.setattr(rpadmm, "run", unbounded)
    assert cli_main(["run", scen("distributed_scale_out.scn")]) == 4
    captured = capsys.readouterr()
    assert "no usable solution: block update" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_cli_sweep_and_compare(capsys):
    assert cli_main(["sweep", "--k", "2"]) == 0
    assert "switches" in capsys.readouterr().out
    assert cli_main(["sweep", "--k", "2", "--budget", "5"]) == 0
    assert re.search(r"^2 +5 +4 +15 +12 +\S+ s$", capsys.readouterr().out, re.M)
    assert cli_main(["compare", scen("distributed_scale_out.scn"),
                     "--seed", "9", "--iters", "20"]) == 0
    assert "final gap" in capsys.readouterr().out


def test_compare_writes_the_trace_that_run_writes(tmp_path, capsys):
    path = scen("distributed_scale_out.scn")
    assert cli_main(["compare", path, "--seed", "3",
                     "--out-dir", str(tmp_path / "compare")]) == 0
    assert cli_main(["run", path, "--solver", "rpadmm", "--seed", "3",
                     "--out-dir", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    written = (tmp_path / "compare" / "distributed_scale_out_trace.csv").read_bytes()
    assert written.startswith(b"iteration,objective,violation_")
    assert written == (tmp_path / "run" / "distributed_scale_out_trace.csv").read_bytes()


@pytest.mark.parametrize("verb", ["run", "compare"])
def test_cli_divergence_is_exit_four(verb, monkeypatch, capsys):
    # a divergence limit below the first sweep's objective: the sweep
    # itself raises AdmmDivergenceError
    monkeypatch.setattr(rpadmm, "AdmmConfig",
                        functools.partial(rpadmm.AdmmConfig, divergence_limit=1e-9))
    assert cli_main([verb, scen("distributed_scale_out.scn")]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("diverged: diverged at iteration 1:")
    assert "Traceback" not in captured.out + captured.err

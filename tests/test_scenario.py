import os
import time

import pytest

import vnfscale as vs
from vnfscale import lp, scenario
from vnfscale.cli import main as cli_main
from vnfscale.scaling import forwarding_cost_of

from corpus import pm

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
    assert scenario.parse_pm("P5") == pm(5)
    assert scenario.parse_pm_list("P1 P3-P5") == [pm(1), pm(3), pm(4), pm(5)]


def test_bad_pm_name_rejected():
    with pytest.raises(scenario.ScenarioParseError):
        scenario.parse_pm("Q5")


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


def test_cli_overrides_beat_file_values(tmp_path):
    path = write_scenario(tmp_path, minimal(method="rpadmm",
                                            extra="seed = 3\nbeta = 2.0"))
    sc = scenario.load_scenario(path, {"seed": 7, "method": "lp"})
    assert sc.seed == 7
    assert sc.beta == 2.0
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
    assert report.table == ""
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
    dec = report.decision
    sc = scenario.load_scenario(scen("scale_out_v4.scn"))
    recomputed = forwarding_cost_of(dec.flows_n, dec.flows_m, sc.topology)
    assert recomputed - report.baseline_cost == report.cost_delta


@pytest.mark.parametrize("name, lp_solves", [
    ("scale_out_v4.scn", 2),            # relaxation + baseline
    ("distributed_scale_out.scn", 1),   # baseline only
])
def test_baseline_is_solved_once_per_decision(monkeypatch, name, lp_solves):
    calls = []
    real_solve = lp.solve

    def counting_solve(*args, **kwargs):
        calls.append(args[0].name)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(lp, "solve", counting_solve)
    report = scenario.run_scenario(scen(name))
    assert len(calls) == lp_solves
    dec = report.decision
    assert dec.cost_delta_vs_baseline == pytest.approx(
        report.cost_delta / report.baseline_cost)


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


def test_milp_scenario_migrates_and_reports(tmp_path):
    report = scenario.run_scenario(scen("joint_migration_k2.scn"),
                                   out_dir=str(tmp_path))
    assert report.stats["binaries"] > 0
    assert report.decision.placement["vm1"] == pm(1)
    assert report.decision.placement["off1"] == pm(4)
    assert os.path.exists(report.trace_paths["decisions"])


def test_distributed_solver_rejects_underload(tmp_path):
    body = minimal(util="0.10", event="preset = underload", method="rpadmm")
    body = body.replace("vm1  P2  100  0.10",
                        "vm1  P2  100  0.10\nvm2  P3  100  0.15")
    with pytest.raises(scenario.ScenarioParseError):
        scenario.run_scenario(write_scenario(tmp_path, body))


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
    assert len(report.gaps) == 25
    assert "best gap" in report.text()


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


@pytest.mark.parametrize("old, new", [
    ("[solver]", "[solvers]"),
    ("k = 2", "k = four"),
    ("candidates = P1-P4", "candidates = P1-Px"),
    ("gamma = 1.0", "gamma = 1.0\nomega = cpu"),
    ("vm1  P2  100  0.95", "vm1  P2  big  0.5"),
], ids=["section", "k", "candidates", "omega", "vm_row"])
def test_cli_parse_error_is_exit_two(tmp_path, capsys, old, new):
    body = minimal().replace(old, new)
    assert body != minimal()
    assert cli_main(["run", write_scenario(tmp_path, body)]) == 2
    assert cli_main(["run", str(tmp_path / "missing.scn")]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert "error: " in captured.err


def test_cli_infeasible_is_exit_three(tmp_path, capsys):
    # four instances at share cap 25/200 cannot carry the load
    body = minimal(event="traffic = 200").replace("vm1  P2  100", "vm1  P2  25")
    assert cli_main(["run", write_scenario(tmp_path, body)]) == 3


def test_cli_unusable_solver_point_is_exit_four(capsys):
    # one sweep leaves the new instance's interest column all zero
    assert cli_main(["run", scen("distributed_scale_out.scn"),
                     "--iters", "1"]) == 4
    captured = capsys.readouterr()
    assert "all-zero interest column" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_cli_sweep_and_compare(capsys):
    assert cli_main(["sweep", "--k", "2"]) == 0
    assert "switches" in capsys.readouterr().out
    assert cli_main(["compare", scen("distributed_scale_out.scn"),
                     "--seed", "9", "--iters", "20"]) == 0
    assert "final gap" in capsys.readouterr().out

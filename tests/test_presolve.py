"""Solving without HiGHS presolve loses no optimum.

`lp._OPTIONS` runs the dual simplex with presolve off.  Where a model has
tied optima, the simplex may land on another vertex than it reaches
after presolve, so a decision may place on other PMs.  Each solve below
must still reach the same LP optimum (`lp`) or MILP total (`milp`), and
the same forwarding cost, as the same solve on a HiGHS object made with
presolve on, within 1e-9 relative.
"""

import pytest

from vnfscale import lp, milp, scaling, scenario

from test_pruning import generated_problems
from test_scaling import shipped_problems

# the method each workload's files name; `test_pruning.generated_problems`
# writes them at seeds 0, 3, 5 and 11
METHODS = {"central_lp_k8": "lp", "exact_milp_small": "milp"}


def outcome(p, method):
    """(objective, forwarding cost) of one decision through the method's
    solver entry, the objective being the LP optimum for `lp` and the
    MILP total for `milp`; or the error it ends in as text."""
    model, solve = scenario.SOLVERS[method](p, None)
    try:
        dec = solve()[0]
    except (scaling.ModelInfeasibleError, scaling.DecodeError,
            milp.BudgetExhaustedError) as err:
        return "%s: %s" % (type(err).__name__, err)
    value = dec.total if method == "milp" else lp.solve(model).objective_value
    return value, dec.forwarding_cost


def assert_presolve_changes_no_optimum(cases, monkeypatch):
    """Solve every (name, problem, method) case as `lp.solve` does, then
    again on a fresh HiGHS object with presolve on, and compare."""
    assert lp._OPTIONS["presolve"] == "off"
    got = [outcome(p, method) for _, p, method in cases]
    monkeypatch.setattr(lp, "_HIGHS", None)
    monkeypatch.setattr(lp, "_OPTIONS", {**lp._OPTIONS, "presolve": "on"})
    want = [outcome(p, method) for _, p, method in cases]
    monkeypatch.undo()
    for (name, _, method), g, w in zip(cases, got, want):
        if isinstance(w, str):
            assert g == w, (name, method)
        else:
            assert g == pytest.approx(w, rel=1e-9, abs=1e-9), (name, method)


@pytest.mark.parametrize("method", ["lp", "milp"])
def test_presolve_off_keeps_the_optima_of_shipped_scenarios(method, monkeypatch):
    cases = [(name, p, method) for name, p in shipped_problems()]
    assert len(cases) >= 6
    assert_presolve_changes_no_optimum(cases, monkeypatch)


def test_presolve_off_keeps_the_optima_of_generated_files(tmp_path, monkeypatch):
    cases = [(name, p, METHODS[name.split()[0]])
             for name, p in generated_problems(str(tmp_path)) if name.split()[0] in METHODS]
    assert len(cases) >= 200
    assert_presolve_changes_no_optimum(cases, monkeypatch)

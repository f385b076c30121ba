import dataclasses
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as highs

import vnfscale as vs
from vnfscale import lp, milp, rpadmm

from corpus import admm_fixture, k2_instance
from oracle import check_feasibility, export, record_sparse_builds, \
    reference_solve, row_dicts, scaled_model, system_from_model, value


def small_model():
    m = lp.LpModel("toy")
    x = m.add_var("x", 0.0, 10.0)
    y = m.add_var("y", 0.0, 10.0)
    m.add_objective({x: 1.0, y: 2.0})
    m.add_row({x: 1.0, y: 1.0}, ">=", 4.0, "cover")
    return m, x, y


def test_minimize_simple():
    m, x, y = small_model()
    sol = lp.solve(m)
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == pytest.approx(4.0)
    assert value(m, sol, "x") == pytest.approx(4.0)
    assert value(m, sol, "y") == pytest.approx(0.0)


def test_equality_and_bounds():
    m = lp.LpModel("eq")
    x = m.add_var("x", 1.0, 3.0)
    y = m.add_var("y", 0.0, 3.0)
    m.add_objective({y: 1.0})
    m.add_row({x: 1.0, y: 1.0}, "=", 5.0)
    sol = lp.solve(m)
    assert sol.status == lp.OPTIMAL
    assert value(m, sol, "x") == pytest.approx(3.0)
    assert value(m, sol, "y") == pytest.approx(2.0)


def test_infeasible_detected():
    m = lp.LpModel("bad")
    x = m.add_var("x", 0.0, 1.0)
    m.add_row({x: 1.0}, ">=", 2.0)
    assert lp.solve(m).status == lp.INFEASIBLE


def test_unbounded_detected():
    m = lp.LpModel("unb")
    x = m.add_var("x", 0.0, np.inf)
    m.add_objective({x: -1.0})
    assert lp.solve(m).status == lp.UNBOUNDED


def test_a_repeated_variable_name_is_accepted():
    # names are labels: nothing looks a variable up by one
    m = lp.LpModel("dup")
    assert (m.add_var("x"), m.add_var("x", 1.0, 2.0)) == (0, 1)
    assert m.var_names == ["x", "x"]
    m.add_objective({0: 1.0, 1: 1.0})
    assert lp.solve(m).point.tolist() == [0.0, 1.0]


def test_bad_bounds_rejected():
    m = lp.LpModel("bounds")
    with pytest.raises(ValueError):
        m.add_var("x", 2.0, 1.0)
    for lo, hi in ((np.nan, 10.0), (0.0, np.nan), (np.nan, np.nan)):
        with pytest.raises(ValueError):
            m.add_var("x", lo, hi)
    assert m.num_vars == 0
    m.add_var("x")
    with pytest.raises(ValueError):
        m.add_row({0: 1.0}, "<", 1.0)


def test_objective_rejects_unknown_variables():
    m = lp.LpModel("objective")
    x = m.add_var("x", 0.0, 10.0)
    m.add_var("y", 0.0, 10.0)
    for bad in (5, 2, -1):
        with pytest.raises(ValueError):
            m.add_objective({x: 1.0, bad: 1.0})
    assert m.objective == {}


@pytest.mark.parametrize("cost, coef, rhs", [
    (np.nan, 1.0, 1.0), (1.0, np.inf, 1.0), (1.0, 1.0, np.nan),
    (1.0, 1.0, -np.inf)])
def test_non_finite_objective_or_row_rejected(cost, coef, rhs):
    m = lp.LpModel("nonfinite")
    x = m.add_var("x", 0.0, 10.0)
    m.add_objective({x: cost})
    m.add_row({x: coef}, ">=", rhs)
    with pytest.raises(lp.LpError, match="nonfinite: objective and rows must be finite"):
        lp.solve(m)


def test_model_highs_rejects_is_infeasible():
    # HiGHS refuses a matrix entry of 1e15 or more; linprog reports that
    # model error as infeasible, and so does solve
    m = lp.LpModel("huge")
    x = m.add_var("x", 0.0, 10.0)
    m.add_objective({x: 1.0})
    m.add_row({x: 1e16}, ">=", 1.0)
    assert lp.solve(m).status == lp.INFEASIBLE


def test_check_feasibility_flags_violations():
    m, x, y = small_model()
    ok = check_feasibility(m, np.array([4.0, 0.0]))
    assert ok == []
    bad = check_feasibility(m, np.array([1.0, 1.0]))
    assert len(bad) == 1
    assert bad[0].row == 0 and bad[0].amount == pytest.approx(-2.0)
    with pytest.raises(ValueError):
        check_feasibility(m, np.array([1.0]))


def test_free_and_negative_variables():
    m = lp.LpModel("free")
    x = m.add_var("x", -np.inf, np.inf)
    m.add_objective({x: 1.0})
    m.add_row({x: 1.0}, ">=", -5.0)
    sol = lp.solve(m)
    assert value(m, sol, "x") == pytest.approx(-5.0)


def test_solution_consistency_roundtrip():
    m, x, y = small_model()
    sol = lp.solve(m)
    # objective recomputed from the point matches the solver's number
    assert m.objective_value(sol.point) == pytest.approx(sol.objective_value)
    assert check_feasibility(m, sol.point, tol=1e-7) == []


def test_deterministic_vertex():
    # two symmetric optima: repeated solves land on the same vertex
    points = []
    for _ in range(3):
        m = lp.LpModel("tie")
        x = m.add_var("x", 0.0, 1.0)
        y = m.add_var("y", 0.0, 1.0)
        m.add_objective({x: 1.0, y: 1.0})
        m.add_row({x: 1.0, y: 1.0}, ">=", 1.0)
        points.append(tuple(lp.solve(m).point))
    assert points[0] == points[1] == points[2]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.1, 10.0), min_size=2, max_size=6),
       st.floats(0.5, 5.0))
def test_knapsack_relaxation_properties(costs, demand):
    """min c·x subject to sum x >= demand, 0 <= x <= 1: the optimum fills
    the cheapest coordinates first, so the objective is the sum of the
    smallest ceil(demand) costs (with a fractional last one)."""
    if demand > len(costs):
        demand = float(len(costs))
    m = lp.LpModel("greedy")
    for i, _ in enumerate(costs):
        m.add_var("x%d" % i, 0.0, 1.0)
    m.add_objective({i: c for i, c in enumerate(costs)})
    m.add_row({i: 1.0 for i in range(len(costs))}, ">=", demand)
    sol = lp.solve(m)
    assert sol.status == lp.OPTIMAL
    ordered = sorted(costs)
    whole, frac = int(demand), demand - int(demand)
    expect = sum(ordered[:whole]) + (ordered[whole] * frac if frac > 1e-12 else 0.0)
    assert sol.objective_value == pytest.approx(expect, rel=1e-6)


# -- the sparse matrix export -------------------------------------------------

SOLVED = ["lp", "milp0", "milp1", "milp2", "milp3"]


def corpus_model(name):
    """The central LP and the ADMM lift of the ADMM fixture (its scaled
    system rebuilt as a model), and the MILP bases of four k=2
    instances."""
    if name == "lp":
        return vs.build_overload_lp(admm_fixture())
    if name == "lift":
        return scaled_model(rpadmm.reformulate(admm_fixture()))
    return milp.build_milp(k2_instance(int(name[-1]))).base


def dense_rows(model):
    a = np.zeros((model.num_rows, model.num_vars))
    for t, (coeffs, _, _, _) in enumerate(row_dicts(model)):
        for i, v in coeffs.items():
            a[t, i] = v
    return a


@pytest.mark.parametrize("name", SOLVED + ["lift"])
def test_export_matches_the_row_dicts(name):
    model = corpus_model(name)
    mats = export(model)
    a = dense_rows(model)
    assert np.array_equal(mats.a.toarray(), a)
    assert list(mats.b) == [r[2] for r in row_dicts(model)]
    assert list(mats.rel) == [r[1] for r in row_dicts(model)]
    assert list(mats.c) == [model.objective.get(i, 0.0)
                            for i in range(model.num_vars)]
    # each row keeps its insertion order, so A @ x adds the terms in the
    # order the row was written
    x = np.random.default_rng(0).normal(size=model.num_vars)
    by_hand = [sum(c * x[i] for i, c in coeffs.items()) - rhs
               for coeffs, _, rhs, _ in row_dicts(model)]
    assert (mats.a @ x - mats.b).tolist() == by_hand


# branch-and-bound nodes: a k=2 MILP base with some of its binaries
# pinned, each keyed by its position in MilpProblem.binaries
NODES = {
    "milp0-b0=0": ("milp0", {0: 0}),
    "milp0-b0=1-b4=0": ("milp0", {0: 1, 4: 0}),
    "milp1-b0=0": ("milp1", {0: 0}),
    "milp2-b4=1-b9=0": ("milp2", {4: 1, 9: 0}),
    "milp0-all=0": ("milp0", dict.fromkeys(range(12), 0)),
}


def node_case(name):
    """(model, pins): a corpus model as built with no pins, or a NODES
    entry's MILP base with the binaries a branch-and-bound node pins."""
    if name not in NODES:
        return corpus_model(name), None
    base, pins = NODES[name]
    mp = milp.build_milp(k2_instance(int(base[-1])))
    return mp.base, {mp.binaries[pos]: float(val) for pos, val in pins.items()}


def pinned_bounds(model, pins):
    """linprog's bounds list: the model's bounds with each pin fixed."""
    bounds = list(zip(model.lower, model.upper))
    for idx, val in (pins or {}).items():
        bounds[idx] = (val, val)
    return bounds


def dense_linprog(model, pins):
    """linprog on the rows assembled densely from the row dicts."""
    a = dense_rows(model)
    rel = np.array([r[1] for r in row_dicts(model)])
    b = np.array([r[2] for r in row_dicts(model)])
    ub, eq = rel != lp.EQ, rel == lp.EQ
    sign = np.where(rel == lp.GE, -1.0, 1.0)[:, None]
    feas_tol = 1e-9
    return linprog(export(model).c, A_ub=(sign * a)[ub],
                   b_ub=(sign[:, 0] * b)[ub], A_eq=a[eq], b_eq=b[eq],
                   bounds=pinned_bounds(model, pins), method="highs-ds",
                   options={"presolve": True,
                            "primal_feasibility_tolerance": feas_tol,
                            "dual_feasibility_tolerance": feas_tol})


@pytest.mark.parametrize("name", SOLVED + list(NODES))
def test_solve_lands_on_the_dense_assembly_vertex(name):
    model, pins = node_case(name)
    res = dense_linprog(model, pins)
    sol = lp.solve(model, pins)
    assert sol.status == {0: lp.OPTIMAL, 2: lp.INFEASIBLE}[res.status]
    if res.status == 0:
        assert np.array_equal(sol.point, res.x)
        assert sol.objective_value == res.fun


def test_solves_on_one_model_leave_no_state_behind():
    """Node pins and the last basis do not carry over to the next
    solve: each point equals a solve on a freshly built model."""
    model, a = node_case("milp0-b0=1-b4=0")
    _, b = node_case("milp0-b0=0")
    _, nowhere = node_case("milp0-all=0")
    statuses = []
    for pins in (a, nowhere, b, None):
        got = lp.solve(model, pins)
        want = lp.solve(corpus_model("milp0"), pins)
        assert got.status == want.status
        assert np.array_equal(got.point, want.point)
        statuses.append(got.status)
    assert statuses == [lp.OPTIMAL, lp.INFEASIBLE, lp.OPTIMAL, lp.OPTIMAL]


def test_solves_on_many_models_leave_no_state_behind():
    """The process's one HiGHS object takes each model afresh, across
    model switches, an add_row and a model it rejected: every solve gives
    the status and the point bits of a fresh HiGHS object loaded
    columnwise."""
    a, _ = node_case("lp")
    b, pins = node_case("milp0-b0=1-b4=0")
    rejected = lp.LpModel("huge")
    rejected.add_var("x", 0.0, 10.0)
    rejected.add_row({0: 1e16}, ">=", 1.0)
    infeasible = lp.LpModel("bad")
    infeasible.add_var("x", 0.0, 1.0)
    infeasible.add_row({0: 1.0}, ">=", 2.0)

    def solved(model, fixed=None):
        got, want = lp.solve(model, fixed), reference_solve(model, fixed)
        assert got.status == want.status
        assert (got.point is None) == (want.point is None)
        if want.point is not None:
            assert got.point.tobytes() == want.point.tobytes()
        return got.status

    statuses = [solved(a), solved(b, pins), solved(rejected), solved(a),
                solved(rejected), solved(a)]
    # a row added to a solved model moves its optimum
    capped = b.var_names.index("alpha[PM3,off1]")
    assert lp.solve(b, pins).point[capped] > 0.1
    b.add_row({capped: 1.0}, "<=", 0.1, "cap")
    statuses += [solved(b, pins), solved(infeasible), solved(a)]
    assert lp.solve(b, pins).point[capped] <= 0.1
    assert statuses == [lp.OPTIMAL, lp.OPTIMAL, lp.INFEASIBLE, lp.OPTIMAL,
                        lp.INFEASIBLE, lp.OPTIMAL, lp.OPTIMAL, lp.INFEASIBLE,
                        lp.OPTIMAL]


def spy_on_pass_model(monkeypatch):
    """Make a spy the process's HiGHS object, built and set up by the
    next solve, and return the HighsLp of every passModel call as it was
    handed to HiGHS (HiGHS itself drops explicit zeros from what it
    holds)."""
    passed = []

    class Spy(highs._Highs):
        def passModel(self, hlp):
            passed.append(hlp)
            return super().passModel(hlp)

    monkeypatch.setattr(highs, "_Highs", Spy)
    monkeypatch.setattr(lp, "_HIGHS", None)
    return passed


def held_csc(model):
    """The model's CSC as HiGHS holds it after a solve: the rows turned
    into columns, explicit zeros dropped."""
    csc = export(model).a.tocsc()
    csc.eliminate_zeros()
    return csc


def assert_held_matrix(csc):
    held = lp._HIGHS.getLp().a_matrix_
    assert held.format_ == highs.MatrixFormat.kColwise
    assert list(held.start_) == csc.indptr.tolist()
    assert list(held.index_) == csc.indices.tolist()
    assert list(held.value_) == csc.data.tolist()


@pytest.mark.parametrize("name", SOLVED + ["lift"] + list(NODES))
def test_highs_holds_the_model_rows_in_order(name, monkeypatch):
    """HiGHS gets the model's own CSR lists rowwise, each row in model
    order as a range of a x: <= is (-inf, b), >= is (b, inf) and = is
    (b, b).  After the solve it holds their columnwise form, explicit
    zeros dropped.  A node's pins change column bounds only."""
    passed = spy_on_pass_model(monkeypatch)
    model, pins = node_case(name)
    lp.solve(model, pins)
    [handed] = passed
    mats = export(model)
    assert handed.a_matrix_.format_ == highs.MatrixFormat.kRowwise
    assert list(handed.a_matrix_.start_) == model._indptr
    assert list(handed.a_matrix_.index_) == model._indices
    assert list(handed.a_matrix_.value_) == model._data
    assert list(handed.row_lower_) == np.where(mats.rel == lp.LE, -np.inf,
                                               mats.b).tolist()
    assert list(handed.row_upper_) == np.where(mats.rel == lp.GE, np.inf,
                                               mats.b).tolist()
    assert list(handed.col_cost_) == mats.c.tolist()
    assert list(handed.col_lower_) == model.lower
    assert list(handed.col_upper_) == model.upper
    assert_held_matrix(held_csc(model))
    held = lp._HIGHS.getLp()
    assert list(held.row_lower_) == list(handed.row_lower_)
    assert list(held.row_upper_) == list(handed.row_upper_)
    assert list(zip(held.col_lower_, held.col_upper_)) == \
        pinned_bounds(model, pins)


# central models of either mode and the RP-ADMM lift: = rows only
EQUALITY_MODELS = {
    "overload": lambda: corpus_model("lp"),
    "underload": lambda: vs.build_underload_lp(k2_instance(1)),
    "lift": lambda: corpus_model("lift"),
}


@pytest.mark.parametrize("name", list(EQUALITY_MODELS))
def test_equality_models_load_as_linprog_loads_them(name, monkeypatch):
    """A model of = rows only, as every central model and the RP-ADMM
    lift are, is held by HiGHS after the solve array for array as
    linprog hands it over."""
    passed = spy_on_pass_model(monkeypatch)
    model = EQUALITY_MODELS[name]()
    assert set(model._rel) == {lp.EQ}
    dense_linprog(model, None)
    lp.solve(model)
    theirs, _ = passed
    ours = lp._HIGHS.getLp()
    for field in ("col_cost_", "col_lower_", "col_upper_", "row_lower_",
                  "row_upper_", "a_matrix_.start_", "a_matrix_.index_",
                  "a_matrix_.value_"):
        got, want = (np.asarray(operator.attrgetter(field)(held))
                     for held in (ours, theirs))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_highs_holds_mixed_rows_in_order_as_ranges(monkeypatch):
    """Rows keep model order whatever their relation and reach HiGHS as
    written, the explicit zero an entry; after the solve each column's
    rows ascend, the zero is gone and the column in no row has an empty
    slice."""
    passed = spy_on_pass_model(monkeypatch)
    m = lp.LpModel("mixed")
    x = [m.add_var("x%d" % i, 0.0, 10.0) for i in range(4)]
    m.add_objective({x[0]: 1.0, x[1]: 1.0, x[3]: 1.0})
    m.add_row({x[1]: 2.0, x[0]: 1.0}, "=", 3.0, "r0")
    m.add_row({x[0]: 1.0, x[2]: 0.0}, ">=", 1.0, "r1")
    m.add_row({x[2]: 4.0, x[1]: -1.0}, "<=", 5.0, "r2")
    m.add_row({x[0]: 1.0, x[1]: 1.0, x[2]: 1.0}, ">=", 0.5, "r3")
    sol = lp.solve(m)
    assert sol.objective_value == pytest.approx(2.0)
    assert (value(m, sol, "x0"), value(m, sol, "x1")) == pytest.approx((1.0, 1.0))
    [handed] = passed
    assert list(handed.a_matrix_.start_) == [0, 2, 4, 6, 9]
    assert list(handed.a_matrix_.index_) == [1, 0, 0, 2, 2, 1, 0, 1, 2]
    assert list(handed.a_matrix_.value_) == [2.0, 1.0, 1.0, 0.0, 4.0, -1.0,
                                             1.0, 1.0, 1.0]
    assert list(handed.row_lower_) == [3.0, 1.0, -np.inf, 0.5]
    assert list(handed.row_upper_) == [3.0, np.inf, 5.0, np.inf]
    assert list(handed.col_cost_) == [1.0, 1.0, 0.0, 1.0]
    held = lp._HIGHS.getLp().a_matrix_
    assert list(held.start_) == [0, 3, 6, 8, 8]
    assert list(held.index_) == [0, 1, 3, 0, 2, 3, 2, 3]
    assert list(held.value_) == [1.0, 1.0, 1.0, 2.0, -1.0, 1.0, 4.0, 1.0]
    assert_held_matrix(held_csc(m))


def test_highs_layout_of_a_model_without_rows(monkeypatch):
    passed = spy_on_pass_model(monkeypatch)
    m = lp.LpModel("free")
    x = m.add_var("x", 0.0, 2.0)
    y = m.add_var("y", -1.0, 1.0)
    m.add_objective({x: 1.0, y: 1.0})
    sol = lp.solve(m)
    assert sol.status == lp.OPTIMAL
    assert sol.point.tolist() == [0.0, -1.0]
    assert sol.objective_value == -1.0
    [handed] = passed
    assert list(handed.a_matrix_.start_) == [0]
    assert len(handed.a_matrix_.index_) == len(handed.row_upper_) == 0
    held = lp._HIGHS.getLp()
    assert list(held.a_matrix_.start_) == [0, 0, 0]
    assert len(held.a_matrix_.index_) == len(held.row_upper_) == 0


def test_solving_builds_no_scipy_export(monkeypatch):
    """lp.solve and branch-and-bound load HiGHS from the model's own
    lists; no scipy.sparse object is built."""
    built = record_sparse_builds(monkeypatch)
    m, _, _ = small_model()
    lp.solve(m)
    mp = milp.build_milp(k2_instance(0))
    assert milp.solve_milp(mp).proven
    assert built == []
    export(m)
    assert built == ["csr_array"]


def test_resolve_after_a_new_row_sees_the_row():
    m, x, y = small_model()
    assert lp.solve(m).objective_value == pytest.approx(4.0)
    m.add_row({x: 1.0}, "<=", 1.0, "cap")
    sol = lp.solve(m)
    assert value(m, sol, "x") == pytest.approx(1.0)
    assert value(m, sol, "y") == pytest.approx(3.0)
    assert sol.objective_value == pytest.approx(7.0)


def test_resolve_after_a_new_variable_or_objective_term():
    m, x, y = small_model()
    assert lp.solve(m).objective_value == pytest.approx(4.0)
    z = m.add_var("z", 0.0, 1.0)
    assert lp.solve(m).point.shape == (3,)
    m.add_objective({z: -5.0})
    sol = lp.solve(m)
    assert value(m, sol, "z") == pytest.approx(1.0)
    assert sol.objective_value == pytest.approx(-1.0)


def test_every_solve_passes_its_model_once_and_pins_only_its_own(monkeypatch):
    """Each solve hands HiGHS its model exactly once, as the model's own
    bounds; a node's pins reach only the pinned columns, and only for
    that solve."""
    model, pins = node_case("milp0-b0=1-b4=0")
    other, _ = node_case("lp")
    free = list(zip(model.lower, model.upper))
    cases = [(model, pins), (model, None), (other, None), (model, pins),
             (model, pins), (model, None)]
    wants = [reference_solve(m, fixed).point.tobytes() for m, fixed in cases]
    passed = spy_on_pass_model(monkeypatch)
    for n, ((m, fixed), want) in enumerate(zip(cases, wants), start=1):
        assert lp.solve(m, fixed).point.tobytes() == want
        assert len(passed) == n
        assert list(passed[-1].col_lower_) == m.lower
        assert list(passed[-1].col_upper_) == m.upper
        held = lp._HIGHS.getLp()
        assert list(zip(held.col_lower_, held.col_upper_)) == \
            pinned_bounds(m, fixed)
    assert list(zip(model.lower, model.upper)) == free


def test_an_objective_edited_in_place_is_seen():
    """The public objective dict is the model's cost: a coefficient
    changed between two solves of one model moves its optimum."""
    m = lp.LpModel("edit")
    x = m.add_var("x", 0.0, 1.0)
    y = m.add_var("y", 0.0, 1.0)
    m.add_objective({x: 1.0, y: 2.0})
    m.add_row({x: 1.0, y: 1.0}, ">=", 1.0, "cover")
    sol = lp.solve(m)
    assert (value(m, sol, "x"), value(m, sol, "y"), sol.objective_value) == (1.0, 0.0, 1.0)
    m.objective[x] = 3.0
    sol = lp.solve(m)
    assert (value(m, sol, "x"), value(m, sol, "y"), sol.objective_value) == (0.0, 1.0, 2.0)


def test_pin_outside_the_model_is_rejected():
    m, x, y = small_model()
    for bad in (2, -1):
        with pytest.raises(ValueError):
            lp.solve(m, {x: 1.0, bad: 0.0})
    sol = lp.solve(m, {x: 1.0})
    assert value(m, sol, "x") == 1.0
    assert value(m, sol, "y") == pytest.approx(3.0)
    # the pin holds for that solve only
    assert value(m, lp.solve(m), "x") == pytest.approx(4.0)


def test_message_footprint_counts_an_explicit_zero():
    m = lp.LpModel("zero")
    a = m.add_var("a", -np.inf, np.inf)
    b = m.add_var("b", -np.inf, np.inf)
    m.add_row({a: 1.0, b: 0.0}, "=", 0.0, "r")
    assert export(m).a.nnz == 2
    system = dataclasses.replace(system_from_model(m), owners=["p", "q"])
    assert system.data.tolist() == [1.0, 0.0]
    assert rpadmm.message_footprint(system) == 2


# -- the block API --------------------------------------------------------------

def state_of(model):
    """Every list and dict, copied."""
    return {k: (dict(v) if isinstance(v, dict) else
                list(v) if isinstance(v, list) else v)
            for k, v in vars(model).items()}


def solved_model():
    """small_model() after a solve."""
    m, x, y = small_model()
    lp.solve(m)
    return m


def raised(call):
    with pytest.raises(ValueError) as err:
        call()
    return str(err.value)


# (one-element call, block call holding the same fault among good entries)
BAD_VARS = {
    "empty_interval": (lambda m: m.add_var("z", 2.0, 1.0),
                       lambda m: m.add_vars(["w", "z"], [0.0, 2.0], [1.0, 1.0])),
    "nan_bound": (lambda m: m.add_var("z", np.nan, 1.0),
                  lambda m: m.add_vars(["w", "z"], [0.0, np.nan], [1.0, 1.0])),
}

# rows over the two variables of small_model()
BAD_ROWS = {
    "relation": (lambda m: m.add_row({0: 1.0}, "<", 1.0, "r"),
                 lambda m: m.add_rows("<", [0, 1, 2], [0, 1], [1.0, 1.0],
                                      [1.0, 1.0], ["q", "r"])),
    "unknown": (lambda m: m.add_row({0: 1.0, 2: 1.0}, "<=", 1.0, "r"),
                lambda m: m.add_rows("<=", [0, 1, 3], [1, 0, 2], [1.0] * 3,
                                     [1.0, 1.0], ["q", "r"])),
    "negative": (lambda m: m.add_row({-1: 1.0}, "=", 1.0, "r"),
                 lambda m: m.add_rows("=", [0, 2, 3], [0, 1, -1], [1.0] * 3,
                                      [1.0, 1.0], ["q", "r"])),
}


@pytest.mark.parametrize("name", list(BAD_VARS) + list(BAD_ROWS))
def test_a_rejected_block_names_the_fault_and_leaves_the_model(name):
    one, block = {**BAD_VARS, **BAD_ROWS}[name]
    message = raised(lambda: one(solved_model()))
    m = solved_model()
    before = state_of(m)
    assert raised(lambda: block(m)) == message
    assert state_of(m) == before


def test_a_row_naming_a_variable_twice_is_rejected():
    """A dict row cannot name a column twice; a CSR block can, and HiGHS
    must never see it."""
    m = solved_model()
    before = state_of(m)
    assert raised(lambda: m.add_rows(">=", [0, 2, 5], [0, 1, 1, 0, 1], [1.0] * 5,
                                     [1.0, 2.0], ["ok", "twice"])) == \
        "row 'twice' names variable 1 twice"
    assert state_of(m) == before


def test_the_first_fault_of_a_block_is_named():
    m = solved_model()
    assert raised(lambda: m.add_vars(["w", "v", "u"], [0.0, 2.0, 3.0],
                                     [1.0, 1.0, 1.0])) == "empty bound interval for 'v'"
    assert raised(lambda: m.add_rows("=", [0, 2, 3], [1, 1, 5], [1.0] * 3,
                                     [0.0, 0.0], ["a", "b"])) == \
        "row 'a' names variable 1 twice"
    assert raised(lambda: m.add_rows("=", [0, 2, 3], [1, 7, 1], [1.0] * 3,
                                     [0.0, 0.0], ["a", "b"])) == \
        "row 'a' references unknown variable 7"


@pytest.mark.parametrize("block", [
    lambda m: m.add_vars(["w"], [0.0, 0.0], [1.0]),
    lambda m: m.add_rows("=", [0, 1], [0], [1.0], [0.0, 1.0], ["a"]),
    lambda m: m.add_rows("=", [0, 2], [0, 1], [1.0], [0.0], ["a"]),
    lambda m: m.add_rows("=", [1, 2], [0, 1], [1.0, 1.0], [0.0], ["a"]),
])
def test_a_malformed_block_is_rejected(block):
    m = solved_model()
    before = state_of(m)
    with pytest.raises(ValueError, match="malformed"):
        block(m)
    assert state_of(m) == before


def observable(model):
    """What a reader of the model sees: its name, bounds, objective, the
    rows' CSR lists, relations and right-hand sides, the names, labels
    and row families (not how the name blocks are cut)."""
    return {"name": model.name, "lower": model.lower, "upper": model.upper,
            "objective": model.objective, "_indptr": model._indptr,
            "_indices": model._indices, "_data": model._data, "_rel": model._rel,
            "_rhs": model._rhs, "var_names": model.var_names,
            "_labels": model._labels, "row_families": model.row_families()}


def test_blocks_append_as_one_element_calls_do(monkeypatch):
    """add_vars and add_rows give the model the single calls would, as
    far as any reader sees, and the next solve passes the grown model to
    HiGHS."""
    one, block = solved_model(), solved_model()
    for name, lo, hi in (("z", -1.0, 2.0), ("w", 0, 5)):
        one.add_var(name, lo, hi)
    one.add_row({3: 1.0, 0: -2.0}, "<=", 3.0, "a")
    one.add_row({2: 1.0}, "<=", 1, "b")
    one.add_row({}, "<=", 0.0, "c")
    assert block.add_vars(["z", "w"], [-1.0, 0], [2.0, 5]) == 2
    assert block.add_rows("<=", [0, 2, 3, 3], [3, 0, 2], [1.0, -2.0, 1.0],
                          [3.0, 1, 0.0], ["a", "b", "c"]) == 1
    assert repr(observable(block)) == repr(observable(one))
    passed = spy_on_pass_model(monkeypatch)
    sol = lp.solve(block)
    assert len(passed) == 1 and list(passed[0].a_matrix_.start_) == [0, 2, 4, 5, 5]
    assert sol.objective_value == lp.solve(one).objective_value


def test_row_families_cut_a_plain_label_at_its_bracket():
    """A row's family is its label up to the first '[', whether the block
    gave a plain list or an lp.Names."""
    m = lp.LpModel()
    m.add_vars(["x", "y"], [0.0, 0.0], [1.0, 1.0])
    m.add_rows("=", [0, 1, 2], [0, 1], [1.0, 1.0], [0.0, 0.0],
               ["keep[P1]", "coverage"])
    m.add_rows("<=", [0, 1, 2], [0, 1], [1.0, 1.0], [1.0, 1.0],
               lp.Names("cap", [("P1", "cpu"), ("P2", "cpu")]))
    assert m.row_families() == ["keep", "coverage", "cap", "cap"]
    assert m.row_families() == [label.split("[", 1)[0] for label in m._labels]

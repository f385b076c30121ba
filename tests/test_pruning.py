"""The `lp` entry's cut of the launch PMs against the full overload LP.

`scenario.SOLVERS["lp"]` solves `scaling.prune_launch_pms(p)`, which
keeps every host and, of each class of interchangeable launch PMs, as
many as there are launches.  On every problem below the cut model must
reach the full `build_overload_lp` model's optimum and decode to the
same decision: the same kept and terminated VMs, the same forwarding
cost and the same launched hosts, or hosts at a tie that the flow LP
proves optimal (`test_scaling.assert_exact`).  An infeasible problem
must fail with the full model's message.
"""

import dataclasses
import os

import pytest
from hypothesis import given, settings

import vnfscale as vs
from vnfscale import lp, scaling, scenario

from corpus import capacity, group, pm, problem, tree4
from test_build_identity import CORPUS, problems
from test_scaling import assert_exact, load_perfbench_gen, shipped_problems

SEEDS = (0, 3, 5, 11)

# the problems whose cut decision launches on other PMs of the same class
# than the full model's, at the same cost: scenario3 d3 on P3 for P4,
# scenario4_more on P8 for P16, admm03.scn both VMs on P7 for P15
MOVED = {"scenario3", "scenario4_more", "distributed_k4 seed 0 admm03.scn"}


def full_decision(p):
    """(objective, decision, model) of the full overload LP solved and
    decoded as the `lp` entry does, or the error it ends in as text."""
    try:
        model = scaling.build_overload_lp(p)
        sol = lp.solve(model)
        if sol.status != lp.OPTIMAL:
            raise scaling.ModelInfeasibleError("relaxation is %s" % sol.status)
        return sol.objective_value, vs.decode(model, sol.point, p), model
    except (scaling.ModelInfeasibleError, scaling.DecodeError) as err:
        return "%s: %s" % (type(err).__name__, err)


def cut_decision(p):
    """The same through the `lp` solver entry, which cuts the launch PMs."""
    try:
        model, solve = scenario.SOLVERS["lp"](p, None)
        dec = solve()[0]
    except (scaling.ModelInfeasibleError, scaling.DecodeError) as err:
        return "%s: %s" % (type(err).__name__, err)
    return lp.solve(model).objective_value, dec, model


def hosts(placed):
    return sorted(q.index for q in placed.values())


def compare(p):
    """Whether the cut decision launches on the full one's hosts; every
    other part of the two decisions is asserted equal."""
    want, got = full_decision(p), cut_decision(p)
    if isinstance(want, str):
        assert got == want
        return True
    (want_obj, dw, full), (got_obj, dg, cut) = want, got
    assert cut.num_vars <= full.num_vars
    assert got_obj == pytest.approx(want_obj, rel=1e-9, abs=1e-9)
    assert (dg.kept, dg.terminated) == (dw.kept, dw.terminated)
    assert dg.forwarding_cost == pytest.approx(dw.forwarding_cost, rel=1e-9, abs=1e-9)
    if hosts(dg.launched) == hosts(dw.launched):
        return True
    # the pruned PMs' interests are zero in the full model
    e = dict.fromkeys(full.layout.e_idx, 0.0)
    e.update(dg.e)
    assert_exact(p, dataclasses.replace(dg, e=e))
    return False


def overload(cases):
    for name, p in cases:
        if p.mode == vs.OVERLOAD:
            yield name, p
        else:
            assert scaling.prune_launch_pms(p) is p


def generated_problems(tmp_dir):
    gen = load_perfbench_gen()
    for workload in sorted(gen.WORKLOADS):
        for seed in SEEDS:
            out_dir = os.path.join(tmp_dir, workload, str(seed))
            os.makedirs(out_dir)
            for path in sorted({i.path for i in gen.generate(workload, seed, out_dir)}):
                sc = vs.load_scenario(path)
                state = vs.classify_group(sc.group)
                if state != vs.NORMAL:
                    yield ("%s seed %d %s" % (workload, seed, os.path.basename(path)),
                           scenario._problem_for(sc, state))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_cut_matches_the_full_lp_on_the_corpus(name):
    for _, p in overload([(name, CORPUS[name])]):
        assert compare(p) != (name in MOVED)


@pytest.mark.parametrize("name,p", [pytest.param(name, p, id=name)
                                    for name, p in shipped_problems()])
def test_cut_matches_the_full_lp_on_shipped_scenarios(name, p):
    for _, p in overload([(name, p)]):
        assert compare(p)


def test_cut_matches_the_full_lp_on_generated_files(tmp_path):
    names, moved = [], set()
    for name, p in overload(generated_problems(str(tmp_path))):
        names.append(name)
        if not compare(p):
            moved.add(name)
    assert moved == MOVED & set(names)
    assert len(names) == len(set(names)) >= 100


@settings(max_examples=150, deadline=None)
@given(problems())
def test_cut_matches_the_full_lp_on_drawn_problems(p):
    for _, p in overload([("drawn", p)]):
        compare(p)


def test_an_infeasible_cut_keeps_the_full_message():
    topo = tree4()
    # P3-P16 fit one new VM each, 14 in all, and 18 are needed
    p = problem(topo, group("c", [pm(1), pm(2)], 0.8, pm(1), pm(2),
                            [pm(i) for i in range(3, 17)], n_offline=30),
                600.0, 20, vs.OVERLOAD)
    assert full_decision(p) == cut_decision(p) == (
        "ModelInfeasibleError: candidate PMs fit 14 new instances, 18 required")


def test_the_cut_keeps_hosts_and_the_lowest_indexed_of_each_class():
    # PMs of 250 cpu: the hosts P2 and P5 fit one more VM, the others two
    topo = tree4()
    g = group("c", [pm(2), pm(5)], 1.25, pm(1), pm(4), [pm(i) for i in range(1, 17)])
    p = vs.ScalingProblem(topology=topo, group=g, traffic=400.0, v_star=4,
                          mode=vs.OVERLOAD, pm_capacity=capacity(topo, 250.0))
    cut = scaling.prune_launch_pms(p)
    kept = [q.index for q in cut.launch_slots]
    assert [q.index for q in cut.group.candidate_pms] == kept
    assert cut.launch_slots == {q: p.launch_slots[q] for q in cut.launch_slots}
    classes = {}
    for q in p.launch_slots:
        if q not in (pm(2), pm(5)):
            classes.setdefault(p.unit_cost(q), []).append(q.index)
    assert len(classes) > 1 and max(map(len, classes.values())) > 2
    assert kept == sorted([1, 4] + [i for members in classes.values() for i in members[:2]])
    assert cut.unit_costs is p.unit_costs and cut.free_by_index is p.free_by_index
    assert compare(p)


def test_a_room_that_rests_on_the_tolerance_keeps_its_pm():
    # P9-P16 fall 5e-13 short of a VM: `launch_slots` gives each a room
    # of one, but a share cap's load could break their cap rows by that
    # much, so none of them joins a class
    topo = tree4()
    g = group("c", [pm(2), pm(5)], 1.25, pm(1), pm(4), [pm(i) for i in range(1, 17)])
    p = problem(topo, g, 400.0, 4, vs.OVERLOAD)
    for i in range(9, 17):
        p.pm_capacity["cpu"][pm(i)] = 100.0 - 5e-13
    assert all(p.launch_slots[pm(i)] == 1 for i in range(9, 17))
    kept = scaling.prune_launch_pms(p).launch_slots
    assert all(pm(i) in kept for i in range(9, 17))
    assert compare(p)

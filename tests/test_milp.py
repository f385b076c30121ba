import os

import numpy as np
import pytest

import vnfscale as vs
from vnfscale import lp, milp, scaling

from corpus import k2_instance, pm, tree4, capacity, scenario1, problem, \
    underload_shape
from oracle import check_feasibility, export, enumerate_single_host, \
    enumerate_all_bits, reference_flow_milp, without_rows

SCEN_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def build(seed, mode=None):
    p = k2_instance(seed, mode)
    return p, milp.build_milp(p)


def test_binary_grid_size():
    p, mp = build(0)
    # 4 PMs x (2 online + 1 offline) VMs
    assert len(mp.binaries) == 12
    assert len(mp.alpha_idx) == 12


def test_variable_count_reference():
    # the flow MILP on the small tree with 3 VMs lands near the published
    # reference size (120)
    p = k2_instance(0)
    ref = reference_flow_milp(p)
    assert 100 <= ref.base.num_vars <= 150
    # the model solved has a b and an alpha per (PM, VM) pair: 4 PMs x 3
    # VMs, with 24 coupling rows, coverage, cover, 4 capacity and 3
    # one-host rows
    mp = milp.build_milp(p)
    assert (mp.base.num_vars, mp.base.num_rows) == (24, 33)
    # and both grow monotonically with the tree
    big = problem(tree4(), scenario1(), 400.0, 4, vs.OVERLOAD)
    assert milp.build_milp(big).base.num_vars > mp.base.num_vars
    assert reference_flow_milp(big).base.num_vars > ref.base.num_vars


def test_no_flow_variables_or_rows():
    for p in (k2_instance(0), problem(tree4(), scenario1(), 400.0, 4, vs.OVERLOAD)):
        model = milp.build_milp(p).base
        assert {n.partition("[")[0] for n in model.var_names} == {"b", "alpha"}
        assert {l.partition("[")[0] for l in model._labels} == {
            "couple_hi", "couple_lo", "coverage", "cover", "capacity", "one_host"}


def test_zero_point_violates_coverage_by_one():
    p, mp = build(1)
    zeros = np.zeros(mp.base.num_vars)
    bad = check_feasibility(mp.base, zeros)
    cover = [v for v in bad if v.label == "coverage"]
    assert len(cover) == 1 and cover[0].amount == pytest.approx(-1.0)


def test_unit_gamma_balances_endpoints():
    p, mp = build(2, vs.OVERLOAD)
    p.group.gamma = 1.0
    mp = milp.build_milp(p)
    sol = milp.solve_milp(mp)
    assert sol.status == "optimal"
    _, flows_m = scaling.route_flows(p, sol.split)
    total_out = sum(v for (i, j, d), v in flows_m.items()
                    if j in p.group.egress_pms)
    # processed traffic reaching the egress equals the ingress total
    assert total_out == pytest.approx(p.traffic, abs=1e-6)


def test_symmetric_candidates_identical_total():
    # one VM, two symmetric candidate PMs: forcing either placement
    # produces the same total
    topo = vs.build_fat_tree(2, pms_per_rack=2)
    pms = topo.pms
    thr = vs.Thresholds.uniform(("cpu",))
    vm = vs.VmInstance("vm1", "fw", "c", {"cpu": 1.0}, host=pms[0],
                       utilization={"cpu": 0.95})
    g = vs.VnfGroup(chain="c", vnf_type="fw", online=[vm], offline_pool=[],
                    thresholds=thr, gamma=1.0, phi=1.0, omega={"cpu": 1.0},
                    ingress_pms=[pms[0]], egress_pms=[pms[0]],
                    candidate_pms=list(pms))
    p = vs.ScalingProblem(topology=topo, group=g, traffic=0.9, v_star=1,
                          mode=vs.OVERLOAD,
                          pm_capacity=vs.uniform_capacity(topo, {"cpu": 1.0}))
    mp = milp.build_milp(p)
    # pms[2] and pms[3] sit in the other pod, symmetric to each other
    totals = []
    for q in (pms[2], pms[3]):
        pins = {idx: float(qq == q) for (qq, _), idx in mp.b_idx.items()}
        sol = lp.solve(mp.base, pins)
        assert sol.status == lp.OPTIMAL
        totals.append(sol.objective_value)
    assert totals[0] == pytest.approx(totals[1], rel=1e-9)


def test_full_bit_enumeration_small_instance():
    # literal sweep over every b vector for a 10-binary instance
    p = k2_instance(7, vs.OVERLOAD)
    p.group.candidate_pms = [p.topology.pms[0], p.topology.pms[1]]
    mp = milp.build_milp(p)
    assert len(mp.binaries) == 10
    expect = enumerate_all_bits(mp)
    got = milp.solve_milp(mp)
    assert got.status == "optimal"
    assert got.total == pytest.approx(expect, rel=1e-6)


@pytest.mark.parametrize("seed", range(20))
def test_oracle_equivalence_corpus(seed):
    p, mp = build(seed)
    expect, assign = enumerate_single_host(mp)
    got = milp.solve_milp(mp)
    assert got.status == "optimal", got.status
    assert expect is not None
    assert got.total == pytest.approx(expect, rel=1e-6)


@pytest.mark.parametrize("seed", range(0, 20, 2))
def test_overload_keeps_online_vms(seed):
    # retention reward dominates: every online VM stays placed whenever
    # some all-online completion is feasible
    p, mp = build(seed, vs.OVERLOAD)
    sol = milp.solve_milp(mp)
    assert sol.status == "optimal"
    for vm in p.group.online:
        assert sol.placement[vm.id] is not None


@pytest.mark.parametrize("seed", range(1, 21, 2))
def test_underload_never_activates_offline(seed):
    p, mp = build(seed, vs.UNDERLOAD)
    sol = milp.solve_milp(mp)
    assert sol.status == "optimal"
    for vm in p.group.offline_pool:
        assert sol.placement[vm.id] is None
    # and the heavy retention charge shuts down all but the needed VMs
    kept = sum(1 for vm in p.group.online if sol.placement[vm.id] is not None)
    assert kept == p.v_star


def test_root_relaxation_bounds_milp():
    for seed in (0, 3, 5):
        p, mp = build(seed)
        root = lp.solve(mp.base)
        sol = milp.solve_milp(mp)
        assert root.objective_value <= sol.total + 1e-9


def test_solution_feasible_on_template():
    p, mp = build(4)
    sol = milp.solve_milp(mp)
    assert check_feasibility(mp.base, sol.point, tol=1e-6) == []
    # binaries integral
    for idx in mp.binaries:
        assert min(sol.point[idx], 1.0 - sol.point[idx]) <= 1e-6


def test_total_decomposes():
    """The total is the mode's activation charges minus its retention
    credits, plus the forwarding cost."""
    p, mp = build(6)
    sol = milp.solve_milp(mp)
    activate, retain = milp.PENALTIES[p.mode]
    assert sol.deployment_cost == activate * len(sol.launched) - retain * len(sol.kept)
    assert sol.total == pytest.approx(sol.deployment_cost + sol.forwarding_cost,
                                      rel=1e-9, abs=1e-7)


# branch-and-bound as it stands: node count, total and placement per
# instance.  A change to the node LPs (a warm start, say) that moves any of
# these is a behaviour change and has to say so.
BRANCH_AND_BOUND = [
    (0, 1, -19833.297375903294, {"vm1": pm(1), "vm2": pm(2), "off1": pm(4)}),
    (1, 1, 10070.376662132954, {"vm1": None, "vm2": pm(1), "off1": None}),
    (2, 1, -19983.94463832217, {"vm1": pm(1), "vm2": pm(2), "off1": pm(2)}),
    (4, 1, -19913.239896408344, {"vm1": pm(1), "vm2": pm(3), "off1": pm(4)}),
]


@pytest.mark.parametrize("seed, nodes, total, placement", BRANCH_AND_BOUND,
                         ids=["seed%d" % case[0] for case in BRANCH_AND_BOUND])
def test_branch_and_bound_is_pinned(seed, nodes, total, placement):
    sol = milp.solve_milp(build(seed)[1])
    assert sol.status == "optimal" and sol.proven
    assert sol.nodes == nodes
    assert sol.total == pytest.approx(total, rel=1e-9)
    assert sol.placement == placement


def test_budget_exhaustion_reported():
    # the k=2 corpus proves at the root; this group still branches once
    mp = milp.build_milp(underload_shape(4, 4, 3, 0))
    sol = milp.solve_milp(mp, budget=1)
    assert sol.proven is False
    assert sol.status in ("budget_exhausted", "optimal")
    assert sol.status == "budget_exhausted"


# the cover row against enumerations of the model without it: overload and
# underload k=2 groups, and underload groups that may shrink 3 VMs to 2
COVER_CASES = ([pytest.param(lambda s=s, m=m: k2_instance(s, m), id="%s-seed%d" % (m, s))
                for m in (vs.OVERLOAD, vs.UNDERLOAD) for s in range(10)]
               + [pytest.param(lambda s=s: underload_shape(2, 3, 2, s), id="3to2-seed%d" % s)
                  for s in range(6)])


@pytest.mark.parametrize("make", COVER_CASES)
def test_cover_row_removes_no_optimum(make):
    mp = milp.build_milp(make())
    uncut = without_rows(mp, "cover")
    assert uncut.base.num_rows == mp.base.num_rows - 1
    # no prefilter: its share-coverage count is the cover row itself
    expect, _ = enumerate_single_host(uncut, prefilter=False)
    got = milp.solve_milp(mp)
    assert got.status == "optimal" and got.proven
    assert got.total == pytest.approx(expect, rel=1e-9)


def test_cover_row_removes_no_optimum_of_every_bit_vector():
    # the literal sweep of test_full_bit_enumeration_small_instance, over
    # the model without the cover row
    p = k2_instance(7, vs.OVERLOAD)
    p.group.candidate_pms = [p.topology.pms[0], p.topology.pms[1]]
    mp = milp.build_milp(p)
    expect = enumerate_all_bits(without_rows(mp, "cover"))
    assert milp.solve_milp(mp).total == pytest.approx(expect, rel=1e-9)


@pytest.mark.parametrize("shape", [(2, 3, 2), (4, 4, 3)], ids=["k2-3to2", "k4-4to3"])
def test_underload_groups_prove_within_three_nodes(shape):
    # without the cover row these draws branch to 11-113 (k=2) and
    # 99-2,919 (k=4) nodes
    for seed in range(8):
        sol = milp.solve_milp(milp.build_milp(underload_shape(*shape, seed)))
        assert sol.proven and sol.nodes <= 3, (seed, sol.nodes)


def test_long_runs_without_the_cover_row_prove_the_optimum():
    """Without the cover row these k=2 draws branch for tens of nodes,
    past the every-16-nodes best-bound re-sort of the open list, and
    still prove the optimum the enumeration finds."""
    nodes = []
    for seed in range(8):
        uncut = without_rows(milp.build_milp(underload_shape(2, 3, 2, seed)), "cover")
        sol = milp.solve_milp(uncut)
        expect, _ = enumerate_single_host(uncut, prefilter=False)
        assert sol.proven, seed
        assert sol.total == pytest.approx(expect, rel=1e-9), seed
        nodes.append(sol.nodes)
    assert max(nodes) > 16, nodes


def test_tied_underload_lands_on_the_model_order_vertex():
    # keeping vm1 or vm3 beside vm4 on P54 costs the same; with the rows
    # in model order the dual simplex keeps vm3
    sol = milp.solve_milp(milp.build_milp(underload_shape(8, 4, 2, 10)))
    assert sol.proven and sol.nodes == 2
    assert sol.total == pytest.approx(44888.26248257102, rel=1e-12)
    assert {j: vs.pm_name(q) for j, q in sol.kept.items()} == {"vm3": "P54",
                                                               "vm4": "P54"}
    assert set(sol.terminated) == {"vm1", "vm2"}


def test_deployment_cost_examples():
    # overload credits each kept VM and charges launches little; underload
    # prices launches out and charges each kept VM
    assert milp.PENALTIES == {vs.OVERLOAD: (10.0, 1e4), vs.UNDERLOAD: (1e6, -1e4)}
    p, mp = build(0, vs.OVERLOAD)
    # both online VMs kept at their hosts and off1 launched on P1
    point = np.zeros(mp.base.num_vars)
    for j, q in (("vm1", p.group.online[0].host), ("vm2", p.group.online[1].host),
                 ("off1", pm(1))):
        point[mp.b_idx[(q, j)]] = 1.0
    assert milp._decode(mp, point, 0.0, 1, True).deployment_cost == 10.0 - 2e4
    # one online VM dropped: 10 - 1e4
    point[mp.b_idx[(p.group.online[1].host, "vm2")]] = 0.0
    assert milp._decode(mp, point, 0.0, 1, True).deployment_cost == 10.0 - 1e4
    # underload: keeping one VM costs 1e4, nothing placed costs 0
    p, mp = build(1, vs.UNDERLOAD)
    point = np.zeros(mp.base.num_vars)
    point[mp.b_idx[(p.group.online[0].host, "vm1")]] = 1.0
    assert milp._decode(mp, point, 0.0, 1, True).deployment_cost == 1e4
    assert milp._decode(mp, np.zeros(mp.base.num_vars), 0.0, 1, True) \
        .deployment_cost == 0.0


def test_empty_group_rejected():
    p = k2_instance(0)
    p.group.online = []
    with pytest.raises(ValueError):
        milp.build_milp(p)


def test_relaxation_consistency_with_central_lp():
    """Fixing online hosts and zeroing the deployment penalties, the
    relaxed overload model can never cost more than the exact one."""
    for seed in (0, 2, 8):
        p = k2_instance(seed, vs.OVERLOAD)
        mp = milp.build_milp(p)
        for i in mp.binaries:
            mp.base.objective[i] = 0.0
        for vm in p.group.online:
            for q in p.topology.pms:
                idx = mp.b_idx[(q, vm.id)]
                lo = 1.0 if q == vm.host else 0.0
                mp.base.lower[idx] = lo
                mp.base.upper[idx] = lo
        sol = milp.solve_milp(mp)
        assert sol.status == "optimal"
        relaxed = vs.ScalingProblem(
            topology=p.topology, group=p.group, traffic=p.traffic,
            v_star=len(p.group.online) + len(p.group.offline_pool),
            mode=vs.OVERLOAD, pm_capacity=p.pm_capacity)
        lp_sol = lp.solve(vs.build_overload_lp(relaxed))
        assert lp_sol.status == lp.OPTIMAL
        assert lp_sol.objective_value <= sol.forwarding_cost + 1e-7


def test_placement_and_flow_tables():
    p, mp = build(3)
    sol = milp.solve_milp(mp)
    lines = vs.decision_csv(sol).splitlines()
    assert lines[0] == "instance,action,host,share,e_at_host"
    placed = {j: q for j, q in sol.placement.items() if q is not None}
    rows = [line.split(",") for line in lines[1:]
            if line.split(",")[1] != "terminate"]
    assert sorted(r[0] for r in rows) == sorted(placed)
    for vm_id, action, host, share, e_at_host in rows:
        assert action == ("keep" if vm_id in sol.kept else "launch")
        assert host == vs.pm_name(placed[vm_id])
        assert float(e_at_host) == 1.0
    flows = vs.flows_csv(p, sol)
    assert flows.splitlines()[0] == "from,to,instance,flow,value"


# -- exactness against the flow MILP ---------------------------------------------

def reference_point(p, sol):
    """A MILP decision as a point of `reference_flow_milp(p)`: its
    binaries b, its shares and its routed flows.  Returns (reference
    problem, point)."""
    ref = reference_flow_milp(p)
    x = np.zeros(ref.base.num_vars)
    for k, i in ref.b_idx.items():
        x[i] = sol.e[k]
    for k, i in ref.alpha_idx.items():
        x[i] = sol.alpha[k]
    for flows, index in zip(scaling.route_flows(p, sol.split),
                            (ref.fv.n_idx, ref.fv.m_idx)):
        for k, val in flows.items():
            x[index[k]] = val
    return ref, x


def joint_migration_problem():
    sc = vs.load_scenario(os.path.join(SCEN_DIR, "joint_migration_k2.scn"))
    return vs.scenario._problem_for(sc, vs.classify_group(sc.group))


EXACT_CASES = [pytest.param(lambda s=s, m=m: k2_instance(s, m), id="%s-seed%d" % (m, s))
               for m in (vs.OVERLOAD, vs.UNDERLOAD) for s in range(10)]
EXACT_CASES.append(pytest.param(joint_migration_problem, id="joint_migration_k2"))


@pytest.mark.parametrize("make", EXACT_CASES)
def test_decisions_are_exact_in_the_flow_milp(make):
    """The decision, lifted into the flow MILP, is feasible within
    1e-9 * max(1, T) and prices to that model's branch-and-bound optimum
    within 1e-9."""
    p = make()
    sol = milp.solve_milp(milp.build_milp(p))
    assert sol.status == "optimal"
    ref, x = reference_point(p, sol)
    model = ref.base
    tol = 1e-9 * max(1.0, p.traffic)
    assert check_feasibility(model, x, tol=tol) == []
    assert np.all(x >= np.array(model.lower) - tol)
    assert np.all(x <= np.array(model.upper) + tol)
    want = milp.solve_milp(ref)
    assert want.status == "optimal"
    assert export(model).c @ x == pytest.approx(want.total, rel=1e-9, abs=1e-9)
    assert sol.total == pytest.approx(want.total, rel=1e-9, abs=1e-9)

import numpy as np
import pytest

import vnfscale as vs
from vnfscale import lp, milp, scaling

from corpus import k2_instance, pm, tree4, capacity, scenario1, problem
from oracle import enumerate_single_host, enumerate_all_bits


def build(seed, mode=None):
    p = k2_instance(seed, mode)
    return p, milp.build_milp(p)


def test_binary_grid_size():
    p, mp = build(0)
    # 4 PMs x (2 online + 1 offline) VMs
    assert len(mp.binaries) == 12
    assert len(mp.alpha_idx) == 12


def test_variable_count_reference():
    # small tree with 3 VMs lands near the published reference size (120)
    p, mp = build(0)
    assert 100 <= mp.base.num_vars <= 150
    # and grows monotonically with the tree
    big = problem(tree4(), scenario1(), 400.0, 4, vs.OVERLOAD)
    mp4 = milp.build_milp(big)
    assert mp4.base.num_vars > mp.base.num_vars


def test_zero_point_violates_coverage_by_one():
    p, mp = build(1)
    zeros = np.zeros(mp.base.num_vars)
    bad = lp.check_feasibility(mp.base, zeros)
    cover = [v for v in bad if v.label == "coverage"]
    assert len(cover) == 1 and cover[0].amount == pytest.approx(-1.0)


def test_unit_gamma_balances_endpoints():
    p, mp = build(2, vs.OVERLOAD)
    p.group.gamma = 1.0
    mp = milp.build_milp(p)
    sol = milp.solve_milp(mp)
    assert sol.status == "optimal"
    total_out = sum(v for (i, j, d), v in sol.flows_m.items()
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
        bounds = list(zip(mp.base.lower, mp.base.upper))
        for (qq, j), idx in mp.b_idx.items():
            bounds[idx] = (1.0, 1.0) if qq == q else (0.0, 0.0)
        sol = lp.solve(mp.base, bounds_override=bounds)
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
    assert lp.check_feasibility(mp.base, sol.point, tol=1e-6) == []
    # binaries integral
    for idx in mp.binaries:
        assert min(sol.point[idx], 1.0 - sol.point[idx]) <= 1e-6


def test_total_decomposes():
    p, mp = build(6)
    sol = milp.solve_milp(mp)
    w = p.weights
    assert sol.total == pytest.approx(
        w.deployment * sol.deployment_cost + w.forwarding * sol.forwarding_cost,
        rel=1e-9, abs=1e-7)


def test_budget_exhaustion_reported():
    p, mp = build(0)
    sol = milp.solve_milp(mp, budget=1)
    assert sol.proven is False
    assert sol.status in ("budget_exhausted", "optimal")
    assert sol.status == "budget_exhausted"


def test_deployment_cost_examples():
    pen = scaling.Penalties(activate=100.0, retain=5.0)
    online = ["vm1", "vm2"]
    # all online kept, nothing activated
    cost = milp.deployment_cost({"vm1": pm(1), "vm2": pm(2)}, pen, online)
    assert cost == pytest.approx(-10.0)
    # one activation, one online dropped of two
    cost = milp.deployment_cost({"vm1": pm(1), "vm2": None, "off1": pm(3)},
                                pen, online)
    assert cost == pytest.approx(95.0)
    # underload-style negative retention: keeping costs
    pen = scaling.Penalties(activate=1e6, retain=-1e4)
    cost = milp.deployment_cost({"vm1": pm(1)}, pen, online)
    assert cost == pytest.approx(1e4)


def test_empty_group_rejected():
    p = k2_instance(0)
    p.group.online = []
    with pytest.raises(ValueError):
        milp.build_milp(p)


def test_relaxation_consistency_with_central_lp():
    """Fixing online hosts and zeroing deployment weight, the relaxed
    overload model can never cost more than the exact one."""
    for seed in (0, 2, 8):
        p = k2_instance(seed, vs.OVERLOAD)
        p.weights = scaling.Weights(deployment=0.0, forwarding=1.0)
        mp = milp.build_milp(p)
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
    table = milp.placement_table(sol)
    assert table.splitlines()[0] == "vm,host,share"
    assert len(table.splitlines()) == 4
    flows = vs.flows_csv(sol)
    assert flows.splitlines()[0] == "from,to,instance,flow,value"

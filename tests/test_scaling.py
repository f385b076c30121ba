import dataclasses
import importlib.util
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vnfscale as vs
from vnfscale import lp, milp, scaling, scenario
from vnfscale.topology import PM, TOR, AGG, NodeId, forwarding_cost, source_distances, \
    source_route

from corpus import U, pm, tree4, capacity, group, scenario1, scenario3, scenario4, \
    problem, solve_decoded, k2_instance, admm_fixture, flow_violations
from oracle import check_feasibility, export, forwarding_cost_of, \
    reference_baseline_cost, reference_relaxation, reference_shortest_path_tree, \
    row_dicts


@pytest.fixture(scope="module")
def topo():
    return tree4()


# -- worked scenario decisions ----------------------------------------------

def test_scenario1_two_extra_vms(topo):
    p = problem(topo, scenario1(), 400.0, 4, vs.OVERLOAD, baseline=200.0)
    sol, dec = solve_decoded(p)
    hosts = sorted(dec.launched.values(), key=topo.node_position)
    assert hosts == [pm(1), pm(4)]
    assert (dec.forwarding_cost - p.baseline_cost) / p.baseline_cost > 0
    assert dec.kept == {"vm1": pm(2), "vm2": pm(5)}
    assert not dec.terminated


def test_scenario1_one_extra_vm(topo):
    p = problem(topo, scenario1(), 300.0, 3, vs.OVERLOAD, baseline=200.0)
    sol, dec = solve_decoded(p)
    assert list(dec.launched.values()) == [pm(4)]
    assert (dec.forwarding_cost - p.baseline_cost) / p.baseline_cost > 0


def test_scenario1_underload_terminates_cross_pod_vm(topo):
    p = problem(topo, scenario1([0.25, 0.20]), 100.0, 1, vs.UNDERLOAD,
                baseline=200.0)
    sol, dec = solve_decoded(p)
    assert dec.terminated == {"vm2": pm(5)}
    assert dec.kept == {"vm1": pm(2)}
    assert (dec.forwarding_cost - p.baseline_cost) / p.baseline_cost < 0


def test_scenario3_launches_cross_rack_pair(topo):
    p = problem(topo, scenario3(), 400.0, 4, vs.OVERLOAD, baseline=200.0)
    sol, dec = solve_decoded(p)
    hosts = sorted(dec.launched.values(), key=topo.node_position)
    assert hosts == [pm(3), pm(4)]
    assert (dec.forwarding_cost - p.baseline_cost) / p.baseline_cost > 0


def test_scenario3_underload_keeps_ingress_host(topo):
    p = problem(topo, scenario3([0.25, 0.20]), 100.0, 1, vs.UNDERLOAD,
                baseline=200.0)
    sol, dec = solve_decoded(p)
    assert dec.kept == {"vm1": pm(1)}
    assert dec.terminated == {"vm2": pm(2)}
    assert (dec.forwarding_cost - p.baseline_cost) / p.baseline_cost < 0


def test_scenario4_launches_egress_host(topo):
    p = problem(topo, scenario4(), 400.0, 4, vs.OVERLOAD, baseline=800.0 / 3)
    sol, dec = solve_decoded(p)
    assert list(dec.launched.values()) == [pm(2)]
    assert (dec.forwarding_cost - p.baseline_cost) / p.baseline_cost > 0


def test_scenario4_underload_keeps_cheapest_host(topo):
    p = problem(topo, scenario4([0.2, 0.2, 0.2]), 100.0, 1, vs.UNDERLOAD,
                baseline=800.0 / 3)
    sol, dec = solve_decoded(p)
    assert dec.kept == {"vm1": pm(3)}
    assert sorted(dec.terminated) == ["vm2", "vm3"]
    assert (dec.forwarding_cost - p.baseline_cost) / p.baseline_cost < 0


# -- model structure ---------------------------------------------------------

def test_no_binaries_and_no_bandwidth_rows(topo):
    p = problem(topo, scenario1(), 400.0, 4, vs.OVERLOAD)
    model = vs.build_overload_lp(p)
    labels = [row[3] for row in row_dicts(model)]
    assert not any(lbl.startswith("bandwidth") for lbl in labels)
    # every variable is continuous with simple bounds; hi == 0 marks flow
    # arcs a leg can never use (wrong-direction PM endpoints)
    for lo, hi in zip(model.lower, model.upper):
        assert lo == 0.0 and (hi in (0.0, 1.0, math.inf)
                              or hi == pytest.approx(0.25))


def test_alpha_bounded_by_share_cap(topo):
    g = scenario1()
    p = problem(topo, g, 400.0, 4, vs.OVERLOAD)
    # utilization bound: u/(omega*T) = 100/400
    assert p.share_cap == pytest.approx(0.25)
    tight = vs.ScalingProblem(topology=topo, group=g, traffic=150.0, v_star=2,
                              mode=vs.OVERLOAD, pm_capacity=capacity(topo))
    assert tight.share_cap == pytest.approx(100.0 / 150.0)


def test_phi_caps_share_when_tighter(topo):
    g = scenario1()
    g.phi = 0.3
    p = problem(topo, g, 200.0, 4, vs.OVERLOAD)
    assert p.share_cap == pytest.approx(0.3)


def test_candidates_filtered_by_free_capacity(topo):
    p = problem(topo, scenario1(), 400.0, 4, vs.OVERLOAD)
    cands = list(p.launch_slots)
    # occupied PMs offer no free slot, so they drop out of the all-PM set
    assert pm(2) not in cands and pm(5) not in cands
    assert pm(1) in cands and pm(4) in cands and len(cands) == 14
    assert cands == sorted(cands, key=topo.node_position)
    assert set(p.launch_slots.values()) == {1}
    assert p.launch_slots is p.launch_slots


@pytest.mark.parametrize("cap, u", [(3 * U, U), (0.3, 0.1), (3 * U - 1e-13, U)],
                         ids=["exact", "float error", "inside tolerance"])
def test_a_pm_at_the_edge_is_a_launch_pm_with_one_slot(topo, cap, u):
    # two VMs leave one VM's room: exactly, short by float error (0.3 -
    # 2*0.1 is 0.09999999999999998) or short by less than 1e-12
    g = group("c", [pm(2), pm(2)], 1.0, pm(1), pm(4), [pm(2)])
    for vm in g.online + g.offline_pool:
        vm.capacity["cpu"] = u
    p = vs.ScalingProblem(topology=topo, group=g, traffic=u, v_star=3,
                          mode=vs.OVERLOAD, pm_capacity=capacity(topo, cap))
    assert u - 1e-12 <= p.free_by_index["cpu"][pm(2).index] <= u
    assert p.launch_slots == {pm(2): 1}
    slots, _ = scaling._placement_slots(p)
    assert slots[-1].candidates == (pm(2),)


def test_degenerate_no_new_instances(topo):
    p = problem(topo, scenario1(), 200.0, 2, vs.OVERLOAD)
    sol, dec = solve_decoded(p)
    assert dec.launched == {}
    assert dec.kept == {"vm1": pm(2), "vm2": pm(5)}
    # pure re-routing: cost is share-capped optimal split between the hosts
    assert dec.forwarding_cost == pytest.approx(200.0 * (0.5 * 95 + 0.5 * 315))


def test_infeasible_by_construction_flagged(topo):
    g = scenario1()
    g.candidate_pms = []
    p = problem(topo, g, 400.0, 4, vs.OVERLOAD)
    with pytest.raises(scaling.ModelInfeasibleError):
        vs.build_overload_lp(p)
    # v_star below what the share cap can cover
    bad = vs.ScalingProblem(topology=topo, group=scenario1(), traffic=500.0,
                            v_star=3, mode=vs.OVERLOAD,
                            pm_capacity=capacity(topo))
    with pytest.raises(scaling.ModelInfeasibleError):
        vs.build_overload_lp(bad)


def test_mode_and_v_star_validated(topo):
    with pytest.raises(ValueError):
        vs.ScalingProblem(topology=topo, group=scenario1(), traffic=400.0,
                          v_star=1, mode=vs.OVERLOAD)  # below |V|
    with pytest.raises(ValueError):
        vs.ScalingProblem(topology=topo, group=scenario1(), traffic=100.0,
                          v_star=3, mode=vs.UNDERLOAD)  # above |V|
    with pytest.raises(ValueError):
        vs.ScalingProblem(topology=topo, group=scenario1(), traffic=100.0,
                          v_star=1, mode="sideways")
    with pytest.raises(ValueError, match="baseline traffic"):
        vs.ScalingProblem(topology=topo, group=scenario1(), traffic=100.0,
                          v_star=2, mode=vs.OVERLOAD, baseline_traffic=-1)
    p = problem(topo, scenario1(), 100.0, 1, vs.UNDERLOAD)
    with pytest.raises(ValueError):
        vs.build_overload_lp(p)


@pytest.mark.parametrize("fields, message", [
    ({"traffic": -1.0}, "traffic must be nonnegative"),
    ({"traffic": math.nan}, "traffic must be nonnegative"),
    ({"baseline_traffic": math.nan}, "baseline traffic must be nonnegative"),
    ({"v_star": 0}, "v_star must be at least 1"),
    ({"v_star": 0, "mode": vs.UNDERLOAD}, "v_star must be at least 1"),
    ({"group": {"ingress_pms": []}}, "ingress and egress PM sets must be nonempty"),
    ({"group": {"egress_pms": []}}, "ingress and egress PM sets must be nonempty"),
], ids=["traffic_negative", "traffic_nan", "baseline_traffic_nan", "v_star_zero",
        "v_star_zero_underload", "ingress_empty", "egress_empty"])
def test_problem_input_checks_name_the_fault(topo, fields, message):
    fields = dict(fields)
    g = dataclasses.replace(scenario1(), **fields.pop("group", {}))
    with pytest.raises(ValueError, match="^%s$" % message):
        vs.ScalingProblem(**{"topology": topo, "group": g, "traffic": 400.0,
                             "v_star": 3, "mode": vs.OVERLOAD, **fields})


def test_underload_model_of_an_overload_problem_is_refused(topo):
    p = problem(topo, scenario1(), 400.0, 3, vs.OVERLOAD)
    with pytest.raises(ValueError, match="^problem is not in underload mode$"):
        vs.build_underload_lp(p)


# -- conservation and share invariants ---------------------------------------

def every_optimal_decision(topo):
    cases = [
        problem(topo, scenario1(), 400.0, 4, vs.OVERLOAD),
        problem(topo, scenario1(), 300.0, 3, vs.OVERLOAD),
        problem(topo, scenario1(), 100.0, 1, vs.UNDERLOAD),
        problem(topo, scenario3(), 400.0, 4, vs.OVERLOAD),
        problem(topo, scenario3(), 100.0, 1, vs.UNDERLOAD),
        problem(topo, scenario4(), 400.0, 4, vs.OVERLOAD),
        problem(topo, scenario4(), 400.0 / 3, 2, vs.UNDERLOAD),
    ]
    for p in cases:
        yield (p,) + solve_decoded(p)


def test_flow_conservation_on_every_solution(topo):
    # the decision's own routed flows: switch conservation, PM processing
    # and the endpoint totals, per instance and leg
    for p, sol, dec in every_optimal_decision(topo):
        flows_n, flows_m = scaling.route_flows(p, dec.split)
        assert flows_n and flows_m
        assert flow_violations(p, dec) == []


def test_share_coverage_and_uniformity(topo):
    for p, sol, dec in every_optimal_decision(topo):
        assert sum(dec.shares.values()) == pytest.approx(1.0, abs=1e-8)
        slots, _ = scaling._placement_slots(p)
        for s in slots:
            total_e = sum(dec.e[(q, s.key)] for q in s.candidates)
            assert total_e == pytest.approx(dec.shares[s.key], abs=1e-8)


def placement_corpus():
    topo = tree4()
    yield "s1 over", problem(topo, scenario1(), 400.0, 4, vs.OVERLOAD)
    yield "s1 under", problem(topo, scenario1(), 100.0, 1, vs.UNDERLOAD)
    yield "s3 over", problem(topo, scenario3(), 400.0, 4, vs.OVERLOAD)
    yield "s3 under", problem(topo, scenario3(), 100.0, 1, vs.UNDERLOAD)
    yield "s4 over", problem(topo, scenario4(), 400.0, 4, vs.OVERLOAD)
    yield "s4 under", problem(topo, scenario4(), 400.0 / 3, 2, vs.UNDERLOAD)
    for seed in range(5):
        yield "k2 seed %d" % seed, k2_instance(seed)
    yield "admm", admm_fixture()


# placement_corpus cases whose central decision differs from the flow
# LP's at an exact tie: s3 over launches d3 on P4 and d4 on P3 (the flow
# LP the other way round), s4 under gives d1 0.75 and d2 0.25 (the flow
# LP 0.25 and 0.75), k2 seed 0 gives d1 0.229 and d2 0.385 (the flow LP
# 0.385 and 0.229).  The exactness check proves each of them optimal.
MOVED = {"s3 over", "s4 under", "k2 seed 0"}


@pytest.mark.parametrize("name,p", [pytest.param(name, p, id=name)
                                    for name, p in placement_corpus()])
def test_share_chain_matches_all_pairs_reference(name, p):
    """The central model reaches the all-pairs flow build's optimum and
    decodes to the same actions, or to a tied optimum; it has one share
    and one interest row per instance and no share chain."""
    build = vs.build_overload_lp if p.mode == vs.OVERLOAD else vs.build_underload_lp
    model, reference = build(p), reference_relaxation(p)
    got, want = lp.solve(model), lp.solve(reference)
    assert got.status == want.status == lp.OPTIMAL
    assert got.objective_value == pytest.approx(want.objective_value, rel=1e-9)
    dg, dw = vs.decode(model, got.point, p), vs.decode(reference, want.point, p)
    same = ((dg.kept, dg.launched, dg.terminated) == (dw.kept, dw.launched, dw.terminated)
            and dg.shares == pytest.approx(dw.shares, rel=1e-9, abs=1e-12))
    assert same != (name in MOVED)
    if not same:
        assert_exact(p, dg)

    def row_counts(model):
        chain, interest = {}, {}
        for label in model._labels:
            family, _, args = label[:-1].partition("[")
            if family == "alpha_eq":
                key = args.rsplit(",", 1)[1]
                chain[key] = chain.get(key, 0) + 1
            elif family == "interest":
                interest[args] = interest.get(args, 0) + 1
        return chain, interest

    keys = {s.key for s in model.layout.slots}
    chain, interest = row_counts(model)
    assert chain == {} and interest == dict.fromkeys(keys, 1)
    assert model._labels.count("coverage") == 1


# -- exactness against the flow LP ----------------------------------------------

def reference_point(p, dec):
    """A central decision as a point of `reference_relaxation(p)`: every
    share copy at the decision's share, e from the decision, the flows
    of its split routed by `route_flows` and each slack from its row's
    residual.
    Returns (model, point)."""
    model = reference_relaxation(p)
    lay = model.layout
    x = np.zeros(model.num_vars)
    for (_, key), i in lay.share_copies.items():
        x[i] = dec.shares[key]
    for k, i in lay.e_idx.items():
        x[i] = dec.e[k]
    for flows, index in zip(scaling.route_flows(p, dec.split),
                            (lay.fv.n_idx, lay.fv.m_idx)):
        for k, val in flows.items():
            x[index[k]] = val
    mats = export(model)
    col = mats.a.tocsc()
    residual = mats.a @ x - mats.b
    for _, first, keys in lay.slack_blocks:
        for i in range(first, first + len(keys)):
            (row,) = col.indices[col.indptr[i]:col.indptr[i + 1]]
            x[i] = -residual[row]
    return model, x


def assert_exact(p, dec):
    """The decision, lifted into the flow LP, is feasible within
    1e-9 * max(1, T) and prices to that LP's optimum within 1e-9."""
    model, x = reference_point(p, dec)
    tol = 1e-9 * max(1.0, p.traffic)
    assert check_feasibility(model, x, tol=tol) == []
    assert np.all(x >= np.array(model.lower) - tol)
    assert np.all(x <= np.array(model.upper) + tol)
    want = lp.solve(model)
    assert want.status == lp.OPTIMAL
    assert export(model).c @ x == pytest.approx(want.objective_value, rel=1e-9, abs=1e-9)
    assert dec.forwarding_cost == pytest.approx(want.objective_value, rel=1e-9, abs=1e-9)


def load_perfbench_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH_GEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def exactness_cases(tmp_dir):
    for name, p in shipped_problems():
        yield name, p
    yield from placement_corpus()
    for seed in range(10):
        for mode in (vs.OVERLOAD, vs.UNDERLOAD):
            yield "k2 seed %d %s" % (seed, mode), k2_instance(seed, mode)
    yield "admm fixture", admm_fixture()
    gen = load_perfbench_gen()
    for workload in sorted(gen.WORKLOADS):
        out_dir = os.path.join(tmp_dir, workload)
        os.makedirs(out_dir)
        for path in sorted({inst.path for inst in gen.generate(workload, 0, out_dir)}):
            sc = vs.load_scenario(path)
            state = vs.classify_group(sc.group)
            if state != vs.NORMAL:
                yield "%s %s" % (workload, os.path.basename(path)), \
                    vs.scenario._problem_for(sc, state)


def test_central_decisions_are_exact_in_the_flow_lp(tmp_path):
    names = []
    for name, p in exactness_cases(str(tmp_path)):
        _, dec = solve_decoded(p)
        assert_exact(p, dec)
        names.append(name)
    assert len(names) == len(set(names)) >= 60


@st.composite
def relaxation_problems(draw):
    k = draw(st.sampled_from([2, 4]), label="k")
    costs = draw(st.sampled_from([(10.0, 20.0, 40.0), (5.0, 0.0, 40.0),
                                  (0.0, 20.0, 0.0), (0.0, 0.0, 0.0)]), label="costs")
    topo = vs.build_fat_tree(k, pms_per_rack=2, layer_costs=costs)
    pms = topo.pms
    mode = draw(st.sampled_from([vs.OVERLOAD, vs.UNDERLOAD]), label="mode")
    hosts = draw(st.lists(st.sampled_from(pms), min_size=2, max_size=3, unique=True),
                 label="hosts")
    ingress = draw(st.lists(st.sampled_from(pms), min_size=1, max_size=3, unique=True),
                   label="ingress")
    egress = draw(st.lists(st.sampled_from(pms[::-1]), min_size=1, max_size=3,
                           unique=True), label="egress")
    both = draw(st.sampled_from(pms), label="ingress and egress")
    for ends in (ingress, egress):
        if both not in ends:
            ends.append(both)
    # candidates always include an ingress and an egress PM
    candidates = sorted(set(draw(st.lists(st.sampled_from(pms), min_size=1, max_size=4),
                                 label="candidates")) | {ingress[0], egress[0]},
                        key=topo.node_position)
    gamma = draw(st.sampled_from([0.5, 1.0, 2.0]), label="gamma")
    vms = [vs.VmInstance("vm%d" % i, "fw", "c", {"cpu": U}, host=h,
                         utilization={"cpu": 0.95 if mode == vs.OVERLOAD else 0.1})
           for i, h in enumerate(hosts)]
    g = vs.VnfGroup(chain="c", vnf_type="fw", online=vms,
                    offline_pool=[vs.VmInstance("off%d" % i, "fw", "c", {"cpu": U})
                                  for i in range(2)],
                    thresholds=vs.Thresholds.uniform(("cpu",)), gamma=gamma, phi=1.0,
                    omega={"cpu": 1.0}, ingress_pms=ingress, egress_pms=egress,
                    candidate_pms=candidates)
    if mode == vs.OVERLOAD:
        v_star = len(hosts) + draw(st.integers(1, 2), label="extra")
    else:
        v_star = draw(st.integers(1, len(hosts)), label="v*")
    traffic = v_star * U * draw(st.sampled_from([0.4, 0.75, 1.0]), label="load")
    pm_capacity = None
    if draw(st.booleans(), label="capacity rows"):
        pm_capacity = {"cpu": {q: draw(st.sampled_from([100.0, 150.0, 200.0]),
                                       label="cpu cap") for q in pms}}
    return vs.ScalingProblem(topology=topo, group=g, traffic=traffic, v_star=v_star,
                             mode=mode, pm_capacity=pm_capacity)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(relaxation_problems())
def test_central_decisions_are_exact_on_drawn_problems(p):
    build = vs.build_overload_lp if p.mode == vs.OVERLOAD else vs.build_underload_lp
    try:
        model = build(p)
    except scaling.ModelInfeasibleError:
        with pytest.raises(scaling.ModelInfeasibleError):
            reference_relaxation(p)
        return
    sol = lp.solve(model)
    if sol.status != lp.OPTIMAL:
        assert lp.solve(reference_relaxation(p)).status == sol.status
        return
    try:
        dec = vs.decode(model, sol.point, p)
    except scaling.DecodeError:
        # an instance with no interest left has no host; its point is
        # still routed and checked
        lay = model.layout
        e = {k: float(sol.point[i]) for k, i in lay.e_idx.items()}
        flows_n, flows_m = scaling.route_flows(p, e)
        dec = vs.ScalingDecision(
            e=e,
            shares={key: float(sol.point[i]) for key, i in lay.alpha_idx.items()},
            forwarding_cost=forwarding_cost_of(flows_n, flows_m, p.topology))
    assert_exact(p, dec)


def test_launched_plus_kept_equals_v_star(topo):
    for p, sol, dec in every_optimal_decision(topo):
        assert len(dec.launched) + len(dec.kept) == p.v_star


def test_pm_processing_ratio(topo):
    p = problem(topo, scenario1(), 400.0, 4, vs.OVERLOAD)
    sol, dec = solve_decoded(p)
    flows_n, flows_m = scaling.route_flows(p, dec.split)
    slots, _ = scaling._placement_slots(p)
    for s in slots:
        for q in topo.pms:
            n_in = sum(v for (_, j, d), v in flows_n.items() if j == q and d == s.key)
            m_out = sum(v for (i, _, d), v in flows_m.items() if i == q and d == s.key)
            assert m_out == pytest.approx(p.group.gamma * n_in, abs=1e-6)
            assert n_in == pytest.approx(p.traffic * dec.e.get((q, s.key), 0.0), abs=1e-6)


def test_ingress_egress_preference_at_unit_gamma(topo):
    # with gamma 1 and room on the gateway PMs, they win before any
    # cross-pod candidate
    g = vs.VnfGroup(chain="c", vnf_type="fw",
                    online=[vs.VmInstance("vm1", "fw", "c", {"cpu": U},
                                          host=pm(3), utilization={"cpu": 0.95})],
                    offline_pool=[vs.VmInstance("off%d" % i, "fw", "c", {"cpu": U})
                                  for i in range(4)],
                    thresholds=vs.Thresholds.uniform(("cpu",)), gamma=1.0,
                    phi=1.0, omega={"cpu": 1.0}, ingress_pms=[pm(1)],
                    egress_pms=[pm(4)], candidate_pms=[pm(1)] + [pm(i) for i in range(4, 17)])
    p = problem(topo, g, 300.0, 3, vs.OVERLOAD)
    sol, dec = solve_decoded(p)
    hosts = set(dec.launched.values())
    assert hosts == {pm(1), pm(4)}



# -- the closed form against Dijkstra ----------------------------------------

@st.composite
def path_problems(draw):
    """A problem on a drawn tree with drawn ingress and egress sets, and an
    interest split to route on it."""
    k = draw(st.sampled_from([2, 4, 6, 8, 12, 16]), label="k")
    ppr = draw(st.integers(1, 3), label="pms per rack")
    # with zero costs every tie is broken by position
    costs = draw(st.sampled_from([(10.0, 20.0, 40.0), (5.0, 0.0, 40.0),
                                  (0.0, 20.0, 0.0), (0.0, 0.0, 0.0),
                                  (0.1, 0.2, 0.3), (0.7, 1.3, 0.1),
                                  (1e-300, 0.0, 3.0)]), label="costs")
    topo = vs.build_fat_tree(k, pms_per_rack=ppr, layer_costs=costs)
    pms = topo.pms
    ends = draw(st.sampled_from(["one PM", "several PMs", "a PM at both ends"]),
                label="endpoints")
    size = 1 if ends == "one PM" else 3
    ingress = draw(st.lists(st.sampled_from(pms), min_size=1, max_size=size,
                            unique=True), label="ingress")
    egress = draw(st.lists(st.sampled_from(pms[::-1]), min_size=1, max_size=size,
                           unique=True), label="egress")
    if ends == "a PM at both ends":
        both = draw(st.sampled_from(pms), label="ingress and egress")
        for side in (ingress, egress):
            if both not in side:
                side.append(both)
    g = vs.VnfGroup(chain="c", vnf_type="fw",
                    online=[vs.VmInstance("vm1", "fw", "c", {"cpu": U}, host=pms[0],
                                          utilization={"cpu": 0.95})],
                    offline_pool=[vs.VmInstance("off1", "fw", "c", {"cpu": U})],
                    thresholds=vs.Thresholds.uniform(("cpu",)),
                    gamma=draw(st.sampled_from([0.5, 1.0, 1.25]), label="gamma"),
                    phi=1.0, omega={"cpu": 1.0}, ingress_pms=ingress,
                    egress_pms=egress, candidate_pms=list(pms))
    p = vs.ScalingProblem(topology=topo, group=g, traffic=150.0, v_star=2,
                          mode=vs.OVERLOAD)
    e = draw(st.dictionaries(st.tuples(st.sampled_from(pms), st.sampled_from(["d1", "d2"])),
                             st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1,
                             max_size=6), label="interests")
    return p, e


def routed_on(p, trees, e):
    """`scaling.route_flows` of the split e, walked down reference trees."""
    flows_n, flows_m = {}, {}
    for (q, d), val in e.items():
        if val > 0.0:
            n = p.traffic * val
            for i, j in trees[0].hops(q):
                flows_n[(j, i, d)] = flows_n.get((j, i, d), 0.0) + n
            for i, j in trees[1].hops(q):
                flows_m[(i, j, d)] = flows_m.get((i, j, d), 0.0) + p.group.gamma * n
    return flows_n, flows_m


@settings(max_examples=100, derandomize=True, deadline=None)
@given(path_problems())
def test_shortest_path_trees_match_the_reference(case):
    p, e = case
    topo = p.topology
    reference = tuple(reference_shortest_path_tree(topo, ends)
                      for ends in (p.group.ingress_pms, p.group.egress_pms))
    for ends, ref in zip((p.group.ingress_pms, p.group.egress_pms), reference):
        dist = source_distances(topo, ends)
        assert len(dist) == len(topo.pms)
        for q in topo.pms:
            assert repr(dist[q.index]) == repr(ref.dist[q])
            assert source_route(topo, ends, q) == ref.hops(q)
    flows = scaling.route_flows(p, e)
    assert routed_on(p, reference, e) == flows
    assert all(flows) == any(val > 0.0 for val in e.values())


def test_problem_caches_keep_their_values_and_errors(topo):
    g = scenario4()
    g.offline_pool[0].capacity["cpu"] = 60.0
    p = problem(topo, g, 300.0, 4, vs.OVERLOAD)
    assert p.group.vm_capacity("cpu") == 60.0
    assert [p.online_count(pm(i)) for i in range(1, 7)] == [0, 0, 1, 0, 1, 1]
    assert p.online_count(NodeId(TOR, 0)) == 0
    with pytest.raises(KeyError):
        p.group.vm_capacity("mem")

# -- decode behavior ---------------------------------------------------------

def test_decode_requires_optimal(topo):
    g = scenario1()
    g.candidate_pms = [pm(1)]
    p = problem(topo, g, 400.0, 4, vs.OVERLOAD)
    with pytest.raises(scaling.ModelInfeasibleError):
        vs.build_overload_lp(p)  # 2 new VMs, one candidate slot


def test_decode_zero_column_raises(topo):
    p = problem(topo, scenario1(), 400.0, 4, vs.OVERLOAD)
    model = vs.build_overload_lp(p)
    sol = lp.solve(model)
    layout = model.layout
    for s in layout.slots:
        if s.vm_id is None:
            for q in s.candidates:
                sol.point[layout.e_idx[(q, s.key)]] = 0.0
    with pytest.raises(scaling.DecodeError):
        vs.decode(model, sol.point, p)


def test_argmax_and_tie_rule(topo):
    p = problem(topo, scenario1(), 400.0, 4, vs.OVERLOAD)
    model = vs.build_overload_lp(p)
    sol = lp.solve(model)
    layout = model.layout
    new = [s for s in layout.slots if s.vm_id is None]
    # force one instance onto a clear winner, the other onto an exact tie
    for s in new:
        for q in s.candidates:
            sol.point[layout.e_idx[(q, s.key)]] = 0.0
    sol.point[layout.e_idx[(pm(7), new[0].key)]] = 0.7
    sol.point[layout.e_idx[(pm(6), new[0].key)]] = 0.2
    sol.point[layout.e_idx[(pm(9), new[1].key)]] = 0.5
    sol.point[layout.e_idx[(pm(10), new[1].key)]] = 0.5
    dec = vs.decode(model, sol.point, p)
    assert dec.launched[new[0].key] == pm(7)
    assert dec.launched[new[1].key] == pm(9)  # tie broken to lower index


def test_decode_respects_slot_supply(topo):
    # both new instances point at the same single-slot PM: the second
    # falls back to its runner-up and a warning is recorded
    p = problem(topo, scenario1(), 400.0, 4, vs.OVERLOAD)
    model = vs.build_overload_lp(p)
    sol = lp.solve(model)
    layout = model.layout
    new = [s for s in layout.slots if s.vm_id is None]
    for s in new:
        for q in s.candidates:
            sol.point[layout.e_idx[(q, s.key)]] = 0.0
        sol.point[layout.e_idx[(pm(7), s.key)]] = 0.6
        sol.point[layout.e_idx[(pm(8), s.key)]] = 0.4
    dec = vs.decode(model, sol.point, p)
    assert dec.launched[new[0].key] == pm(7)
    assert dec.launched[new[1].key] == pm(8)
    assert dec.warnings == ["instance %s displaced from P7 to P8 by slot supply"
                            % new[1].key]


def test_underload_same_pm_tie_keeps_lowest_vm_id(topo):
    g = scenario1()
    for vm in g.online:
        vm.host = pm(2)
        vm.utilization = {"cpu": 0.2}
    cap2 = vs.uniform_capacity(topo, {"cpu": 2 * U})
    p = vs.ScalingProblem(topology=topo, group=g, traffic=100.0, v_star=1,
                          mode=vs.UNDERLOAD, pm_capacity=cap2)
    sol, dec = solve_decoded(p)
    assert dec.kept == {"vm1": pm(2)}
    assert dec.terminated == {"vm2": pm(2)}


def test_share_below_epsilon_warns(topo):
    g = scenario1()
    p = vs.ScalingProblem(topology=topo, group=g, traffic=160.0, v_star=4,
                          mode=vs.OVERLOAD, pm_capacity=capacity(topo))
    sol, dec = solve_decoded(p)
    # cap 0.625 with 4 instances: the LP zeroes some shares entirely,
    # which decode must surface as warnings, not errors, naming each kept
    # VM by its id and a zero share as 0, never -0
    assert dec.warnings == ["instance %s share 0 below minimum collaboration 0.01"
                            % vm for vm in ("vm1", "vm2")]


# -- forwarding cost ----------------------------------------------------------

def test_forwarding_cost_examples(topo):
    n = {(NodeId(PM, 0), NodeId(TOR, 0), "d1"): 1.0}
    assert forwarding_cost_of(n, {}, topo) == pytest.approx(10.0)
    assert forwarding_cost_of({}, {}, topo) == 0.0
    path = {(NodeId(PM, 0), NodeId(TOR, 0), "d1"): 1.0,
            (NodeId(TOR, 0), NodeId(AGG, 0), "d1"): 1.0,
            (NodeId(AGG, 0), NodeId(TOR, 1), "d1"): 1.0,
            (NodeId(TOR, 1), NodeId(PM, 2), "d1"): 1.0}
    assert forwarding_cost_of(path, {}, topo) == pytest.approx(60.0)


def test_forwarding_cost_rejects_non_link(topo):
    bad = {(NodeId(PM, 0), NodeId(PM, 1), "d1"): 1.0}
    with pytest.raises(ValueError):
        forwarding_cost_of(bad, {}, topo)
    # also after a link seen twice
    link = (NodeId(PM, 0), NodeId(TOR, 0))
    bad = {link + ("d1",): 1.0, link + ("d2",): 2.0, (NodeId(PM, 0), NodeId(PM, 1), "d2"): 1.0}
    with pytest.raises(ValueError):
        forwarding_cost_of(bad, {}, topo)


def test_forwarding_cost_of_sums_every_flow_in_order(topo):
    # the walk over the wired reference's cost map is the same float sum
    # as one closed-form F(i,j) per flow, added in flow order
    p = problem(topo, scenario1(), 400.0, 4, vs.OVERLOAD)
    _, dec = solve_decoded(p)
    flows_n, flows_m = scaling.route_flows(p, dec.split)
    total = 0.0
    for flows in (flows_n, flows_m):
        for (i, j, _), val in flows.items():
            total += forwarding_cost(topo, i, j) * val
    assert forwarding_cost_of(flows_n, flows_m, topo) == total


def priced_decisions(topo):
    """(problem, decision) for the central decisions above, the k=2 MILP
    corpus and every shipped scenario that decides."""
    for p, _, dec in every_optimal_decision(topo):
        yield p, dec
    for seed in range(10):
        p = k2_instance(seed)
        yield p, milp.solve_milp(milp.build_milp(p))
    for name in sorted(os.listdir(SCEN_DIR)):
        path = os.path.join(SCEN_DIR, name)
        report = scenario.run_scenario(path)
        if report.decision is not None:
            sc = scenario.load_scenario(path)
            yield scenario._problem_for(sc, report.state), report.decision


def test_arc_walk_equals_the_unit_cost_price(topo):
    # each decision is priced T * sum of fraction * u(q) over its split;
    # walking its routed flows arc by arc gives the same cost
    checked = 0
    for p, dec in priced_decisions(topo):
        walk = forwarding_cost_of(*scaling.route_flows(p, dec.split), p.topology)
        assert dec.forwarding_cost == pytest.approx(walk, rel=1e-12, abs=0)
        checked += 1
    assert checked == 7 + 10 + 7


def test_decision_and_flow_csv(topo):
    p = problem(topo, scenario1(), 400.0, 4, vs.OVERLOAD, baseline=200.0)
    sol, dec = solve_decoded(p)
    table = vs.decision_csv(dec)
    assert table.splitlines()[0] == "instance,action,host,share,e_at_host"
    assert table.count("launch") == 2 and table.count("keep") == 2
    flows = vs.flows_csv(p, dec)
    assert flows.splitlines()[0] == "from,to,instance,flow,value"
    assert len(flows.splitlines()) > 4


def test_shares_sum_to_one_even_when_retention_pays():
    # loose share caps plus the retention credit would reward feeding the
    # online instances phantom traffic; only PMs on an ingress arc may
    # emit unprocessed flow, so the shares still settle on a partition
    p = k2_instance(6, vs.OVERLOAD)
    assert p.share_cap * p.v_star > 1.0 + 1e-9
    _, dec = solve_decoded(p)
    assert sum(dec.shares.values()) == pytest.approx(1.0, abs=1e-8)


# -- baseline pricing ----------------------------------------------------------

SCEN_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
PERFBENCH_GEN = os.path.join(os.path.dirname(__file__), "..", "perfbench", "gen.py")


def assert_baseline_matches_lp(p):
    """The priced baseline equals the solved pinned LP to 1e-9 relative,
    or both raise ModelInfeasibleError."""
    try:
        want = reference_baseline_cost(p)
    except scaling.ModelInfeasibleError:
        with pytest.raises(scaling.ModelInfeasibleError):
            scaling.baseline_forwarding_cost(p)
        return None
    got = scaling.baseline_forwarding_cost(p)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
    return got


def shipped_problems():
    for name in sorted(os.listdir(SCEN_DIR)):
        if not name.endswith(".scn"):
            continue
        sc = vs.load_scenario(os.path.join(SCEN_DIR, name))
        state = vs.classify_group(sc.group)
        if state != vs.NORMAL:
            yield name, vs.scenario._problem_for(sc, state)


@pytest.mark.parametrize("p", [pytest.param(p, id=name)
                               for name, p in shipped_problems()])
def test_baseline_matches_lp_on_shipped_scenarios(p):
    assert assert_baseline_matches_lp(p) > 0


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(SCEN_DIR)
                                        if n.endswith(".scn")))
def test_unchanged_configuration_has_zero_cost_delta(name):
    """The overload problem at the baseline traffic with v* = |V| keeps
    every VM where it is, and the decision the lp solver makes of it
    prices to the baseline: its cost delta is zero."""
    sc = vs.load_scenario(os.path.join(SCEN_DIR, name))
    p = vs.ScalingProblem(topology=sc.topology, group=sc.group, traffic=sc.baseline,
                          v_star=len(sc.group.online), mode=vs.OVERLOAD,
                          pm_capacity=sc.pm_capacity, baseline_traffic=sc.baseline)
    _, solve = vs.scenario.SOLVERS["lp"](p, None)
    dec, _, _ = solve()
    assert dec.forwarding_cost == pytest.approx(p.baseline_cost, rel=1e-9)


@pytest.mark.parametrize("load", [0.5, 0.9, 1.0])
@pytest.mark.parametrize("p", [pytest.param(p, id=name)
                               for name, p in placement_corpus()])
def test_baseline_matches_lp_on_corpus(p, load):
    online = p.group.online
    full = len(online) * p.group.vm_capacity("cpu") / p.group.omega["cpu"]
    assert_baseline_matches_lp(dataclasses.replace(p, baseline_traffic=load * full))


@pytest.mark.parametrize("tree", [
    pytest.param(vs.build_fat_tree(4, layer_costs=(0.0, 0.0, 0.0)), id="zero costs"),
    pytest.param(vs.build_fat_tree(4, layer_costs=(10.0, 0.0, 0.0)), id="zero upper layers"),
])
def test_baseline_matches_lp_off_the_default_tree(tree):
    for g, base in ((scenario1(), 200.0), (scenario3(), 200.0), (scenario4(), 800.0 / 3)):
        p = problem(tree, g, 1.5 * base, len(g.online) + 1, vs.OVERLOAD, baseline=base)
        cost = assert_baseline_matches_lp(p)
        assert (cost == 0.0) == (tree.layer_costs[0] == 0.0)


def test_overfull_baseline_is_infeasible_for_both(topo):
    # two VMs share a PM that serves 150 units: their share caps cover a
    # baseline of 180, the PM's capacity row does not
    g = group("c", [pm(2), pm(2)], 1.0, pm(1), pm(4), [pm(i) for i in range(1, 17)])
    p = vs.ScalingProblem(topology=topo, group=g, traffic=190.0, v_star=2,
                          mode=vs.OVERLOAD, pm_capacity=capacity(topo, 150.0),
                          baseline_traffic=180.0)
    assert p.share_cap * 2 >= 1.0
    with pytest.raises(scaling.ModelInfeasibleError):
        reference_baseline_cost(p)
    with pytest.raises(scaling.ModelInfeasibleError,
                       match="^baseline configuration is infeasible$"):
        scaling.baseline_forwarding_cost(p)


def test_baseline_without_baseline_traffic_is_a_clear_error():
    p = k2_instance(0)
    assert p.baseline_traffic is None
    with pytest.raises(ValueError, match="no baseline traffic"):
        scaling.baseline_forwarding_cost(p)
    with pytest.raises(ValueError, match="no baseline traffic"):
        p.baseline_cost
    # the decision does not read the baseline, so a problem without one
    # still decides; only the relative delta needs the baseline
    _, dec = solve_decoded(p)
    assert math.isfinite(dec.forwarding_cost)
    with pytest.raises(ValueError, match="no baseline traffic"):
        (dec.forwarding_cost - p.baseline_cost) / p.baseline_cost


@st.composite
def baseline_problems(draw):
    k = draw(st.sampled_from([2, 4]), label="k")
    costs = draw(st.sampled_from([(10.0, 20.0, 40.0), (5.0, 0.0, 40.0),
                                  (0.0, 20.0, 0.0), (0.0, 0.0, 0.0)]), label="costs")
    topo = vs.build_fat_tree(k, pms_per_rack=2, layer_costs=costs)
    pms = topo.pms
    hosts = draw(st.lists(st.sampled_from(pms), min_size=2, max_size=4), label="hosts")
    ingress = draw(st.lists(st.sampled_from(pms), min_size=1, max_size=3, unique=True),
                   label="ingress")
    if draw(st.booleans(), label="ingress at a host") and hosts[0] not in ingress:
        ingress.append(hosts[0])
    # drawn from the far end, so the simplest draw is not all on one PM
    egress = draw(st.lists(st.sampled_from(pms[::-1]), min_size=1, max_size=3,
                           unique=True), label="egress")
    gamma = draw(st.sampled_from([0.5, 0.8, 1.0, 1.25, 2.0]), label="gamma")
    phi = draw(st.sampled_from([0.6, 1.0]), label="phi")
    mem = draw(st.sampled_from([0.0, 0.5, 2.0]), label="omega mem")
    thr = vs.Thresholds.uniform(("cpu", "mem"))
    vm_cap = {"cpu": U, "mem": 2 * U}
    vms = [vs.VmInstance("vm%d" % i, "fw", "c", dict(vm_cap), host=h,
                         utilization={"cpu": 0.95, "mem": 0.5})
           for i, h in enumerate(hosts)]
    g = vs.VnfGroup(chain="c", vnf_type="fw", online=vms,
                    offline_pool=[vs.VmInstance("off", "fw", "c", dict(vm_cap))],
                    thresholds=thr, gamma=gamma, phi=phi,
                    omega={"cpu": 1.0, "mem": mem}, ingress_pms=ingress,
                    egress_pms=egress, candidate_pms=list(pms))
    caps = draw(st.sampled_from(["none", "cpu", "cpu mem"]), label="capped")
    pm_capacity = None
    if caps != "none":
        pm_capacity = {r: {q: float(draw(st.sampled_from([150, 100, 250, 40, 400]),
                                         label="%s cap" % r))
                           for q in pms}
                       for r in caps.split()}
    base = float(draw(st.integers(10, 100 * len(hosts)), label="baseline"))
    return vs.ScalingProblem(topology=topo, group=g, traffic=base,
                             v_star=len(hosts), mode=vs.OVERLOAD,
                             pm_capacity=pm_capacity, baseline_traffic=base)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(baseline_problems())
def test_baseline_matches_lp_on_drawn_problems(p):
    assert_baseline_matches_lp(p)


def test_uniform_capacity_reads_as_the_per_pm_table(topo):
    """Each resource maps every PM of the tree, and only those, to its
    one value, in a plain table a caller can copy and edit."""
    caps = vs.uniform_capacity(topo, {"cpu": 2, "mem": 0.5})
    assert {r: dict(c) for r, c in caps.items()} == \
        {r: dict.fromkeys(topo.pms, float(v)) for r, v in (("cpu", 2), ("mem", 0.5))}
    for q in (NodeId(PM, len(topo.pms)), NodeId(TOR, 0), "P1", 0):
        assert q not in caps["cpu"]
        with pytest.raises(KeyError):
            caps["cpu"][q]
    edited = caps["cpu"].copy()
    edited[topo.pms[0]] = 7.0
    assert edited[topo.pms[0]] == 7.0 and caps["cpu"][topo.pms[0]] == 2.0

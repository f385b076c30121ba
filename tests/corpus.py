"""Shared worked-scenario builders used across test modules.

Parameter scheme: every VM serves u = 100 units of traffic per resource
unit of omega, every PM offers exactly one VM worth of capacity, and the
baseline traffic loads the online VMs exactly full. Overload events scale
traffic by 1 + 0.5 per extra VM, underload events halve it, so event
share vectors are forced to exactly 1/v*.
"""

import vnfscale as vs

U = 100.0


def pm(i):
    """1-based PM label (the narrative numbers PMs from 1)."""
    return vs.NodeId(vs.PM, i - 1)


def tree4():
    return vs.build_fat_tree(4, pms_per_rack=2)


def capacity(topo, value=U):
    return vs.uniform_capacity(topo, {"cpu": value})


def group(chain, hosts, gamma, ingress, egress, candidates, utils=None,
          n_offline=8):
    utils = utils or [0.95] * len(hosts)
    thr = vs.Thresholds.uniform(("cpu",))
    vms = [vs.VmInstance("vm%d" % (i + 1), "fw", chain, {"cpu": U}, host=h,
                         utilization={"cpu": utils[i]})
           for i, h in enumerate(hosts)]
    pool = [vs.VmInstance("off%d" % i, "fw", chain, {"cpu": U})
            for i in range(n_offline)]
    return vs.VnfGroup(chain=chain, vnf_type="fw", online=vms,
                       offline_pool=pool, thresholds=thr, gamma=gamma,
                       phi=1.0, omega={"cpu": 1.0}, ingress_pms=[ingress],
                       egress_pms=[egress], candidate_pms=candidates)


def scenario1(utils=None):
    """ingress P1 -> VMs on (P2, P5) -> egress P4, gamma 1.25, all PMs
    are candidates. Baseline traffic 200."""
    return group("c1", [pm(2), pm(5)], 1.25, pm(1), pm(4),
                 [pm(i) for i in range(1, 17)], utils)


def scenario3(utils=None):
    """ingress P1 -> VMs on (P1, P2) -> egress P2, gamma 0.8, candidates
    restricted to P3-P16. Baseline traffic 200."""
    return group("c3", [pm(1), pm(2)], 0.8, pm(1), pm(2),
                 [pm(i) for i in range(3, 17)], utils)


def scenario4(utils=None):
    """ingress P1 -> VMs on (P3, P5, P6) -> egress P2, gamma 1.0,
    candidates P2-P16. Baseline traffic 800/3."""
    return group("c4", [pm(3), pm(5), pm(6)], 1.0, pm(1), pm(2),
                 [pm(i) for i in range(2, 17)], utils)


def problem(topo, g, traffic, v_star, mode, baseline=None):
    return vs.ScalingProblem(topology=topo, group=g, traffic=traffic,
                             v_star=v_star, mode=mode,
                             pm_capacity=capacity(topo),
                             baseline_traffic=baseline)


def solve_decoded(p):
    from vnfscale import lp
    build = vs.build_overload_lp if p.mode == vs.OVERLOAD else vs.build_underload_lp
    model = build(p)
    sol = lp.solve(model)
    assert sol.status == lp.OPTIMAL, sol.status
    return sol, vs.decode(model, sol.point, p)


def k2_instance(seed, mode=None):
    """Randomized small-tree instance: 2 online VMs on distinct hosts plus
    one offline VM placeable anywhere, 12 placement binaries total."""
    import numpy as np
    rng = np.random.default_rng(seed)
    topo = vs.build_fat_tree(2, pms_per_rack=2)
    pms = topo.pms
    if mode is None:
        mode = vs.OVERLOAD if seed % 2 == 0 else vs.UNDERLOAD
    hosts = [pms[i] for i in rng.choice(4, size=2, replace=False)]
    ingress = pms[int(rng.integers(4))]
    egress = pms[int(rng.integers(4))]
    gamma = float(rng.uniform(0.5, 1.5))
    u = 1.0
    if mode == vs.OVERLOAD:
        traffic = float(rng.uniform(1.05, 2.95))
        utils = [float(rng.uniform(0.91, 0.99)) for _ in hosts]
    else:
        traffic = float(rng.uniform(0.3, 0.95))
        utils = [float(rng.uniform(0.05, 0.25)) for _ in hosts]
    thr = vs.Thresholds.uniform(("cpu",))
    vms = [vs.VmInstance("vm%d" % (i + 1), "fw", "c", {"cpu": u}, host=h,
                         utilization={"cpu": utils[i]})
           for i, h in enumerate(hosts)]
    pool = [vs.VmInstance("off1", "fw", "c", {"cpu": u})]
    g = vs.VnfGroup(chain="c", vnf_type="fw", online=vms, offline_pool=pool,
                    thresholds=thr, gamma=gamma, phi=1.0, omega={"cpu": 1.0},
                    ingress_pms=[ingress], egress_pms=[egress],
                    candidate_pms=list(pms))
    # every PM holds at least one VM, some hold two
    cap = {"cpu": {q: u * (1 + int(rng.random() < 0.5)) for q in pms}}
    v_star = vs.required_instances(g, traffic)
    if mode == vs.OVERLOAD:
        v_star = max(v_star, len(vms))
    return vs.ScalingProblem(topology=topo, group=g, traffic=traffic,
                             v_star=v_star, mode=mode, pm_capacity=cap)


def underload_shape(k, n_online, v_star, seed):
    """An underload group that may shrink n_online VMs to v_star on a k
    tree, drawn like the benchmark's exact-MILP groups: VMs of 100 cpu on
    distinct hosts, PMs of two VMs, every PM a candidate, one offline VM
    and traffic that needs exactly v_star VMs."""
    import numpy as np
    rng = np.random.default_rng(seed)
    topo = vs.build_fat_tree(k, pms_per_rack=2)
    pms = topo.pms
    hosts = [pms[i] for i in rng.choice(len(pms), size=n_online, replace=False)]
    ingress = pms[int(rng.integers(len(pms)))]
    egress = pms[int(rng.integers(len(pms)))]
    thr = vs.Thresholds.uniform(("cpu",))
    vms = [vs.VmInstance("vm%d" % (i + 1), "fw", "c", {"cpu": U}, host=h,
                         utilization={"cpu": float(rng.uniform(0.05, 0.29))})
           for i, h in enumerate(hosts)]
    pool = [vs.VmInstance("off1", "fw", "c", {"cpu": U})]
    g = vs.VnfGroup(chain="c", vnf_type="fw", online=vms, offline_pool=pool,
                    thresholds=thr, gamma=float(rng.uniform(0.8, 1.5)), phi=1.0,
                    omega={"cpu": 1.0}, ingress_pms=[ingress],
                    egress_pms=[egress], candidate_pms=list(pms))
    traffic = U * (v_star - 1 + float(rng.uniform(0.2, 0.9)))
    assert vs.required_instances(g, traffic) == v_star
    return vs.ScalingProblem(topology=topo, group=g, traffic=traffic,
                             v_star=v_star, mode=vs.UNDERLOAD,
                             pm_capacity=capacity(topo, 2 * U),
                             baseline_traffic=U * n_online * float(rng.uniform(0.6, 0.9)))


def admm_fixture():
    """Scenario-4 geometry scaled so four instances are needed at exactly
    a quarter share each: T=720 against per-VM capacity 180."""
    g = scenario4()
    for v in list(g.online) + list(g.offline_pool):
        v.capacity["cpu"] = 180.0
    return vs.ScalingProblem(topology=tree4(), group=g, traffic=720.0,
                             v_star=4, mode=vs.OVERLOAD, pm_capacity=None)


def flow_violations(p, dec, tol=1e-6):
    """(check, node, instance, amount) for every place where the flows of
    a decision's split, routed by `scaling.route_flows`, break switch
    conservation, PM processing (m out = gamma * n in) or the ingress and
    egress totals by more than tol."""
    topo = p.topology
    flows_n, flows_m = vs.scaling.route_flows(p, dec.split)
    into, out = {}, {}
    for leg, flows in (("n", flows_n), ("m", flows_m)):
        for (i, j, d), val in flows.items():
            out[(leg, i, d)] = out.get((leg, i, d), 0.0) + val
            into[(leg, j, d)] = into.get((leg, j, d), 0.0) + val
    keys = sorted({d for _, _, d in list(flows_n) + list(flows_m)})
    bad = []
    for d in keys:
        for sw in topo.switches:
            for leg in ("n", "m"):
                gap = into.get((leg, sw, d), 0.0) - out.get((leg, sw, d), 0.0)
                if abs(gap) > tol:
                    bad.append(("flow_" + leg, sw, d, gap))
        for q in topo.pms:
            gap = out.get(("m", q, d), 0.0) - p.group.gamma * into.get(("n", q, d), 0.0)
            if abs(gap) > tol:
                bad.append(("pm_proc", q, d, gap))
    for check, leg, ends, total, side in (
            ("ingress_total", "n", p.group.ingress_pms, p.traffic, out),
            ("egress_total", "m", p.group.egress_pms, p.traffic * p.group.gamma, into)):
        gap = sum(side.get((leg, q, d), 0.0) for q in ends for d in keys) - total
        if abs(gap) > tol:
            bad.append((check, None, None, gap))
    return bad

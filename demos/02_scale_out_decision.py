"""One service chain through the whole pipeline, twice.

A firewall group on the 4-fat-tree runs two instances at 95% load.
Traffic grows by half, the detector flags Overload, the relaxation
places the extra instances and prices the move.  Then the mirror case:
load collapses, Underload, and the model picks which instance dies.
"""

import vnfscale as vs
from vnfscale import lp


def pm(i):
    return vs.NodeId(vs.PM, i - 1)


def build_group(utils):
    u = 100.0
    vms = [vs.VmInstance("vm%d" % (i + 1), "fw", "c1", {"cpu": u}, host=h,
                         utilization={"cpu": utils[i]})
           for i, h in enumerate([pm(2), pm(5)])]
    pool = [vs.VmInstance("off%d" % i, "fw", "c1", {"cpu": u})
            for i in range(8)]
    return vs.VnfGroup(chain="c1", vnf_type="fw", online=vms,
                       offline_pool=pool,
                       thresholds=vs.Thresholds.uniform(("cpu",)),
                       gamma=1.25, phi=1.0, omega={"cpu": 1.0},
                       ingress_pms=[pm(1)], egress_pms=[pm(4)],
                       candidate_pms=[pm(i) for i in range(1, 17)])


def run(g, traffic, baseline):
    topo = vs.build_fat_tree(4, pms_per_rack=2)
    state = vs.classify_group(g)
    print("detected state: %s" % state)
    if state == vs.NORMAL:
        return
    v_star = vs.required_instances(g, traffic)
    if state == vs.OVERLOAD:
        v_star = max(v_star, len(g.online))
    else:
        v_star = min(v_star, len(g.online))
    print("instances required for T=%g: v* = %d" % (traffic, v_star))
    p = vs.ScalingProblem(topology=topo, group=g, traffic=traffic,
                          v_star=v_star, mode=state,
                          pm_capacity=vs.uniform_capacity(topo, {"cpu": 100.0}),
                          baseline_traffic=baseline)
    build = vs.build_overload_lp if state == vs.OVERLOAD else vs.build_underload_lp
    model = build(p)
    sol = lp.solve(model)
    if sol.status != lp.OPTIMAL:    # decode acts on an optimal point only
        print("the relaxation is %s" % sol.status)
        return
    dec = vs.decode(model, sol.point, p)
    print(vs.decision_table(dec), end="")
    delta = (dec.forwarding_cost - p.baseline_cost) / p.baseline_cost
    print("forwarding cost %.6g, %+.1f%% vs the baseline routing"
          % (dec.forwarding_cost, 100 * delta))


print("== traffic 200 -> 300, hosts hot ==")
run(build_group([0.95, 0.95]), 300.0, baseline=200.0)
print()
print("== traffic 200 -> 100, hosts idle ==")
run(build_group([0.25, 0.20]), 100.0, baseline=200.0)

"""Joint placement on a 2-fat-tree: exact branch-and-bound next to its
root relaxation, including a migration the relaxations cannot express.
The joint model holds a binary and a share per (PM, VM) pair; each share
is priced by its shortest-path cost, so it has no flow variable."""

import vnfscale as vs
from vnfscale import lp, milp

topo = vs.build_fat_tree(2, pms_per_rack=2)
pms = topo.pms
u = 1.0

# one hot VM on P2; room for a second instance anywhere
vms = [vs.VmInstance("vm1", "fw", "c", {"cpu": u}, host=pms[1],
                     utilization={"cpu": 0.95})]
pool = [vs.VmInstance("off1", "fw", "c", {"cpu": u})]
g = vs.VnfGroup(chain="c", vnf_type="fw", online=vms, offline_pool=pool,
                thresholds=vs.Thresholds.uniform(("cpu",)),
                gamma=1.0, phi=1.0, omega={"cpu": 1.0},
                ingress_pms=[pms[0]], egress_pms=[pms[0]],
                candidate_pms=[pms[2], pms[3]])
p = vs.ScalingProblem(topology=topo, group=g, traffic=1.5, v_star=2,
                      mode=vs.OVERLOAD,
                      pm_capacity={"cpu": {q: u for q in pms}})

mp = milp.build_milp(p)
print("joint model: %d binaries over %d variables, %d rows"
      % (len(mp.binaries), mp.base.num_vars, mp.base.num_rows))

root = lp.solve(mp.base)
sol = milp.solve_milp(mp)
print("root relaxation bound  %.6f" % root.objective_value)
print("branch-and-bound total %.6f  (proven: %s, %d nodes solved)"
      % (sol.total, sol.proven, sol.nodes))

print()
print("placement (the online VM is free to move here):")
for vm_id, q in sorted(sol.placement.items()):
    was = {v.id: v.host for v in vms}.get(vm_id)
    tag = ""
    if was is not None and q != was:
        tag = "  <- migrated from %s" % vs.pm_name(was)
    elif was is None and q is not None:
        tag = "  <- activated"
    print("  %-5s -> %s%s" % (vm_id, vs.pm_name(q) if q else "-", tag))

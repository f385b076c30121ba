"""Randomly permuted ADMM against the central optimum it chases.

Sets up the scale-out instance the acceptance runs use (three hot
instances, one slot to fill, no capacity rows), hands the central
relaxation itself to the distributed solver (its CSR lists with shares
and interests in traffic units and rows equilibrated, every block owned
by a PM agent; no second model is built), and
lets the per-variable sweep run for up to 25 rounds.  At primal_tol = 0
the run stops early only at an exact fixed point.  The trace prints as
objective gap plus the two slowest constraint families, then the agent
footprint is summarized.
"""

import vnfscale as vs
from vnfscale import lp, rpadmm


def pm(i):
    return vs.NodeId(vs.PM, i - 1)


u, T = 180.0, 720.0
vms = [vs.VmInstance("vm%d" % (i + 1), "fw", "c4", {"cpu": u}, host=h,
                     utilization={"cpu": 0.95})
       for i, h in enumerate([pm(3), pm(5), pm(6)])]
pool = [vs.VmInstance("off%d" % i, "fw", "c4", {"cpu": u}) for i in range(8)]
g = vs.VnfGroup(chain="c4", vnf_type="fw", online=vms, offline_pool=pool,
                thresholds=vs.Thresholds.uniform(("cpu",)),
                gamma=1.0, phi=1.0, omega={"cpu": 1.0},
                ingress_pms=[pm(1)], egress_pms=[pm(2)],
                candidate_pms=[pm(i) for i in range(2, 17)])
p = vs.ScalingProblem(topology=vs.build_fat_tree(4, pms_per_rack=2),
                      group=g, traffic=T, v_star=4, mode=vs.OVERLOAD,
                      pm_capacity=None)

central = lp.solve(vs.build_overload_lp(p))
print("central optimum: %.6g" % central.objective_value)

system = rpadmm.reformulate(p)
print("distributed system: %d scalar blocks, %d equality rows, "
      "%d messages per sweep"
      % (system.central.num_vars, system.central.num_rows,
         system.messages_per_sweep))

point, trace = rpadmm.run(system, rpadmm.AdmmConfig(beta=5.0, max_iters=25,
                                                    seed=0, primal_tol=0.0))
opt = central.objective_value
print()
print("%5s %12s %8s   worst families" % ("iter", "objective", "gap%"))
for r in trace.records:
    worst = sorted(r.violations.items(), key=lambda kv: -kv[1])[:2]
    print("%5d %12.1f %8.3f   %s"
          % (r.iteration, r.objective, 100 * abs(r.objective - opt) / opt,
             "  ".join("%s=%.3f" % kv for kv in worst)))

best = min(abs(o - opt) / opt for o in trace.objectives)
print()
print("best gap over the run: %.3f%%  (converged flag: %s)"
      % (100 * best, trace.converged))

kinds = {}
for agent in system.owners:
    kinds[agent.kind] = kinds.get(agent.kind, 0) + 1
print("blocks by owning agent kind: %s"
      % ", ".join("%s=%d" % kv for kv in sorted(kinds.items())))

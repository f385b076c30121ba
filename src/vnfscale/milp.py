"""Exact joint placement-and-routing model with binary placement.

Placement binaries b couple to traffic shares alpha through box rows
(eps*b <= alpha <= cap*b), every VM lands on at most one PM, PM resources
bound the placed VMs, and the full per-instance flow system routes the
traffic. Deployment cost charges activate per placed offline VM and
credits retain per kept online VM; forwarding cost prices the flows.

Solved by branch-and-bound on the binaries over LP relaxations: most
fractional variable first (ties to the lowest index), depth-first with a
best-bound re-sort of the open list every 16 nodes. Deterministic.
"""

import io
from dataclasses import dataclass, field

from . import lp, scaling
from .netflow import FlowNet
from .scaling import Penalties, Weights


@dataclass
class MilpProblem:
    """Built template: LP relaxation plus the binary index set."""

    base: lp.LpModel
    binaries: list              # variable indices of the b grid
    penalties: Penalties
    weights: Weights
    problem: object             # the originating ScalingProblem
    fv: FlowNet
    b_idx: dict                 # (PM, vm id) -> var index
    alpha_idx: dict             # (PM, vm id) -> var index
    online_ids: list
    offline_ids: list


@dataclass
class MilpSolution:
    status: str                 # optimal | budget_exhausted | infeasible
    proven: bool
    total: float = None
    placement: dict = field(default_factory=dict)   # vm id -> PM or None
    kept: dict = field(default_factory=dict)        # online vm id -> PM
    launched: dict = field(default_factory=dict)    # offline vm id -> PM
    terminated: dict = field(default_factory=dict)  # online vm id -> old host
    b: dict = field(default_factory=dict)           # (PM, vm id) -> 0 or 1
    alpha: dict = field(default_factory=dict)
    shares: dict = field(default_factory=dict)      # vm id -> carried share
    flows_n: dict = field(default_factory=dict)
    flows_m: dict = field(default_factory=dict)
    deployment_cost: float = None
    forwarding_cost: float = None
    nodes: int = 0
    point: object = None


def build_milp(p):
    """Assemble the joint model for a ScalingProblem's group and traffic.

    Online VMs may sit on (or migrate to) any PM; offline VMs only on the
    group's candidate PMs. One flow commodity per VM.
    """
    group = p.group
    if not group.online:
        raise ValueError("group has no online VM")
    topo = p.topology
    model = lp.LpModel("milp")
    fv = FlowNet(topo, group.ingress_pms, group.egress_pms)

    online_ids = [vm.id for vm in group.online]
    offline_ids = [vm.id for vm in group.offline_pool]
    keys = online_ids + offline_ids
    fv.add_flow_vars(model, keys)

    placeable = {}
    for vm in group.online:
        placeable[vm.id] = list(topo.pms)
    for vm in group.offline_pool:
        placeable[vm.id] = list(group.candidate_pms)

    cap = p.share_cap
    b_idx, alpha_idx, binaries = {}, {}, []
    for j in keys:
        for q in placeable[j]:
            b_idx[(q, j)] = model.add_var("b[%s,%s]" % (q, j), 0.0, 1.0)
            binaries.append(b_idx[(q, j)])
            alpha_idx[(q, j)] = model.add_var("alpha[%s,%s]" % (q, j), 0.0, cap)

    # objective: weighted deployment penalties plus forwarding cost
    w1, w2 = p.weights.deployment, p.weights.forwarding
    pen = p.penalties
    obj = {}
    for (q, j), idx in b_idx.items():
        obj[idx] = w1 * (pen.activate if j in set(offline_ids) else -pen.retain)
    model.add_objective(obj)
    model.add_objective(fv.objective_coeffs(w2))

    # share requires placement and placement requires a minimum share
    for (q, j), idx in alpha_idx.items():
        bi = b_idx[(q, j)]
        model.add_row({idx: 1.0, bi: -cap}, "<=", 0.0, "couple_hi[%s,%s]" % (q, j))
        model.add_row({bi: p.epsilon, idx: -1.0}, "<=", 0.0, "couple_lo[%s,%s]" % (q, j))

    model.add_row({idx: 1.0 for idx in alpha_idx.values()}, "=", 1.0, "coverage")

    # unprocessed arrivals at each PM match the share placed there
    for j in keys:
        for q in topo.pms:
            coeffs = fv.inflow("n", q, j)
            if (q, j) in alpha_idx:
                idx = alpha_idx[(q, j)]
                coeffs[idx] = coeffs.get(idx, 0.0) - p.traffic
            model.add_row(coeffs, "=", 0.0, "arrival[%s,%s]" % (q, j))

    # placed VMs must fit the PM's resources
    if p.pm_capacity is not None:
        members = {vm.id: vm for vm in list(group.online) + list(group.offline_pool)}
        for q in topo.pms:
            for r in p.resources:
                if r not in p.pm_capacity:
                    continue
                coeffs = {b_idx[(q, j)]: members[j].capacity[r]
                          for j in keys if (q, j) in b_idx}
                if coeffs:
                    model.add_row(coeffs, "<=", p.pm_capacity[r][q],
                                  "capacity[%s,%s]" % (q, r))

    for j in keys:
        coeffs = {b_idx[(q, j)]: 1.0 for q in placeable[j]}
        if coeffs:
            model.add_row(coeffs, "<=", 1.0, "one_host[%s]" % (j,))

    fv.add_switch_conservation(model)
    fv.add_pm_processing(model, group.gamma)
    fv.add_ingress_total(model, p.traffic)
    fv.add_egress_total(model, p.traffic, group.gamma)
    fv.add_bandwidth(model, topo.bandwidth)

    return MilpProblem(base=model, binaries=binaries, penalties=pen,
                       weights=p.weights, problem=p, fv=fv, b_idx=b_idx,
                       alpha_idx=alpha_idx, online_ids=online_ids,
                       offline_ids=offline_ids)


def deployment_cost(placement, penalties, online_ids):
    """Activation charges minus retention credits for a placement map
    (vm id -> PM or None)."""
    online = set(online_ids)
    total = 0.0
    for j, q in placement.items():
        if q is None:
            continue
        if j in online:
            total -= penalties.retain
        else:
            total += penalties.activate
    return total


def _decode(mp, point, total, nodes, proven):
    placement = {}
    b = {}
    for (q, j), idx in mp.b_idx.items():
        val = int(round(point[idx]))
        b[(q, j)] = val
        if val:
            placement[j] = q
    for j in mp.online_ids + mp.offline_ids:
        placement.setdefault(j, None)
    alpha = {k: float(point[i]) for k, i in mp.alpha_idx.items()}
    shares = {}
    for j in placement:
        shares[j] = sum(alpha[(q, j)] for q in mp.problem.topology.pms
                        if (q, j) in alpha)
    online = {vm.id: vm.host for vm in mp.problem.group.online}
    placed = {j: q for j, q in placement.items() if q is not None}
    flows_n, flows_m = mp.fv.flows_from_point(point)
    fwd = scaling.forwarding_cost_of(flows_n, flows_m, mp.problem.topology)
    dep = deployment_cost(placement, mp.penalties, mp.online_ids)
    return MilpSolution(
        status="optimal" if proven else "budget_exhausted", proven=proven,
        total=total, placement=placement,
        kept={j: q for j, q in placed.items() if j in online},
        launched={j: q for j, q in placed.items() if j not in online},
        terminated={j: host for j, host in online.items() if j not in placed},
        b=b, alpha=alpha, shares=shares, flows_n=flows_n, flows_m=flows_m,
        deployment_cost=dep, forwarding_cost=fwd, nodes=nodes, point=point)


def solve_milp(mp, budget=20000, int_tol=1e-6, tol=1e-8):
    """Branch-and-bound over the binaries. Within budget LP-solves the
    result is the proven optimum; past it the best incumbent is returned
    flagged non-proven."""
    model = mp.base
    base_bounds = list(zip(model.lower, model.upper))

    def node_bounds(fixed):
        bounds = list(base_bounds)
        for idx, val in fixed.items():
            bounds[idx] = (float(val), float(val))
        return bounds

    best_point, best_obj = None, float("inf")
    open_list = [(-float("inf"), {})]
    nodes = 0
    proven = True
    while open_list:
        if nodes >= budget:
            proven = False
            break
        parent_bound, fixed = open_list.pop()
        if parent_bound >= best_obj - 1e-9:
            continue
        nodes += 1
        sol = lp.solve(model, tol, bounds_override=node_bounds(fixed))
        if sol.status != lp.OPTIMAL:
            continue
        if sol.objective_value >= best_obj - 1e-9:
            continue
        frac = [(min(sol.point[i] - 0.0, 1.0 - sol.point[i]), i)
                for i in mp.binaries if i not in fixed]
        frac = [(f, i) for f, i in frac if f > int_tol]
        if not frac:
            best_obj = sol.objective_value
            best_point = sol.point
            continue
        dist, branch_var = max(frac, key=lambda t: (t[0], -t[1]))
        bound = sol.objective_value
        open_list.append((bound, {**fixed, branch_var: 0}))
        open_list.append((bound, {**fixed, branch_var: 1}))
        if nodes % 16 == 0:
            # keep the most promising nodes at the popping end
            open_list.sort(key=lambda t: t[0], reverse=True)

    if best_point is None:
        return MilpSolution(status="infeasible" if proven else "budget_exhausted",
                            proven=proven, nodes=nodes)
    return _decode(mp, best_point, best_obj, nodes, proven)


def placement_table(solution):
    """CSV: one row per VM with its host and carried share."""
    out = io.StringIO()
    out.write("vm,host,share\n")
    for j in sorted(solution.placement, key=str):
        q = solution.placement[j]
        out.write("%s,%s,%.6g\n" % (j, "-" if q is None else q,
                                    solution.shares.get(j, 0.0)))
    return out.getvalue()

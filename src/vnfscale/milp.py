"""Exact joint placement model with binary placement.

Placement binaries b couple to traffic shares alpha through box rows
(EPSILON*b <= alpha <= cap*b), every VM lands on at most one PM, and PM
resources bound the placed VMs.  Deployment cost charges activate per
placed offline VM and credits retain per kept online VM, the pair of the
problem's mode in `PENALTIES`.

Links are uncapacitated, so once the shares are fixed the forwarding
part is a min-cost flow that sends every unit along a shortest path
(flow decomposition; Ahuja, Magnanti and Orlin, Network Flows, 1993),
which on a fat tree climbs to the lowest layer its ends share and comes
back down.  A share alpha[q,j] is therefore priced at T * u(q),
the closed-form cost of serving it at q (`ScalingProblem.unit_cost`),
and the model has no flow variable; the decode prices the optimum's
shares with `ScalingProblem.split_cost`, as the central decode does, and
keeps them as the decision's split, which `scaling.flows_csv` routes.

The `cover` row, sum of every b >= ceil(1 / share_cap), is a cover
inequality (Wolsey, Integer Programming, 1998, ch. 9): each placed VM
carries at most share_cap of the traffic and `coverage` asks for all of
it, so every integral point satisfies it.  It cuts off the fractional
points in which `couple_hi` lets each b sit at alpha / share_cap, so the
root relaxation of an underload group is tight and branch-and-bound
proves the shapes tabled in README in one to three nodes.

Solved by branch-and-bound on the binaries over LP relaxations: most
fractional variable first (ties to the lowest index), depth-first with a
best-bound re-sort of the open list every 16 nodes.  Each node hands
`lp.solve` only the binaries it pins.  Deterministic.
"""

import itertools
import math
from dataclasses import dataclass, field

from . import lp
from .chain_state import OVERLOAD, UNDERLOAD
from .scaling import EPSILON, ScalingDecision

# a binary within this distance of 0 or 1 counts as integral
INT_TOL = 1e-6

# mode -> (activate, retain): activate is charged per placed offline VM,
# retain credited per placed online VM.  Overload: retaining online VMs
# must dominate everything, and activation stays cheap so required
# capacity can be added.  Underload: activation is priced out and
# retention is a large negative credit, pressuring the model to shut VMs
# down.
PENALTIES = {OVERLOAD: (10.0, 1e4), UNDERLOAD: (1e6, -1e4)}


class BudgetExhaustedError(RuntimeError):
    """Branch-and-bound ran out of LP solves before any integral point."""


@dataclass
class MilpProblem:
    """Built template: LP relaxation plus the binary index set."""

    base: lp.LpModel
    binaries: list              # variable indices of the b grid, in b_idx order
    problem: object             # the originating ScalingProblem
    b_idx: dict                 # (PM, vm id) -> var index
    alpha_idx: dict             # (PM, vm id) -> var index


@dataclass(kw_only=True)
class MilpSolution(ScalingDecision):
    """A ScalingDecision in which every VM is its own instance key: a kept
    VM (at its new host, if it migrated) maps to itself in vm_slot, shares
    are keyed by VM id, e holds the placement binaries b and alpha the
    shares per PM, which are the split."""

    status: str                 # optimal | budget_exhausted | infeasible
    proven: bool
    alpha: dict = field(default_factory=dict)       # (PM, vm id) -> share
    total: float = None
    nodes: int = 0
    point: object = None
    placement: dict = field(default_factory=dict)   # vm id -> PM or None
    deployment_cost: float = None

    @property
    def split(self):
        """The shares alpha per (PM, vm id)."""
        return self.alpha


def build_milp(p):
    """Assemble the joint model for a ScalingProblem's group and traffic.

    Online VMs may sit on (or migrate to) any PM; offline VMs only on the
    group's candidate PMs.  A share is priced by its shortest-path cost.
    Each VM's (b, alpha) pairs come in PM order, online VMs first, and
    each row family is one block, its names described by family and keys
    (`lp.Names`), not formatted."""
    group = p.group
    if not group.online:
        raise ValueError("group has no online VM")
    topo = p.topology
    model = lp.LpModel("milp")
    vms = [*group.online, *group.offline_pool]

    cap, capped = p.share_cap, p.capped
    activate, retain = PENALTIES[p.mode]
    # keys: each (PM, vm id) twice, naming its b and then its alpha
    keys, b_idx, alpha_idx, at, own, cost = [], {}, {}, {}, [], []
    for k, vm in enumerate(vms):
        online = k < len(group.online)
        pms = topo.pms if online else group.candidate_pms
        own.append(range(len(keys), len(keys) + 2 * len(pms), 2))
        for i, q in zip(own[-1], pms):
            key = (q, vm.id)
            b_idx[key], alpha_idx[key] = i, i + 1
            at.setdefault(q.index, []).append((vm, i))
            keys += (key, key)
        cost += [-retain if online else activate] * len(pms)
    binaries, alphas = list(b_idx.values()), list(alpha_idx.values())
    m = len(binaries)
    model.add_vars(lp.Names(["b", "alpha"] * m, keys), [0.0] * len(keys),
                   [1.0, cap] * m)
    # objective: deployment penalties plus forwarding cost
    u = p.unit_costs
    model.add_objective(dict(zip(binaries, cost)) | {
        i: p.traffic * u[q.index] for (q, _), i in alpha_idx.items()})

    # share requires placement and placement requires a minimum share
    model.add_rows(lp.LE, range(0, 4 * m + 1, 2),
                   [j for i in binaries for j in (i + 1, i, i, i + 1)],
                   [1.0, -cap, EPSILON, -1.0] * m, [0.0] * (2 * m),
                   lp.Names(["couple_hi", "couple_lo"] * m, keys))

    model.add_rows(lp.EQ, [0, m], alphas, [1.0] * m, [1.0], ["coverage"])
    # at least ceil(1 / cap) VMs carry the traffic, with the share-cap
    # tolerance of scaling._placement_slots; at cap 0 coverage alone is
    # infeasible
    need = math.ceil((1.0 - 1e-9) / cap) if cap > 0 else 1
    model.add_rows(lp.GE, [0, m], binaries, [1.0] * m, [need], ["cover"])

    # placed VMs must fit the PM's resources
    ptr, cols, vals, rhs, caps = [0], [], [], [], []
    for q in topo.pms:
        here = at.get(q.index)
        for r in capped if here else ():
            cols += [i for _, i in here]
            vals += [vm.capacity[r] for vm, _ in here]
            ptr.append(len(cols))
            rhs.append(p.pm_capacity[r][q])
            caps.append((q, r))
    model.add_rows(lp.LE, ptr, cols, vals, rhs, lp.Names("capacity", caps))

    held = [(vm, b) for vm, b in zip(vms, own) if b]
    model.add_rows(lp.LE, [0, *itertools.accumulate(len(b) for _, b in held)],
                   [i for _, b in held for i in b], [1.0] * m, [1.0] * len(held),
                   lp.Names("one_host", [(vm.id,) for vm, _ in held]))

    return MilpProblem(base=model, binaries=binaries, problem=p,
                       b_idx=b_idx, alpha_idx=alpha_idx)


def _decode(mp, point, total, nodes, proven):
    placement = {j: q for (q, j), on in zip(mp.b_idx, point[mp.binaries] > 0.5) if on}
    p = mp.problem
    for vm in (*p.group.online, *p.group.offline_pool):
        placement.setdefault(vm.id, None)
    alpha = {k: float(point[i]) for k, i in mp.alpha_idx.items()}
    # each VM's shares summed in PM-index order, whatever order its
    # candidate PMs came in
    terms = {j: [] for j in placement}
    for (q, j), v in alpha.items():
        terms[j].append((q.index, v))
    shares = {j: sum(v for _, v in sorted(t)) for j, t in terms.items()}
    online = {vm.id: vm.host for vm in p.group.online}
    placed = {j: q for j, q in placement.items() if q is not None}
    kept = {j: q for j, q in placed.items() if j in online}
    # activation charges minus retention credits, in placement order
    activate, retain = PENALTIES[p.mode]
    dep = sum((-retain if j in online else activate for j in placed), 0.0)
    return MilpSolution(
        kept=kept, launched={j: q for j, q in placed.items() if j not in online},
        terminated={j: host for j, host in online.items() if j not in placed},
        alpha=alpha, e={k: float(point[i]) for k, i in mp.b_idx.items()},
        shares=shares, forwarding_cost=p.split_cost(alpha),
        vm_slot={j: j for j in kept},
        status="optimal" if proven else "budget_exhausted", proven=proven,
        total=total, nodes=nodes, point=point, placement=placement,
        deployment_cost=dep)


def solve_milp(mp, budget=20000):
    """Branch-and-bound over the binaries. Within budget LP-solves the
    result is the proven optimum; past it the best incumbent is returned
    flagged non-proven.  Nodes the incumbent prunes are dropped before
    the budget is checked, so a proof of exactly budget solves is proven."""
    model = mp.base
    best_point, best_obj = None, float("inf")
    open_list = [(-float("inf"), {})]
    nodes = 0
    proven = True
    while open_list:
        parent_bound, fixed = open_list.pop()
        if parent_bound >= best_obj - 1e-9:
            continue
        if nodes >= budget:
            proven = False
            break
        nodes += 1
        sol = lp.solve(model, fixed)
        if sol.status != lp.OPTIMAL:
            continue
        if sol.objective_value >= best_obj - 1e-9:
            continue
        frac = [(min(sol.point[i] - 0.0, 1.0 - sol.point[i]), i)
                for i in mp.binaries if i not in fixed]
        frac = [(f, i) for f, i in frac if f > INT_TOL]
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


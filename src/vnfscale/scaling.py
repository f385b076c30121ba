"""Central LP relaxations deciding where to launch or keep VNF instances.

The overload model places v* instances (the online ones pinned to
their current hosts, the rest over the candidate PMs) and the
underload model re-assigns v* kept slots over the current host set.
Placement binaries are relaxed to continuous interest variables e, and
per-instance traffic shares alpha are tied to them; the solved vertex
is decoded back into launch / keep / terminate actions by per-instance
argmax over e.

Relaxed capacity rows keep the interest mass physically meaningful:
traffic landing on a PM cannot exceed what its resources serve, and
new placements cannot exceed its free instance slots.  Without these
rows the optimum piles every instance onto the single cheapest PM and
the decode degenerates.
"""

import io
from dataclasses import dataclass, field
from functools import cached_property

from . import lp
from .chain_state import OVERLOAD, UNDERLOAD
from .netflow import FlowNet
from .topology import PM, NodeId, forwarding_cost


class ModelInfeasibleError(RuntimeError):
    """The requested instance count cannot fit the candidate capacity."""


class DecodeError(RuntimeError):
    """The LP solution carries no usable placement signal."""


@dataclass(frozen=True)
class Penalties:
    """Deployment penalties: activate is charged per launched offline VM,
    retain is credited per kept online VM."""

    activate: float
    retain: float

    @classmethod
    def for_mode(cls, mode):
        # Overload: retaining online VMs must dominate everything, and
        # activation stays cheap so required capacity can be added.
        # Underload: activation is priced out and retention is a large
        # negative credit, pressuring the model to shut VMs down.
        if mode == OVERLOAD:
            return cls(activate=10.0, retain=1e4)
        return cls(activate=1e6, retain=-1e4)


@dataclass(frozen=True)
class Weights:
    deployment: float = 1.0
    forwarding: float = 1.0


@dataclass(frozen=True)
class InstanceSlot:
    key: str
    vm_id: object       # online VM id, or None for a new instance slot
    host: object        # pinned host PM (overload online), else None
    candidates: tuple   # PMs where the interest variable e is defined


@dataclass
class ScalingProblem:
    """One scale-out / scale-in decision problem for a single VNF group."""

    topology: object
    group: object
    traffic: float                  # total ingress rate T at event time
    v_star: int
    mode: str
    pm_capacity: dict = None        # resource -> {PM NodeId: capacity}, optional
    epsilon: float = 0.01
    weights: Weights = field(default_factory=Weights)
    penalties: Penalties = None
    baseline_traffic: float = None  # pre-event T, used for cost deltas

    def __post_init__(self):
        if self.mode not in (OVERLOAD, UNDERLOAD):
            raise ValueError("mode must be overload or underload")
        if self.traffic < 0:
            raise ValueError("traffic must be nonnegative")
        n_online = len(self.group.online)
        if self.v_star < 1:
            raise ValueError("v_star must be at least 1")
        if self.mode == OVERLOAD and self.v_star < n_online:
            raise ValueError("overload requires v_star >= current instance count")
        if self.mode == UNDERLOAD and self.v_star > n_online:
            raise ValueError("underload requires v_star <= current instance count")
        if not self.group.ingress_pms or not self.group.egress_pms:
            raise ValueError("ingress and egress PM sets must be nonempty")
        if self.penalties is None:
            self.penalties = Penalties.for_mode(self.mode)

    @cached_property
    def baseline_cost(self):
        """baseline_forwarding_cost(self), solved on the first read and
        kept: fields changed after that read do not re-solve it."""
        return baseline_forwarding_cost(self)

    # -- capacity helpers ------------------------------------------------

    @property
    def resources(self):
        return tuple(self.group.omega)

    def vm_capacity(self, r):
        members = list(self.group.online) + list(self.group.offline_pool)
        return min(vm.capacity[r] for vm in members)

    @property
    def share_cap(self):
        """Largest traffic share one instance may take: min over resources
        of u_r / (omega_r * T), further capped by the group's phi."""
        cap = self.group.phi
        if self.traffic <= 0:
            return cap
        for r, w in self.group.omega.items():
            if w > 0:
                cap = min(cap, self.vm_capacity(r) / (w * self.traffic))
        return cap

    def online_count(self, p):
        return sum(1 for vm in self.group.online if vm.host == p)

    def total_capacity(self, p, r):
        return self.pm_capacity[r][p]

    def free_capacity(self, p, r):
        return max(0.0, self.total_capacity(p, r) - self.vm_capacity(r) * self.online_count(p))

    def candidate_pms(self):
        """Candidate PMs for new instances: the configured candidate set
        filtered down to PMs with enough free capacity for one VM."""
        cands = list(self.group.candidate_pms)
        if self.pm_capacity is not None:
            cands = [p for p in cands
                     if all(self.free_capacity(p, r) >= self.vm_capacity(r) - 1e-12
                            for r in self.resources if r in self.pm_capacity)]
        return cands


def uniform_capacity(topo, caps):
    """Expand {resource: value} into per-PM capacity tables."""
    return {r: {p: float(v) for p in topo.pms} for r, v in caps.items()}


def _slots(p):
    group = p.group
    if p.mode == OVERLOAD:
        cands = tuple(sorted(p.candidate_pms(), key=p.topology.node_position))
        slots = []
        for i, vm in enumerate(group.online):
            slots.append(InstanceSlot("d%d" % (i + 1), vm.id, vm.host, (vm.host,)))
        for i in range(len(group.online), p.v_star):
            slots.append(InstanceSlot("d%d" % (i + 1), None, None, cands))
        if p.v_star > len(group.online) and not cands:
            raise ModelInfeasibleError("no candidate PM can host a new instance")
        return slots
    hosts = tuple(sorted(set(group.host_pms), key=p.topology.node_position))
    return [InstanceSlot("d%d" % (i + 1), None, None, hosts) for i in range(p.v_star)]


def _check_total_capacity(p, slots):
    if p.v_star * p.share_cap < 1.0 - 1e-9:
        raise ModelInfeasibleError(
            "v_star=%d instances at share cap %.4g cannot cover the traffic"
            % (p.v_star, p.share_cap))
    if p.mode == OVERLOAD and p.pm_capacity is not None:
        new = sum(1 for s in slots if s.vm_id is None)
        room = 0
        for q in p.candidate_pms():
            per_r = [p.free_capacity(q, r) // max(p.vm_capacity(r), 1e-30)
                     for r in p.resources if r in p.pm_capacity]
            room += int(min(per_r)) if per_r else new
        if room < new:
            raise ModelInfeasibleError(
                "candidate PMs fit %d new instances, %d required" % (room, new))


def _relevant_pms(p, slots):
    seen = []
    for s in slots:
        for q in s.candidates:
            if q not in seen:
                seen.append(q)
    return sorted(seen, key=p.topology.node_position)


class _Layout:
    """Variable maps attached to a built model so decode can read it back."""

    def __init__(self, problem, slots, rel_pms, fv, alpha_idx, e_idx):
        self.problem = problem
        self.slots = slots
        self.rel_pms = rel_pms
        self.fv = fv
        self.alpha_idx = alpha_idx
        self.e_idx = e_idx
        self.slack_idx = {}   # ("cap"|"slots"|"keep", PM, resource?) -> var


def _relaxation_skeleton(p, name):
    """Model with flow, share and interest variables plus the forwarding
    objective, before any constraint rows."""
    slots = _slots(p)
    _check_total_capacity(p, slots)
    rel_pms = _relevant_pms(p, slots)
    model = lp.LpModel(name)
    fv = FlowNet(p.topology, p.group.ingress_pms, p.group.egress_pms)
    fv.add_flow_vars(model, [s.key for s in slots])

    cap = p.share_cap
    alpha_idx, e_idx = {}, {}
    for s in slots:
        for q in rel_pms:
            alpha_idx[(q, s.key)] = model.add_var("alpha[%s,%s]" % (q, s.key), 0.0, cap)
        for q in s.candidates:
            e_idx[(q, s.key)] = model.add_var("e[%s,%s]" % (q, s.key), 0.0, 1.0)

    model.add_objective(fv.objective_coeffs(p.weights.forwarding))
    model.layout = _Layout(p, slots, rel_pms, fv, alpha_idx, e_idx)
    return model


def _placement_rows(p, model):
    """Rows tying interest and share variables to the flows: shared by the
    central relaxation and its per-agent reformulation."""
    lay = model.layout
    slots, rel_pms, fv = lay.slots, lay.rel_pms, lay.fv
    alpha_idx, e_idx = lay.alpha_idx, lay.e_idx

    # alpha is the same at every PM for one instance: all-pairs equalities
    # over the unpinned instances (underload slots are all unpinned), so
    # each share variable is coupled to every other one directly
    for s in slots:
        if s.host is not None or len(rel_pms) < 2:
            continue
        for a, qa in enumerate(rel_pms):
            for qb in rel_pms[a + 1:]:
                model.add_row({alpha_idx[(qa, s.key)]: 1.0,
                               alpha_idx[(qb, s.key)]: -1.0},
                              "=", 0.0, "alpha_eq[%s,%s,%s]" % (qa, qb, s.key))

    # total interest of an instance equals its (uniform) share
    for s in slots:
        for q in rel_pms:
            coeffs = {e_idx[(c, s.key)]: 1.0 for c in s.candidates}
            idx = alpha_idx[(q, s.key)]
            coeffs[idx] = coeffs.get(idx, 0.0) - 1.0
            model.add_row(coeffs, "=", 0.0, "interest[%s,%s]" % (q, s.key))

    # arriving unprocessed traffic at each PM matches the placement signal
    for s in slots:
        family = "arrival_online" if s.host is not None else "arrival_new"
        for q in p.topology.pms:
            coeffs = fv.inflow("n", q, s.key)
            if s.host is not None:
                if q == s.host:
                    idx = alpha_idx[(q, s.key)]
                    coeffs[idx] = coeffs.get(idx, 0.0) - p.traffic
            elif q in s.candidates:
                idx = e_idx[(q, s.key)]
                coeffs[idx] = coeffs.get(idx, 0.0) - p.traffic
            model.add_row(coeffs, "=", 0.0, "%s[%s,%s]" % (family, q, s.key))

    # every unit of interest must be backed by capacity on the PM
    if p.pm_capacity is not None:
        for q in rel_pms:
            here = [s for s in slots if (q, s.key) in e_idx]
            for r in p.resources:
                if r not in p.pm_capacity:
                    continue
                coeffs = {e_idx[(q, s.key)]: p.traffic * p.group.omega[r] for s in here}
                slack = model.add_var("cap_slack[%s,%s]" % (q, r))
                lay.slack_idx[("cap", q, r)] = slack
                coeffs[slack] = 1.0
                model.add_row(coeffs, "=", p.total_capacity(q, r), "cap[%s,%s]" % (q, r))
        if p.mode == OVERLOAD:
            for q in rel_pms:
                newer = [s for s in slots if s.vm_id is None and (q, s.key) in e_idx]
                for r in p.resources:
                    if r not in p.pm_capacity:
                        continue
                    coeffs = {e_idx[(q, s.key)]: p.vm_capacity(r) for s in newer}
                    slack = model.add_var("slot_slack[%s,%s]" % (q, r))
                    lay.slack_idx[("slots", q, r)] = slack
                    coeffs[slack] = 1.0
                    model.add_row(coeffs, "=", p.free_capacity(q, r), "slots[%s,%s]" % (q, r))
    if p.mode == UNDERLOAD:
        for q in rel_pms:
            coeffs = {e_idx[(q, s.key)]: 1.0 for s in slots if (q, s.key) in e_idx}
            slack = model.add_var("keep_slack[%s]" % (q,))
            lay.slack_idx[("keep", q)] = slack
            coeffs[slack] = 1.0
            model.add_row(coeffs, "=", float(p.online_count(q)), "keep[%s]" % (q,))

    # no explicit total-interest row: summing the interest rows against the
    # ingress total and arrival rows already forces sum(e) = 1 at feasibility


def _build_relaxation(p):
    model = _relaxation_skeleton(p, "%s_lp" % p.mode)
    fv = model.layout.fv
    fv.add_switch_conservation(model)
    fv.add_pm_processing(model, p.group.gamma)
    fv.add_ingress_total(model, p.traffic)
    fv.add_egress_total(model, p.traffic, p.group.gamma)
    _placement_rows(p, model)
    return model


def build_overload_lp(p):
    """Relaxed scale-out model: pinned online instances plus new slots
    over the candidate PMs, no binaries, no bandwidth rows."""
    if p.mode != OVERLOAD:
        raise ValueError("problem is not in overload mode")
    return _build_relaxation(p)


def build_underload_lp(p):
    """Relaxed scale-in model: v_star kept slots over the current hosts."""
    if p.mode != UNDERLOAD:
        raise ValueError("problem is not in underload mode")
    if p.v_star < 1:
        raise ValueError("at least one instance must be kept")
    return _build_relaxation(p)


@dataclass
class ScalingDecision:
    mode: str
    kept: dict            # vm id -> host PM
    launched: dict        # instance key -> PM chosen for the new VM
    terminated: dict      # vm id -> PM the VM is removed from
    alpha: dict           # (PM, instance key) -> share variable value
    e: dict               # (PM, instance key) -> interest value
    shares: dict          # instance key -> traffic share of that instance
    flows_n: dict
    flows_m: dict
    forwarding_cost: float
    cost_delta_vs_baseline: float = None
    warnings: list = field(default_factory=list)
    vm_slot: dict = field(default_factory=dict)  # kept vm id -> instance key


def _slot_supply(p, q):
    """How many instances may decode onto PM q."""
    if p.mode == UNDERLOAD:
        return p.online_count(q)
    if p.pm_capacity is None:
        return float("inf")
    per_r = [p.free_capacity(q, r) // max(p.vm_capacity(r), 1e-30)
             for r in p.resources if r in p.pm_capacity]
    return int(min(per_r)) if per_r else float("inf")


def decode(solution, p):
    """Turn an optimal relaxation point into concrete scaling actions.

    Each unpinned instance goes to the PM with the largest interest
    value (ties to the lowest-indexed PM).  Should two instances claim
    more slots than a PM offers, later instances fall back to their
    next-best candidate; a warning records the fallback.
    """
    if solution.status != lp.OPTIMAL:
        raise DecodeError("cannot decode a %s solution" % solution.status)
    layout = solution.model.layout
    slots, fv = layout.slots, layout.fv
    point = solution.point
    warnings = []

    e_vals = {k: float(point[i]) for k, i in layout.e_idx.items()}
    alpha_vals = {k: float(point[i]) for k, i in layout.alpha_idx.items()}
    shares = {}
    for s in slots:
        q0 = layout.rel_pms[0]
        shares[s.key] = alpha_vals[(q0, s.key)]

    supply = {q: _slot_supply(p, q) for q in layout.rel_pms}
    placed = {}
    for s in slots:
        if s.host is not None:
            placed[s.key] = s.host  # free-slot supply already excludes online VMs
            continue
        column = sorted(((e_vals[(q, s.key)], -p.topology.node_position(q), q)
                         for q in s.candidates), reverse=True)
        if not column or column[0][0] <= 1e-9:
            raise DecodeError("instance %s has an all-zero interest column" % s.key)
        choice = None
        for val, _, q in column:
            if supply[q] >= 1:
                choice = q
                break
        if choice is None:
            raise DecodeError("no PM has room for instance %s" % s.key)
        if choice != column[0][2]:
            warnings.append("instance %s displaced from %s to %s by slot supply"
                            % (s.key, column[0][2], choice))
        supply[choice] -= 1
        placed[s.key] = choice

    kept, launched, terminated, vm_slot = {}, {}, {}, {}
    if p.mode == OVERLOAD:
        for s in slots:
            if s.vm_id is not None:
                kept[s.vm_id] = s.host
                vm_slot[s.vm_id] = s.key
            else:
                launched[s.key] = placed[s.key]
    else:
        by_host = {}
        for s in slots:
            by_host.setdefault(placed[s.key], []).append(s.key)
        for q, keys in by_host.items():
            vms = sorted((vm for vm in p.group.online if vm.host == q),
                         key=lambda vm: vm.id)
            for vm, key in zip(vms, keys):
                kept[vm.id] = q
                vm_slot[vm.id] = key
        for vm in p.group.online:
            if vm.id not in kept:
                terminated[vm.id] = vm.host

    for s in slots:
        if shares[s.key] < p.epsilon - 1e-12:
            warnings.append("instance %s share %.4g below minimum collaboration %.4g"
                            % (s.key, shares[s.key], p.epsilon))

    flows_n, flows_m = fv.flows_from_point(point)
    fwd = forwarding_cost_of(flows_n, flows_m, p.topology)
    delta = None
    if p.baseline_traffic:
        base = p.baseline_cost
        if base > 0:
            delta = (fwd - base) / base
    return ScalingDecision(mode=p.mode, kept=kept, launched=launched,
                           terminated=terminated, alpha=alpha_vals, e=e_vals,
                           shares=shares, flows_n=flows_n, flows_m=flows_m,
                           forwarding_cost=fwd, cost_delta_vs_baseline=delta,
                           warnings=warnings, vm_slot=vm_slot)


def baseline_forwarding_cost(p, tol=1e-8):
    """Forwarding cost of the pre-event configuration: all online VMs
    pinned at their hosts serving the baseline traffic."""
    base = ScalingProblem(
        topology=p.topology, group=p.group, traffic=p.baseline_traffic,
        v_star=len(p.group.online), mode=OVERLOAD, pm_capacity=p.pm_capacity,
        epsilon=p.epsilon, weights=p.weights)
    sol = lp.solve(build_overload_lp(base), tol)
    if sol.status != lp.OPTIMAL:
        raise ModelInfeasibleError("baseline configuration is %s" % sol.status)
    return sol.objective_value


def forwarding_cost_of(flows_n, flows_m, topo):
    """Total layered cost of carrying the given flows: sum of
    F(i,j) * (n + m) over every arc.  Flow on a non-link pair is an error."""
    total = 0.0
    for flows in (flows_n, flows_m):
        for (i, j, _d), val in flows.items():
            total += forwarding_cost(topo, i, j) * val
    return total


def decision_csv(decision):
    """One row per instance: id, action, host, share, interest at host."""
    out = io.StringIO()
    out.write("instance,action,host,share,e_at_host\n")
    for vm_id, q in sorted(decision.kept.items(), key=lambda kv: str(kv[0])):
        key = decision.vm_slot.get(vm_id, "")
        out.write("%s,keep,%s,%.6g,%.6g\n"
                  % (vm_id, q, decision.shares.get(key, 0.0),
                     decision.e.get((q, key), 0.0)))
    for key, q in sorted(decision.launched.items()):
        out.write("%s,launch,%s,%.6g,%.6g\n"
                  % (key, q, decision.shares.get(key, 0.0),
                     decision.e.get((q, key), 0.0)))
    for vm_id, q in sorted(decision.terminated.items(), key=lambda kv: str(kv[0])):
        out.write("%s,terminate,%s,0,0\n" % (vm_id, q))
    return out.getvalue()


def flows_csv(decision, threshold=1e-9):
    """Nonzero flow values, one row per (link, instance, flow kind)."""
    out = io.StringIO()
    out.write("from,to,instance,flow,value\n")
    for name, flows in (("n", decision.flows_n), ("m", decision.flows_m)):
        for (i, j, d), val in sorted(flows.items(), key=lambda kv: str(kv[0])):
            if abs(val) > threshold:
                out.write("%s,%s,%s,%s,%.9g\n" % (i, j, d, name, val))
    return out.getvalue()

"""Central LP relaxations deciding where to launch or keep VNF instances.

The overload model places v* instances (the online ones pinned to
their current hosts, the rest over the candidate PMs) and the
underload model re-assigns v* kept slots over the current host set.
Placement binaries are relaxed to continuous interest variables e, and
per-instance traffic shares alpha are tied to them; the solved vertex
is decoded back into launch / keep / terminate actions by per-instance
argmax over e.

The relaxation has no flow variables.  Links are uncapacitated, so its
flow part is an uncapacitated min-cost flow, whose optimum sends every
unit along a shortest path (flow decomposition; Ahuja, Magnanti and
Orlin, Network Flows, 1993).  On a fat tree that path climbs to the
lowest layer its ends share and comes back down, so
`topology.source_distances` gives every PM its cost from the nearest
ingress and the nearest egress in closed form, and every PM q its unit
cost u(q) = d_in(q) + gamma * d_out(q), once per problem.  The
objective is T * w_fwd * u(q) on each e[q,s], and
`ScalingProblem.split_cost` prices the decision by the same u(q).  A
decision keeps its split, not its flows: `route_flows` routes the split
on `topology.source_route` when `flows_csv` writes them.  The
distributed solver (`rpadmm`) runs on this same model, so both decode
alike, and the exact MILP (`milp`) prices and routes its shares the
same way.

Relaxed capacity rows keep the interest mass physically meaningful:
traffic landing on a PM cannot exceed what its resources serve, and
new placements cannot exceed its free instance slots.  Without these
rows the optimum piles every instance onto the single cheapest PM and
the decode degenerates.

Each capacity fact is worked out once per problem: u_r per resource
(`ScalingProblem.vm_caps`), and the online VMs and the free capacity of
each PM by PM index (`free_by_index`).  `launch_slots` lists the launch
PMs in node order: the candidate PMs with room for at least one new VM,
each with its free slots, floor((free_r + 1e-12) / u_r) at the fewest
over the capped resources.  The new slots, the room check and decode's
slot supply all read that table.  The builder groups the interests by
PM index to emit each capacity row family as one block.  The baseline
is priced on the problem itself, with the share cap at the baseline
traffic.
"""

import io
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from . import lp
from .chain_state import OVERLOAD, UNDERLOAD
from .topology import PM, pm_name, source_distances, source_route


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
    baseline_traffic: float = None  # pre-event T, used for cost deltas

    def __post_init__(self):
        if self.mode not in (OVERLOAD, UNDERLOAD):
            raise ValueError("mode must be overload or underload")
        # written so that nan fails them too
        if not self.traffic >= 0:
            raise ValueError("traffic must be nonnegative")
        if self.baseline_traffic is not None and not self.baseline_traffic >= 0:
            raise ValueError("baseline traffic must be nonnegative")
        n_online = len(self.group.online)
        if self.v_star < 1:
            raise ValueError("v_star must be at least 1")
        if self.mode == OVERLOAD and self.v_star < n_online:
            raise ValueError("overload requires v_star >= current instance count")
        if self.mode == UNDERLOAD and self.v_star > n_online:
            raise ValueError("underload requires v_star <= current instance count")
        if not self.group.ingress_pms or not self.group.egress_pms:
            raise ValueError("ingress and egress PM sets must be nonempty")

    @property
    def penalties(self):
        """The deployment penalties of the problem's mode."""
        return Penalties.for_mode(self.mode)

    @cached_property
    def baseline_cost(self):
        """baseline_forwarding_cost(self), priced on the first read and
        kept: fields changed after that read do not re-price it."""
        return baseline_forwarding_cost(self)

    @cached_property
    def unit_costs(self):
        """u(q) = d_in(q) + gamma * d_out(q) per PM, indexed by PM index:
        the forwarding cost of one unit of traffic served at PM q on
        shortest routes, worked out on the first read and kept."""
        topo, gamma = self.topology, self.group.gamma
        d_in = source_distances(topo, self.group.ingress_pms)
        d_out = source_distances(topo, self.group.egress_pms)
        return tuple(i + gamma * o for i, o in zip(d_in, d_out))

    def unit_cost(self, q):
        """u(q) of PM q, read from `unit_costs`."""
        return self.unit_costs[q.index]

    def split_cost(self, split):
        """Forwarding cost of a split {(PM, instance): fraction of T}:
        T * sum of fraction * u(q) over its positive entries, the cost of
        routing it with `route_flows`."""
        return self.traffic * sum(f * self.unit_cost(q)
                                  for (q, _), f in split.items() if f > 0.0)

    # -- capacity ledger -------------------------------------------------

    @property
    def capped(self):
        """The group's resources that have a per-PM capacity table."""
        return [r for r in self.group.omega if r in (self.pm_capacity or ())]

    @cached_property
    def vm_caps(self):
        """u_r (`VnfGroup.vm_capacity`) per resource, worked out once."""
        return {r: self.group.vm_capacity(r) for r in self.group.omega}

    def share_cap_at(self, traffic):
        """Largest share of `traffic` one instance may take: min over
        resources of u_r / (omega_r * traffic), further capped by phi."""
        cap = self.group.phi
        if traffic <= 0:
            return cap
        for r, w in self.group.omega.items():
            if w > 0:
                cap = min(cap, self.vm_caps[r] / (w * traffic))
        return cap

    @property
    def share_cap(self):
        """share_cap_at(T), the upper bound of every share variable."""
        return self.share_cap_at(self.traffic)

    @cached_property
    def _online_counts(self):      # PM index -> online VMs of the group
        return Counter(vm.host.index for vm in self.group.online)

    def online_count(self, p):
        """Online VMs of the group on PM p, counted on the first call."""
        return self._online_counts.get(p.index, 0) if p.kind == PM else 0

    @cached_property
    def free_by_index(self):
        """{r: {PM index: r left on the PM by the group's online VMs}}
        per capped resource, worked out on the first read over the PMs a
        decision reads: the candidates and the online VMs' hosts."""
        n, group = self._online_counts, self.group
        pms = {q.index: q for q in group.candidate_pms}
        pms.update((vm.host.index, vm.host) for vm in group.online)
        return {r: {i: max(0.0, self.pm_capacity[r][q] - self.vm_caps[r] * n.get(i, 0))
                    for i, q in pms.items()} for r in self.capped}

    @cached_property
    def launch_slots(self):
        """{PM: new instances it has room for} over the candidate PMs with
        room for at least one, in node order, built on the first read and
        kept.  Per capped resource r a PM fits floor((free + 1e-12) / u_r)
        new VMs, so a PM short of a whole VM by float error takes it; with
        no capped resource every candidate fits any number (inf)."""
        cands = sorted(self.group.candidate_pms, key=self.topology.node_position)
        rooms = [math.inf] * len(cands)
        for r in self.capped:
            free, u = self.free_by_index[r], max(self.vm_caps[r], 1e-30)
            rooms = [min(room, int((free[q.index] + 1e-12) // u))
                     for q, room in zip(cands, rooms)]
        return {q: room for q, room in zip(cands, rooms) if room >= 1}


def uniform_capacity(topo, caps):
    """{resource: value} as per-PM capacity tables, one value per PM."""
    return {r: dict.fromkeys(topo.pms, float(v)) for r, v in caps.items()}


class _Layout:
    """Variable maps attached to a built model so decode can read it back."""

    def __init__(self, slots, rel_pms, alpha_idx, e_idx):
        self.slots = slots
        self.rel_pms = rel_pms
        self.alpha_idx = alpha_idx    # slot key -> its share variable
        self.e_idx = e_idx            # (PM, slot key) -> interest variable
        self.slack_blocks = []        # (family, first slack var, keys) per family


def _placement_slots(p):
    """The instance slots and the PMs they may land on, in node order.

    Overload pins each online VM to its host and spreads v* - |V| new
    slots over the launch PMs; underload spreads v* slots over the hosts.
    Raises ModelInfeasibleError when v* shares at the share cap cannot
    cover the traffic, the offline pool holds fewer VMs than the launches
    need, or the launch PMs fit fewer new VMs than needed."""
    if p.v_star * p.share_cap < 1.0 - 1e-9:
        raise ModelInfeasibleError(
            "v_star=%d instances at share cap %.4g cannot cover the traffic"
            % (p.v_star, p.share_cap))
    order, online = p.topology.node_position, p.group.online
    if p.mode == OVERLOAD:
        new, pool = p.v_star - len(online), len(p.group.offline_pool)
        if new > pool:
            raise ModelInfeasibleError(
                "the offline pool holds %d VMs, %d launches required" % (pool, new))
        room = sum(p.launch_slots.values())
        if new > room:
            raise ModelInfeasibleError(
                "candidate PMs fit %d new instances, %d required" % (room, new))
        cands = tuple(p.launch_slots)
        slots = [InstanceSlot("d%d" % (i + 1), vm.id, vm.host, (vm.host,))
                 for i, vm in enumerate(online)]
        slots += [InstanceSlot("d%d" % (i + 1), None, None, cands)
                  for i in range(len(online), p.v_star)]
    else:
        hosts = tuple(sorted(set(p.group.host_pms), key=order))
        slots = [InstanceSlot("d%d" % (i + 1), None, None, hosts)
                 for i in range(p.v_star)]
    rel_pms = sorted({q.index: q for s in slots for q in s.candidates}.values(), key=order)
    return slots, rel_pms


def _slack_rows(model, family, slack, keys, columns, coef, rhs):
    """Append a block of rows family[key], one per key: coef[t] on each
    of columns[t] plus a new slack slack[key] at 1.0, = rhs[t], recorded
    as a slack block of the layout."""
    first, n = model.num_vars, len(keys)
    model.add_vars(lp.Names(slack, keys), [0.0] * n, [math.inf] * n)
    ptr, cols, vals = [0], [], []
    for i, col, a in zip(range(first, first + n), columns, coef):
        cols += col
        cols.append(i)
        vals += [a] * len(col)
        vals.append(1.0)
        ptr.append(len(cols))
    model.add_rows(lp.EQ, ptr, cols, vals, rhs, lp.Names(family, keys))
    model.layout.slack_blocks.append((family, first, keys))


def _build_relaxation(p):
    """The relaxation over shares and interests: a unit of interest at q
    costs T * w_fwd * u(q), its shortest-path cost, so no flow variable
    is needed (see the module docstring).  Each row family is one block,
    its names described by family and keys (`lp.Names`), not formatted.
    Interest needs capacity on its PM (in overload, a free slot too); in
    underload each host keeps at most its online VMs.  A slot's share
    alpha is named at the first relevant PM, a name only."""
    slots, rel_pms = _placement_slots(p)
    model = lp.LpModel("%s_lp" % p.mode)
    q0, cap = rel_pms[0], p.share_cap
    fams, keys, upper, alpha_idx, e_idx = [], [], [], {}, {}
    at = {q.index: [] for q in rel_pms}     # PM index -> [(slot, e var)]
    ptr, cols, vals = [0], [], []           # the interest rows
    for s in slots:
        alpha_idx[s.key] = a = len(keys)
        keys.append((q0, s.key))
        for i, q in enumerate(s.candidates, a + 1):
            key = (q, s.key)
            e_idx[key] = i
            keys.append(key)
            at[q.index].append((s, i))
        n = len(s.candidates)
        fams += ["alpha"] + ["e"] * n
        upper += [cap] + [1.0] * n
        cols += [*range(a + 1, len(keys)), a]
        vals += [1.0] * n + [-1.0]
        ptr.append(len(cols))
    model.add_vars(lp.Names(fams, keys), [0.0] * len(keys), upper)
    scale, unit = p.traffic * p.weights.forwarding, p.unit_costs
    model.add_objective({i: scale * unit[q.index] for (q, _), i in e_idx.items()})
    model.layout = _Layout(slots, rel_pms, alpha_idx, e_idx)
    model.add_rows(lp.EQ, ptr, cols, vals, [0.0] * len(slots),
                   lp.Names("interest", [(s.key,) for s in slots]))
    alphas = list(alpha_idx.values())
    model.add_rows(lp.EQ, [0, len(alphas)], alphas, [1.0] * len(alphas), [1.0],
                   ["coverage"])

    # one row per (PM, capped resource), PM-major, or one per PM
    capped, npms = p.capped, len(rel_pms)
    interests = [[i for _, i in at[q.index]] for q in rel_pms]
    cap_keys = [(q, r) for q in rel_pms for r in capped]
    if capped:
        _slack_rows(model, "cap", "cap_slack", cap_keys,
                    [col for col in interests for _ in capped],
                    [p.traffic * p.group.omega[r] for r in capped] * npms,
                    [p.pm_capacity[r][q] for q, r in cap_keys])
    if p.mode == UNDERLOAD:
        _slack_rows(model, "keep", "keep_slack", [(q,) for q in rel_pms], interests,
                    [1.0] * npms, [float(p.online_count(q)) for q in rel_pms])
    elif capped:
        free = p.free_by_index
        _slack_rows(model, "slots", "slot_slack", cap_keys,
                    [[i for s, i in at[q.index] if s.vm_id is None]
                     for q in rel_pms for _ in capped],
                    [p.vm_caps[r] for r in capped] * npms,
                    [free[r][q.index] for q, r in cap_keys])
    return model


def build_overload_lp(p):
    """Relaxed scale-out model: pinned online instances plus new slots
    over the candidate PMs, no binaries."""
    if p.mode != OVERLOAD:
        raise ValueError("problem is not in overload mode")
    return _build_relaxation(p)


def build_underload_lp(p):
    """Relaxed scale-in model: v_star kept slots over the current hosts."""
    if p.mode != UNDERLOAD:
        raise ValueError("problem is not in underload mode")
    return _build_relaxation(p)


@dataclass
class ScalingDecision:
    """Which VMs to keep, launch or terminate and how the traffic splits
    between the instances: the one decision record of every solver.  A
    solver that found no decision leaves the maps empty."""

    kept: dict = field(default_factory=dict)        # vm id -> host PM
    launched: dict = field(default_factory=dict)    # instance key -> PM of the new VM
    terminated: dict = field(default_factory=dict)  # vm id -> PM the VM is removed from
    e: dict = field(default_factory=dict)           # (PM, instance key) -> interest value
    shares: dict = field(default_factory=dict)      # instance key -> traffic share
    forwarding_cost: float = None
    warnings: list = field(default_factory=list)
    vm_slot: dict = field(default_factory=dict)     # kept vm id -> instance key

    @property
    def split(self):
        """{(PM, instance key): fraction of T} served there, the split
        that `route_flows` routes: the interests e."""
        return self.e


def decode(model, point, p):
    """Turn a point of p's relaxation `model` into concrete scaling
    actions; the caller has checked that the point is one to act on.

    Each unpinned instance goes to the PM with the largest interest
    value (ties to the lowest-indexed PM).  Should two instances claim
    more slots than a PM offers, later instances fall back to their
    next-best candidate; a warning records the fallback.
    """
    layout = model.layout
    slots = layout.slots
    warnings = []

    # + 0.0 turns a solver's -0.0 into 0.0, which prints as 0
    e_vals = {k: float(point[i]) + 0.0 for k, i in layout.e_idx.items()}
    shares = {key: float(point[i]) + 0.0 for key, i in layout.alpha_idx.items()}

    # how many instances may decode onto each PM, by PM index
    supply = ({q.index: n for q, n in p.launch_slots.items()} if p.mode == OVERLOAD
              else {q.index: p.online_count(q) for q in layout.rel_pms})
    placed = {}
    for s in slots:
        if s.host is not None:
            placed[s.key] = s.host  # free-slot supply already excludes online VMs
            continue
        column = sorted(((e_vals[(q, s.key)], -q.index, q) for q in s.candidates),
                        reverse=True)
        if not column or column[0][0] <= 1e-9:
            raise DecodeError("instance %s has an all-zero interest column" % s.key)
        choice = None
        for val, _, q in column:
            if supply[q.index] >= 1:
                choice = q
                break
        if choice is None:
            raise DecodeError("no PM has room for instance %s" % s.key)
        if choice != column[0][2]:
            warnings.append("instance %s displaced from %s to %s by slot supply"
                            % (s.key, pm_name(column[0][2]), pm_name(choice)))
        supply[choice.index] -= 1
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
        by_host = {}        # PM index -> the keys of the slots placed there
        for s in slots:
            by_host.setdefault(placed[s.key].index, []).append(s.key)
        for i, keys in by_host.items():
            vms = sorted((vm for vm in p.group.online if vm.host.index == i),
                         key=lambda vm: vm.id)
            for vm, key in zip(vms, keys):
                kept[vm.id] = vm.host
                vm_slot[vm.id] = key
        for vm in p.group.online:
            if vm.id not in kept:
                terminated[vm.id] = vm.host

    vm_of = {key: vm_id for vm_id, key in vm_slot.items()}
    for s in slots:
        if shares[s.key] < p.epsilon - 1e-12:
            warnings.append("instance %s share %.4g below minimum collaboration %.4g"
                            % (vm_of.get(s.key, s.key), shares[s.key], p.epsilon))

    return ScalingDecision(kept=kept, launched=launched, terminated=terminated,
                           e=e_vals, shares=shares,
                           forwarding_cost=p.split_cost(e_vals),
                           warnings=warnings, vm_slot=vm_slot)


def route_flows(p, e):
    """n and m flows of an interest split on shortest routes: T * e[q,s]
    from the nearest ingress down to q and gamma * T * e[q,s] from q to
    the nearest egress, each on `topology.source_route` (up to the lowest
    layer the two PMs share and down again, ties to the lowest-indexed
    source and to switch 0 of a layer), a PM that is itself an ingress
    (egress) on its self-arc.  Only arcs that carry flow are keyed."""
    topo, into, out = p.topology, p.group.ingress_pms, p.group.egress_pms
    flows_n, flows_m = {}, {}
    for (q, d), val in e.items():
        if val <= 0.0:
            continue
        n = p.traffic * val
        for i, j in source_route(topo, into, q):
            flows_n[(j, i, d)] = flows_n.get((j, i, d), 0.0) + n
        m = p.group.gamma * n
        for i, j in source_route(topo, out, q):
            flows_m[(i, j, d)] = flows_m.get((i, j, d), 0.0) + m
    return flows_n, flows_m


def baseline_forwarding_cost(p):
    """Forwarding cost of the pre-event configuration: all online VMs
    pinned at their hosts serving the baseline traffic T.

    Links are uncapacitated, so the flow part of the pinned overload LP
    is an uncapacitated min-cost flow, and its optimum routes every unit
    on a shortest path (flow decomposition; Ahuja, Magnanti and Orlin,
    Network Flows, 1993).  A unit served on host q then costs
    u(q) = d_in(q) + gamma * d_out(q), read from `unit_costs`.
    What is left is a fractional knapsack: fill the hosts in order of
    (u(q), PM index), each up to its share cap at the baseline
    traffic times its online VMs and up to its capacity rows, until the
    shares cover the traffic.  The result equals that LP's optimum.
    """
    traffic = p.baseline_traffic
    if traffic is None:
        raise ValueError("the problem has no baseline traffic to price")
    omega, unit = p.group.omega, p.unit_costs
    capped = [r for r in p.capped if traffic * omega[r] > 0]
    cap = p.share_cap_at(traffic)
    cost, left = 0.0, 1.0
    for q in sorted(p.group.host_pms, key=lambda q: (unit[q.index], q.index)):
        room = cap * p.online_count(q)
        for r in capped:
            room = min(room, p.pm_capacity[r][q] / (traffic * omega[r]))
        take = max(0.0, min(left, room))
        cost += take * unit[q.index]
        left -= take
    if left > 1e-9:
        raise ModelInfeasibleError("baseline configuration is infeasible")
    return traffic * p.weights.forwarding * cost


def _decision_rows(decision):
    """(instance, action, host, share, interest at host) per instance:
    kept VMs, then launches, then terminations with share and interest 0."""
    for vm_id, q in sorted(decision.kept.items(), key=lambda kv: str(kv[0])):
        key = decision.vm_slot.get(vm_id, "")
        yield (vm_id, "keep", q, decision.shares.get(key, 0.0),
               decision.e.get((q, key), 0.0))
    for key, q in sorted(decision.launched.items()):
        yield (key, "launch", q, decision.shares.get(key, 0.0),
               decision.e.get((q, key), 0.0))
    for vm_id, q in sorted(decision.terminated.items(), key=lambda kv: str(kv[0])):
        yield vm_id, "terminate", q, 0.0, 0.0


def decision_table(decision):
    """Text table: one row per instance with its action, host and share."""
    rows = ["instance  action     host    share"]
    for inst, action, q, share, _ in _decision_rows(decision):
        rows.append("%-9s %-10s %-7s %s" % (
            inst, action, pm_name(q),
            "-" if action == "terminate" else "%.4f" % share))
    return "\n".join(rows) + "\n"


def decision_csv(decision):
    """CSV: one row per instance with its action, host, share and
    interest at the host."""
    out = io.StringIO()
    out.write("instance,action,host,share,e_at_host\n")
    for inst, action, q, share, e in _decision_rows(decision):
        out.write("%s,%s,%s,%.6g,%.6g\n" % (inst, action, pm_name(q), share, e))
    return out.getvalue()


# flows_csv writes a flow value only when its magnitude exceeds this
FLOW_THRESHOLD = 1e-9


def flows_csv(p, decision):
    """Nonzero flow values of the decision's split routed by
    `route_flows`, one row per (link, instance, flow kind)."""
    out = io.StringIO()
    out.write("from,to,instance,flow,value\n")
    for name, flows in zip("nm", route_flows(p, decision.split)):
        for (i, j, d), val in sorted(flows.items(), key=lambda kv: str(kv[0])):
            if abs(val) > FLOW_THRESHOLD:
                out.write("%s,%s,%s,%s,%.9g\n"
                          % (pm_name(i), pm_name(j), d, name, val))
    return out.getvalue()

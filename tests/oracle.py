"""Reference implementations the solvers are checked against.

`export` is the scipy form of an `LpModel` that the tests read: the
objective and rows as arrays, each row's coefficients in insertion order
with explicit zeros kept.  No solver builds it; `system_csr` is the same
for an RP-ADMM system's CSR arrays.  `value` reads a solved variable by
name, and `system_from_model` wraps a hand-built equality model as an
RP-ADMM system as it stands, unscaled and with its rows as written.

The HiGHS loader as first written: one fresh HiGHS object per model,
loaded columnwise by one stable sort of the CSR on the column, explicit
zeros kept.  `lp.solve` loads the rows as they are into one HiGHS
object per process, and every solve must give the status and the point
bits of `reference_solve`.

Brute force for the joint placement model: enumerates placement
assignments directly and LP-solves the continuous part for each, so the
branch-and-bound can be checked against an implementation that shares
none of its search logic.

The RP-ADMM sweep as first written: scipy's tocsc() for the columns and
a @ 0 - b for the start residual, numpy element indexing, one
`scalar_block_update` call per block and one np.max per row family.
`rpadmm.run` must reproduce it byte for byte.  Its message count is the
sparse pattern product `rpadmm.message_footprint` first used; the
set-union count must equal it.  `scaled_model` rebuilds a system as the
`LpModel` `rpadmm.reformulate` once copied, so HiGHS can solve it.

`check_feasibility` reports each row a point violates; only the tests
check points row by row.

The exact MILP as first written: one flow commodity per VM on every
arc, with arrival, conservation, processing and endpoint-total rows.
`milp.build_milp` prices each share by its shortest-path cost instead,
and every MILP decision, with its flows routed on shortest paths, must
be a feasible optimal point of `reference_flow_milp`.

The central relaxation and the joint MILP as first assembled: variable
by variable and row by row through `add_var` and `add_row`, each
capacity fact worked out from the group where it is read.
`scaling._build_relaxation` and `milp.build_milp` append the same
variables and rows in blocks, from facts kept by PM index, and must
build byte-identical models and maps.

The central relaxation as first written: per-instance flow variables on
every arc, conservation, processing and endpoint-total rows, share
equalities over every pair of relevant PMs and one interest row per
relevant PM.  `scaling.build_overload_lp` / `build_underload_lp` solve
the same problem over shares and interests only, and every central
decision, with its flows routed on shortest paths, must be a feasible
optimal point of `reference_relaxation`.  Both flow models are built on
`netflow.FlowNet`.

The baseline cost as first written: the pinned overload LP built and
solved.  `scaling.baseline_forwarding_cost` prices the same optimum by
shortest paths and a fractional knapsack, and must match it.

The fat tree as first built: every link materialized in adjacency
lists and a link-cost map by the wiring loops.  `topology` stores only
the node tuples and derives neighbours, link costs and pods from the
node indices, and must give the same nodes, neighbours, costs and
listing.  The two references below walk this graph, so they share no
code with the closed form they check.

The forwarding cost as first written: the layered link cost of every
routed arc, summed flow by flow.  Decisions price their split by
`ScalingProblem.split_cost`, T * sum of fraction * u(q), and must match
this arc walk of their routed flows.

The shortest-path tree as first written: Dijkstra over NodeIds on the
wired tree, heap ties broken by node position.
`topology.source_distances` and `source_route` give each PM's cost and
route in closed form (up to the lowest shared layer and down, ties to
the lowest-indexed source and to switch 0 of a layer) and must give the
same distance bits and the same hops.
"""

import dataclasses
import functools
import heapq
import itertools
import math
from collections import namedtuple

import numpy as np
from scipy.optimize._highspy import _core as highs
from scipy.sparse import csr_array
from scipy.sparse._base import _spbase

from vnfscale import lp, milp, rpadmm, scaling
from vnfscale.chain_state import OVERLOAD, UNDERLOAD
from vnfscale.netflow import FlowNet
from vnfscale.topology import AGG, CORE, PM, TOR, NodeId


Violation = namedtuple("Violation", "row amount label")

# c and every row as (a, b, rel)
Matrices = namedtuple("Matrices", "c a b rel")

# a wired fat tree: node tuple, node -> neighbours in node order,
# node -> pod (-1 for a core switch), node -> position, and
# (i, j) -> cost of a link in either direction or of a PM self-pair
ReferenceTree = namedtuple("ReferenceTree", "nodes adj pod order cost")

# node kinds in the canonical order: PMs first, then up the tree
KINDS = (PM, TOR, AGG, CORE)


def export(model):
    """The objective and rows of an `LpModel` as scipy arrays."""
    n, m = model.num_vars, model.num_rows
    c = np.zeros(n)
    c[list(model.objective)] = list(model.objective.values())
    a = csr_array((np.array(model._data, dtype=float),
                   np.array(model._indices, dtype=int),
                   np.array(model._indptr, dtype=int)), shape=(m, n))
    return Matrices(c, a, np.array(model._rhs, dtype=float),
                    np.array(model._rel, dtype="<U2"))


def value(model, sol, name):
    """The solved value of model's first variable called name."""
    return float(sol.point[model.var_names.index(name)])


def system_from_model(model):
    """A hand-built equality model as a single-agent RP-ADMM system over
    its own CSR lists: no column scale and no row equilibration, so the
    arrays hold the model's bits."""
    n, mats = model.num_vars, export(model)
    return rpadmm.ReformulatedSystem(
        central=model, scale=np.ones(n), owners=["agent"] * n, c=mats.c,
        indptr=np.array(model._indptr, dtype=int),
        indices=np.array(model._indices, dtype=int),
        data=np.array(model._data, dtype=float), b=mats.b,
        lower=np.array(model.lower, dtype=float),
        upper=np.array(model.upper, dtype=float),
        row_family=[l.split("[", 1)[0] for l in model._labels])


def row_dicts(model):
    """Every row of an `LpModel` as a (coeffs dict, rel, rhs, label)
    tuple."""
    ptr, cols, vals = model._indptr, model._indices, model._data
    return tuple((dict(zip(cols[lo:hi], vals[lo:hi])), rel, rhs, label)
                 for lo, hi, rel, rhs, label
                 in zip(ptr, ptr[1:], model._rel, model._rhs, model._labels))


def reference_solve(model, fixed=None):
    """`lp.solve` on its own fresh HiGHS object, the rows loaded as
    columns: the same options, the same ranges for the rows, the pinned
    bounds and a cold run."""
    n, m, nnz = model.num_vars, model.num_rows, len(model._data)
    mats = export(model)
    col = np.fromiter(model._indices, int, nnz)
    order = np.argsort(col, kind="stable")
    row = np.repeat(np.arange(m), np.diff(model._indptr))
    hlp = highs.HighsLp()
    hlp.num_col_ = hlp.a_matrix_.num_col_ = n
    hlp.num_row_ = hlp.a_matrix_.num_row_ = m
    hlp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    hlp.a_matrix_.start_ = [0] + np.cumsum(np.bincount(col, minlength=n)).tolist()
    hlp.a_matrix_.index_ = row[order].tolist()
    hlp.a_matrix_.value_ = np.fromiter(model._data, float, nnz)[order].tolist()
    hlp.col_cost_ = mats.c
    hlp.col_lower_ = model.lower
    hlp.col_upper_ = model.upper
    hlp.row_lower_ = np.where(mats.rel == lp.LE, -np.inf, mats.b)
    hlp.row_upper_ = np.where(mats.rel == lp.GE, np.inf, mats.b)
    h = highs._Highs()
    for key, val in lp._OPTIONS.items():
        h.setOptionValue(key, val)
    if h.passModel(hlp) == highs.HighsStatus.kError:
        return lp.LpSolution(lp.INFEASIBLE, None, np.nan)
    lo, hi = np.array((model.lower, model.upper), dtype=float)
    for idx, val in (fixed or {}).items():
        lo[idx] = hi[idx] = val
    h.changeColsBounds(n, np.arange(n), lo, hi)
    h.run()
    status = lp._STATUS[h.getModelStatus()]
    if status != lp.OPTIMAL:
        return lp.LpSolution(status, None, np.nan)
    return lp.LpSolution(status, np.array(h.getSolution().col_value),
                         h.getObjectiveValue())


@functools.cache
def reference_fat_tree(k, pms_per_rack, layer_costs):
    """The k-fat-tree as first built, every link materialized: ToR
    p*k/2 + t of pod p attaches PMs (p*k/2 + t)*pms_per_rack onwards and
    links to each aggregation switch of its pod, and aggregation switch
    a of every pod uplinks to the k/2 core switches of core group a.
    Each adjacency list is sorted by node position.  `topology` stores
    no links; its closed form must give the same nodes, neighbours,
    costs and pods."""
    half = k // 2
    pod = {}
    for p in range(k):
        for t in range(half):
            for s in range(pms_per_rack):
                pod[NodeId(PM, (p * half + t) * pms_per_rack + s)] = p
    for p in range(k):
        for t in range(half):
            pod[NodeId(TOR, p * half + t)] = p
    for p in range(k):
        for a in range(half):
            pod[NodeId(AGG, p * half + a)] = p
    for c in range(half * half):
        pod[NodeId(CORE, c)] = -1

    nodes = tuple(sorted(pod, key=lambda v: (KINDS.index(v.kind), v.index)))
    cost = {(v, v): 0.0 for v in nodes if v.kind == PM}
    adj = {v: [] for v in nodes}
    pm_tor, tor_agg, agg_core = layer_costs

    def link(i, j, c):
        adj[i].append(j)
        adj[j].append(i)
        cost[(i, j)] = cost[(j, i)] = c

    for p in range(k):
        for t in range(half):
            tor = NodeId(TOR, p * half + t)
            for s in range(pms_per_rack):
                link(NodeId(PM, (p * half + t) * pms_per_rack + s), tor, pm_tor)
            for a in range(half):
                link(tor, NodeId(AGG, p * half + a), tor_agg)
        for a in range(half):
            agg = NodeId(AGG, p * half + a)
            for c in range(half):
                link(agg, NodeId(CORE, a * half + c), agg_core)

    order = {v: n for n, v in enumerate(nodes)}
    adj = {v: tuple(sorted(adj[v], key=order.__getitem__)) for v in nodes}
    return ReferenceTree(nodes, adj, pod, order, cost)


def forwarding_cost_of(flows_n, flows_m, topo):
    """Total layered cost of carrying the given flows: sum of
    F(i,j) * (n + m) over every arc, each F looked up in the wired
    reference tree.  Flow on a non-link pair is an error."""
    cost = reference_fat_tree(topo.k, topo.pms_per_rack, topo.layer_costs).cost
    total = 0.0
    for flows in (flows_n, flows_m):
        for (i, j, _d), val in flows.items():
            c = cost.get((i, j))
            if c is None:
                raise ValueError("nodes %s and %s are not linked" % (i, j))
            total += c * val
    return total


def record_sparse_builds(monkeypatch):
    """A list that collects the class of every scipy.sparse object built
    while monkeypatch holds: every format's constructor runs
    `_spbase.__init__`."""
    built = []
    real = _spbase.__init__

    def spy(self, *args, **kwargs):
        built.append(type(self).__name__)
        real(self, *args, **kwargs)

    monkeypatch.setattr(_spbase, "__init__", spy)
    return built


def system_csr(system):
    """An RP-ADMM system's scaled rows as a scipy CSR over its arrays."""
    return csr_array((system.data, system.indices, system.indptr),
                     shape=(len(system.b), len(system.c)))


def check_feasibility(model, point, tol=1e-8):
    """Per-row signed violations of a candidate point.

    Equality rows report lhs - rhs whenever |lhs - rhs| > tol; <= rows
    report positive excess, >= rows negative shortfall.  Empty result
    means the point is feasible within tol.
    """
    point = np.asarray(point, dtype=float)
    if point.shape != (model.num_vars,):
        raise ValueError("point covers %d variables, model has %d"
                         % (point.size, model.num_vars))
    mats = export(model)
    diff = mats.a @ point - mats.b
    bad = (((mats.rel == lp.EQ) & (np.abs(diff) > tol))
           | ((mats.rel == lp.LE) & (diff > tol))
           | ((mats.rel == lp.GE) & (diff < -tol)))
    bad = np.flatnonzero(bad).tolist()
    return [Violation(k, diff[k], model._labels[k]) for k in bad]


def _assignment_pins(mp, assign):
    return {idx: 1.0 if assign.get(j) == q else 0.0
            for (q, j), idx in mp.b_idx.items()}


def _passes_quick_filters(mp, assign):
    """Exact row implications used to skip provably infeasible
    assignments: per-PM capacity and total share coverage."""
    p = mp.problem
    members = {vm.id: vm for vm in list(p.group.online) + list(p.group.offline_pool)}
    if p.pm_capacity is not None:
        for r in p.group.omega:
            if r not in p.pm_capacity:
                continue
            load = {}
            for j, q in assign.items():
                if q is not None:
                    load[q] = load.get(q, 0.0) + members[j].capacity[r]
            for q, used in load.items():
                if used > p.pm_capacity[r][q] + 1e-9:
                    return False
    placed = sum(1 for q in assign.values() if q is not None)
    return placed * p.share_cap >= 1.0 - 1e-9


def enumerate_single_host(mp, prefilter=True):
    """Best total over all assignments of each VM to one PM or to none.

    Assignments putting a VM on two PMs violate the single-host row, so
    the LP would report them infeasible; they are skipped by shape.
    Returns (best objective, best assignment dict) or (None, None).
    """
    group = mp.problem.group
    keys = [vm.id for vm in (*group.online, *group.offline_pool)]
    options = [[None] + [q for q in mp.problem.topology.pms
                         if (q, j) in mp.b_idx] for j in keys]
    best_obj, best_assign = None, None
    for combo in itertools.product(*options):
        assign = dict(zip(keys, combo))
        if prefilter and not _passes_quick_filters(mp, assign):
            continue
        sol = lp.solve(mp.base, _assignment_pins(mp, assign))
        if sol.status != lp.OPTIMAL:
            continue
        if best_obj is None or sol.objective_value < best_obj - 1e-12:
            best_obj, best_assign = sol.objective_value, assign
    return best_obj, best_assign


def without_rows(mp, family):
    """A copy of a built MILP whose model lacks every row of one family
    (label up to its first "["), so an enumeration over it cannot share a
    cut the solver adds."""
    model = lp.LpModel(mp.base.name)
    for name, lo, hi in zip(mp.base.var_names, mp.base.lower, mp.base.upper):
        model.add_var(name, lo, hi)
    model.add_objective(mp.base.objective)
    for coeffs, rel, rhs, label in row_dicts(mp.base):
        if label.partition("[")[0] != family:
            model.add_row(coeffs, rel, rhs, label)
    return dataclasses.replace(mp, base=model)


def enumerate_all_bits(mp):
    """Literal sweep of every b vector in {0,1}^n, no shortcuts. Only
    sensible for small binary grids."""
    best_obj = None
    for bits in itertools.product((0.0, 1.0), repeat=len(mp.binaries)):
        sol = lp.solve(mp.base, dict(zip(mp.binaries, bits)))
        if sol.status != lp.OPTIMAL:
            continue
        if best_obj is None or sol.objective_value < best_obj:
            best_obj = sol.objective_value
    return best_obj


def family_rows(system):
    """Row indices of each constraint family, keyed in first-seen order."""
    rows = {fam: [] for fam in system.row_family}
    for t, fam in enumerate(system.row_family):
        rows[fam].append(t)
    return {fam: np.array(idx, dtype=int) for fam, idx in rows.items()}


def reference_family_max(res, fam_rows):
    """Each family's max |residual|, one np.max per family."""
    return {fam: (float(np.max(np.abs(res[idx]))) if len(idx) else 0.0)
            for fam, idx in fam_rows.items()}


def reference_normalize(cur, baseline):
    """`rpadmm._normalize` as first written, over family dicts."""
    fallback = max(baseline.values(), default=0.0)
    out = {}
    for fam, val in cur.items():
        scale = baseline.get(fam, 0.0)
        if scale <= 0.0:
            scale = fallback
        if scale > 0.0:
            out[fam] = min(1.0, val / scale)
        else:
            out[fam] = 0.0 if val == 0.0 else 1.0
    return out


def reference_message_footprint(system):
    """`rpadmm.message_footprint` as first written: the sparse pattern
    product pattern.T @ pattern, counted where the two owners differ."""
    a = system_csr(system)
    pattern = csr_array((np.ones(a.nnz), a.indices, a.indptr), shape=a.shape)
    shared = (pattern.T @ pattern).tocoo()
    codes = {}
    owner = np.array([codes.setdefault(system.owners[i], len(codes))
                      for i in range(a.shape[1])], dtype=int)
    return int(np.count_nonzero(owner[shared.row] != owner[shared.col]))


def reference_admm_run(system, cfg):
    """`rpadmm.run` with the original per-block loop and no divergence
    guard; returns (x, trace)."""
    csr = system_csr(system)
    nr, nv = csr.shape
    lo, hi = system.lower, system.upper
    cost = system.c
    csc = csr.tocsc()
    ptr, row_of, coef = csc.indptr.tolist(), csc.indices.tolist(), csc.data.tolist()
    cols = [list(zip(row_of[ptr[i]:ptr[i + 1]], coef[ptr[i]:ptr[i + 1]]))
            for i in range(nv)]

    x = np.zeros(nv)
    prev = x.copy()
    res = csr @ x - system.b
    duals = np.zeros(nr)

    fam_rows = family_rows(system)
    baseline = reference_family_max(res, fam_rows)
    trace = rpadmm.AdmmTrace(families=list(fam_rows), system=system)

    orders = rpadmm._sweep_orders(cfg, nv)
    rng = np.random.default_rng(cfg.seed)
    for it in range(1, cfg.max_iters + 1):
        if orders is not None:
            perm = orders[(it - 1) % len(orders)]
        else:
            perm = rng.permutation(nv)
        for i in perm:
            terms = [(a, res[t] - a * x[i] + duals[t]) for t, a in cols[i]]
            new = rpadmm.scalar_block_update(cost[i], terms, lo[i], hi[i],
                                             cfg.beta)
            step = new - x[i]
            if step != 0.0:
                for t, a in cols[i]:
                    res[t] += a * step
                x[i] = new
        duals += res

        objective = float(cost @ x)
        viol = reference_normalize(reference_family_max(res, fam_rows), baseline)
        trace.records.append(rpadmm.AdmmRecord(
            it, objective, viol, tuple(int(v) for v in perm),
            res.copy(), duals.copy()))
        moved = float(np.max(np.abs(x - prev))) if nv else 0.0
        peak = float(np.max(np.abs(x))) if nv else 0.0
        prev = x.copy()
        if max(viol.values(), default=0.0) <= cfg.primal_tol \
                and moved <= cfg.primal_tol * peak:
            trace.converged = True
            break
    return x, trace


def scaled_model(system):
    """The system as an `LpModel`: the central names and labels, the
    scaled bounds and cost, and each row's columns in CSR order with
    explicit zeros kept, built var by var and row by row the way
    `rpadmm.reformulate` once copied the central model."""
    central = system.central
    model = lp.LpModel(central.name + "_admm")
    for name, lo, hi in zip(central.var_names, system.lower.tolist(),
                            system.upper.tolist()):
        model.add_var(name, lo, hi)
    model.add_objective({i: system.c[i] for i in central.objective})
    ptr, cols = system.indptr.tolist(), system.indices.tolist()
    vals = system.data.tolist()
    for lo, hi, rhs, label in zip(ptr, ptr[1:], system.b.tolist(),
                                  central._labels):
        model.add_row(dict(zip(cols[lo:hi], vals[lo:hi])), lp.EQ, rhs, label)
    return model


def share_and_interest_vars(p, model, slots, share_pms):
    """Per slot, a share variable at each of share_pms and an interest
    variable at each candidate; returns the (PM, key) -> var maps (the
    share copies and the interests)."""
    cap = p.share_cap
    alpha_idx, e_idx = {}, {}
    for s in slots:
        for q in share_pms:
            alpha_idx[(q, s.key)] = model.add_var("alpha[%s,%s]" % (q, s.key), 0.0, cap)
        for q in s.candidates:
            e_idx[(q, s.key)] = model.add_var("e[%s,%s]" % (q, s.key), 0.0, 1.0)
    return alpha_idx, e_idx


def interest_rows(model):
    """One row per slot: its interests sum to its share, read at the
    first relevant PM."""
    lay = model.layout
    for s in lay.slots:
        coeffs = {lay.e_idx[(c, s.key)]: 1.0 for c in s.candidates}
        coeffs[lay.alpha_idx[s.key]] = -1.0
        model.add_row(coeffs, "=", 0.0, "interest[%s]" % s.key)


def add_slack(model, family, key, name):
    """A new slack variable `name`, recorded as key of the layout's slack
    block of family (each family's slacks are consecutive variables)."""
    slack = model.add_var(name)
    blocks = model.layout.slack_blocks
    if not blocks or blocks[-1][0] != family:
        blocks.append((family, slack, []))
    _, first, keys = blocks[-1]
    assert first + len(keys) == slack
    keys.append(key)
    return slack


def capacity_rows(p, model):
    """Every unit of interest must be backed by capacity on the PM (and,
    in overload, by a free slot); in underload each host keeps at most
    its online VMs.  u_r, the online counts and the free capacity are
    worked out from the group at each read."""
    lay = model.layout
    slots, rel_pms, e_idx = lay.slots, lay.rel_pms, lay.e_idx
    vm_cap = {r: p.group.vm_capacity(r) for r in p.capped}

    def online(q):
        return sum(1 for vm in p.group.online if vm.host == q)

    for q in rel_pms:
        here = [s for s in slots if (q, s.key) in e_idx]
        for r in vm_cap:
            coeffs = {e_idx[(q, s.key)]: p.traffic * p.group.omega[r] for s in here}
            slack = add_slack(model, "cap", (q, r), "cap_slack[%s,%s]" % (q, r))
            coeffs[slack] = 1.0
            model.add_row(coeffs, "=", p.pm_capacity[r][q], "cap[%s,%s]" % (q, r))
    if p.mode == OVERLOAD:
        for q in rel_pms:
            newer = [s for s in slots if s.vm_id is None and (q, s.key) in e_idx]
            for r in vm_cap:
                coeffs = {e_idx[(q, s.key)]: vm_cap[r] for s in newer}
                slack = add_slack(model, "slots", (q, r), "slot_slack[%s,%s]" % (q, r))
                coeffs[slack] = 1.0
                free = max(0.0, p.pm_capacity[r][q] - p.group.vm_capacity(r) * online(q))
                model.add_row(coeffs, "=", free, "slots[%s,%s]" % (q, r))
    else:
        for q in rel_pms:
            coeffs = {e_idx[(q, s.key)]: 1.0 for s in slots if (q, s.key) in e_idx}
            slack = add_slack(model, "keep", (q,), "keep_slack[%s]" % (q,))
            coeffs[slack] = 1.0
            model.add_row(coeffs, "=", float(online(q)), "keep[%s]" % (q,))


def reference_central_model(p):
    """`scaling._build_relaxation` as first assembled, the relevant PMs
    deduplicated by NodeId."""
    slots, _ = scaling._placement_slots(p)
    rel_pms = sorted(dict.fromkeys(q for s in slots for q in s.candidates),
                     key=p.topology.node_position)
    model = lp.LpModel("%s_lp" % p.mode)
    copies, e_idx = share_and_interest_vars(p, model, slots, rel_pms[:1])
    alpha_idx = {key: i for (_, key), i in copies.items()}
    model.add_objective({i: p.traffic * p.unit_cost(q) for (q, _), i in e_idx.items()})
    model.layout = scaling._Layout(slots, rel_pms, alpha_idx, e_idx)
    interest_rows(model)
    model.add_row(dict.fromkeys(alpha_idx.values(), 1.0), "=", 1.0, "coverage")
    capacity_rows(p, model)
    return model


def reference_build_milp(p):
    """`milp.build_milp` as first assembled: variable by variable and row
    by row, PMs looked up by NodeId."""
    group = p.group
    if not group.online:
        raise ValueError("group has no online VM")
    topo = p.topology
    model = lp.LpModel("milp")

    online_ids = [vm.id for vm in group.online]
    offline_ids = [vm.id for vm in group.offline_pool]
    keys = online_ids + offline_ids

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

    activate, retain = milp.PENALTIES[p.mode]
    offline = set(offline_ids)
    obj = {}
    for (q, j), idx in b_idx.items():
        obj[idx] = activate if j in offline else -retain
    for (q, j), idx in alpha_idx.items():
        obj[idx] = p.traffic * p.unit_cost(q)
    model.add_objective(obj)

    for (q, j), idx in alpha_idx.items():
        bi = b_idx[(q, j)]
        model.add_row({idx: 1.0, bi: -cap}, "<=", 0.0, "couple_hi[%s,%s]" % (q, j))
        model.add_row({bi: scaling.EPSILON, idx: -1.0}, "<=", 0.0, "couple_lo[%s,%s]" % (q, j))

    model.add_row({idx: 1.0 for idx in alpha_idx.values()}, "=", 1.0, "coverage")
    need = math.ceil((1.0 - 1e-9) / cap) if cap > 0 else 1
    model.add_row({idx: 1.0 for idx in binaries}, ">=", need, "cover")

    members = {vm.id: vm for vm in list(group.online) + list(group.offline_pool)}
    for q in topo.pms:
        for r in p.capped:
            coeffs = {b_idx[(q, j)]: members[j].capacity[r]
                      for j in keys if (q, j) in b_idx}
            if coeffs:
                model.add_row(coeffs, "<=", p.pm_capacity[r][q],
                              "capacity[%s,%s]" % (q, r))

    for j in keys:
        coeffs = {b_idx[(q, j)]: 1.0 for q in placeable[j]}
        if coeffs:
            model.add_row(coeffs, "<=", 1.0, "one_host[%s]" % (j,))

    return milp.MilpProblem(base=model, binaries=binaries, problem=p,
                            b_idx=b_idx, alpha_idx=alpha_idx)


def flow_skeleton(p, name):
    """Model with per-instance flow variables, a share copy at every
    relevant PM, interest variables and the forwarding objective on the
    flows, before any constraint rows.  The layout keys each slot's
    share by its copy at the first relevant PM, as the central layout
    does, and carries every copy as `share_copies` ((PM, key) -> var) and
    the flow net as `fv`."""
    slots, rel_pms = scaling._placement_slots(p)
    model = lp.LpModel(name)
    fv = FlowNet(p.topology, p.group.ingress_pms, p.group.egress_pms)
    fv.add_flow_vars(model, [s.key for s in slots])
    copies, e_idx = share_and_interest_vars(p, model, slots, rel_pms)
    model.add_objective(fv.objective_coeffs())
    model.layout = scaling._Layout(
        slots, rel_pms, {s.key: copies[(rel_pms[0], s.key)] for s in slots}, e_idx)
    model.layout.share_copies = copies
    model.layout.fv = fv
    return model


def reference_placement_rows(p, model):
    """The placement rows as first written: all-pairs `alpha_eq` rows
    over the unpinned instances, one `interest` row per relevant PM, the
    arrival rows tying the interests to the flows, and the capacity
    rows."""
    lay = model.layout
    slots, rel_pms, fv = lay.slots, lay.rel_pms, lay.fv
    alpha_idx, e_idx = lay.share_copies, lay.e_idx

    for s in slots:
        if s.host is not None or len(rel_pms) < 2:
            continue
        for a, qa in enumerate(rel_pms):
            for qb in rel_pms[a + 1:]:
                model.add_row({alpha_idx[(qa, s.key)]: 1.0,
                               alpha_idx[(qb, s.key)]: -1.0},
                              "=", 0.0, "alpha_eq[%s,%s,%s]" % (qa, qb, s.key))

    for s in slots:
        for q in rel_pms:
            coeffs = {e_idx[(c, s.key)]: 1.0 for c in s.candidates}
            idx = alpha_idx[(q, s.key)]
            coeffs[idx] = coeffs.get(idx, 0.0) - 1.0
            model.add_row(coeffs, "=", 0.0, "interest[%s,%s]" % (q, s.key))

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

    if p.pm_capacity is not None:
        vm_cap = {r: p.group.vm_capacity(r) for r in p.group.omega}
        for q in rel_pms:
            here = [s for s in slots if (q, s.key) in e_idx]
            for r in p.group.omega:
                if r not in p.pm_capacity:
                    continue
                coeffs = {e_idx[(q, s.key)]: p.traffic * p.group.omega[r] for s in here}
                slack = add_slack(model, "cap", (q, r), "cap_slack[%s,%s]" % (q, r))
                coeffs[slack] = 1.0
                model.add_row(coeffs, "=", p.pm_capacity[r][q], "cap[%s,%s]" % (q, r))
        if p.mode == OVERLOAD:
            for q in rel_pms:
                newer = [s for s in slots if s.vm_id is None and (q, s.key) in e_idx]
                for r in p.group.omega:
                    if r not in p.pm_capacity:
                        continue
                    coeffs = {e_idx[(q, s.key)]: vm_cap[r] for s in newer}
                    slack = add_slack(model, "slots", (q, r), "slot_slack[%s,%s]" % (q, r))
                    coeffs[slack] = 1.0
                    free = max(0.0, p.pm_capacity[r][q]
                               - vm_cap[r] * sum(vm.host == q for vm in p.group.online))
                    model.add_row(coeffs, "=", free, "slots[%s,%s]" % (q, r))
    if p.mode == UNDERLOAD:
        for q in rel_pms:
            coeffs = {e_idx[(q, s.key)]: 1.0 for s in slots if (q, s.key) in e_idx}
            slack = add_slack(model, "keep", (q,), "keep_slack[%s]" % (q,))
            coeffs[slack] = 1.0
            model.add_row(coeffs, "=", float(p.online_count(q)), "keep[%s]" % (q,))


def reference_relaxation(p):
    """The central relaxation of `p` over per-arc flows, with
    `reference_placement_rows`."""
    model = flow_skeleton(p, "%s_lp" % p.mode)
    fv = model.layout.fv
    fv.add_switch_conservation(model)
    fv.add_pm_processing(model, p.group.gamma)
    fv.add_ingress_total(model, p.traffic)
    fv.add_egress_total(model, p.traffic, p.group.gamma)
    reference_placement_rows(p, model)
    return model


def reference_baseline_cost(p):
    """`scaling.baseline_forwarding_cost` as first written: build the
    overload LP with every online VM pinned, at the baseline traffic, and
    solve it."""
    base = scaling.ScalingProblem(
        topology=p.topology, group=p.group, traffic=p.baseline_traffic,
        v_star=len(p.group.online), mode=OVERLOAD, pm_capacity=p.pm_capacity)
    sol = lp.solve(scaling.build_overload_lp(base))
    if sol.status != lp.OPTIMAL:
        raise scaling.ModelInfeasibleError("baseline configuration is %s" % sol.status)
    return sol.objective_value


def reference_flow_milp(p):
    """`milp.build_milp` as first written: the b/alpha grid plus one flow
    commodity per VM on every arc, arrival rows tying each share to the
    unprocessed flow into its PM, and the forwarding cost on the flows.
    The flow net rides along as `fv`."""
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

    activate, retain = milp.PENALTIES[p.mode]
    offline = set(offline_ids)
    model.add_objective({idx: activate if j in offline else -retain
                         for (q, j), idx in b_idx.items()})
    model.add_objective(fv.objective_coeffs())

    for (q, j), idx in alpha_idx.items():
        bi = b_idx[(q, j)]
        model.add_row({idx: 1.0, bi: -cap}, "<=", 0.0, "couple_hi[%s,%s]" % (q, j))
        model.add_row({bi: scaling.EPSILON, idx: -1.0}, "<=", 0.0, "couple_lo[%s,%s]" % (q, j))

    model.add_row({idx: 1.0 for idx in alpha_idx.values()}, "=", 1.0, "coverage")

    for j in keys:
        for q in topo.pms:
            coeffs = fv.inflow("n", q, j)
            if (q, j) in alpha_idx:
                idx = alpha_idx[(q, j)]
                coeffs[idx] = coeffs.get(idx, 0.0) - p.traffic
            model.add_row(coeffs, "=", 0.0, "arrival[%s,%s]" % (q, j))

    if p.pm_capacity is not None:
        members = {vm.id: vm for vm in list(group.online) + list(group.offline_pool)}
        for q in topo.pms:
            for r in p.group.omega:
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

    mp = milp.MilpProblem(base=model, binaries=binaries, problem=p,
                          b_idx=b_idx, alpha_idx=alpha_idx)
    mp.fv = fv
    return mp


@dataclasses.dataclass(frozen=True)
class PathTree:
    """Multi-source shortest-path tree: dist maps each reached node to its
    cost from the nearest source, parent to the next node on the way back
    to that source (None at a source)."""

    dist: dict
    parent: dict

    def hops(self, q):
        """Arcs (node, parent) from q back to its nearest source; a source
        is its own one-arc path (q, q)."""
        if self.parent[q] is None:
            return [(q, q)]
        arcs = []
        while self.parent[q] is not None:
            arcs.append((q, self.parent[q]))
            q = self.parent[q]
        return arcs


def reference_shortest_path_tree(topo, sources):
    """Multi-source Dijkstra over the wired reference tree from the source
    PMs.  Flow never passes through a PM, so only sources and switches
    are expanded; heap ties break by node position, then by the
    parent's position."""
    ref = reference_fat_tree(topo.k, topo.pms_per_rack, topo.layer_costs)
    sources = set(sources)
    dist, parent = {}, {}
    heap = [(0.0, ref.order[q], -1, q, None) for q in sources]
    heapq.heapify(heap)
    while heap:
        d, _, _, i, via = heapq.heappop(heap)
        if i in dist:
            continue
        dist[i] = d
        parent[i] = via
        if i.kind == PM and i not in sources:
            continue
        at = ref.order[i]
        for j in ref.adj[i]:
            if j not in dist:
                heapq.heappush(heap, (d + ref.cost[(i, j)], ref.order[j], at, j, i))
    return PathTree(dist, parent)

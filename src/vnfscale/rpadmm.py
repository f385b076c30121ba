"""Distributed scale-out solver: randomly permuted scalar ADMM.

The overload relaxation written over per-arc flows (the central model
prices those flows on shortest paths instead; here the switch agents
own them) couples nodes only through rows that span a node and all of
its neighbors.  Introducing one difference
variable per directed arc (owned by the arc's tail) splits every
conservation row into per-arc definitions plus a local zero sum, after
which each switch and PM owns every variable it updates and reads only
its neighbors' last announced values.  Each round draws a uniformly
random permutation of all scalar blocks, sweeps them Gauss-Seidel
style against the augmented Lagrangian, then ascends every scaled dual
by its row residual.

The lift adds each family of difference variables as one variable
range and its definition and zero-sum rows as one CSR row block.

The sweep runs on flat Python lists (each block's column, denominator,
-c/beta and bounds built once; x, residuals and scaled duals kept as
lists for the whole run), because indexing numpy arrays one element at
a time dominated it.  For a block with a quadratic term it writes out
`_minimizer`'s update and its min(max(x, lo), hi) clamp inline; a block
without one, or an update that is not finite, goes through `_minimizer`
itself.  `scalar_block_update` is its reference: the sweep performs the
same float operations in the same order, so its trace is byte-identical
to one `scalar_block_update` call per block.  One reduceat over the
rows gathered family by family gives every family's max |residual|.
"""

import io
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array

from . import lp, scaling
from .chain_state import OVERLOAD
from .netflow import FlowNet
from .topology import neighbors

# Classical multiplier aliases for the constraint families, for readers
# used to naming duals rather than rows.
DUAL_NAMES = {
    "delta": "a_def", "delta_bar": "a_sum",
    "eta": "b_def", "eta_bar": "b_sum",
    "zeta": "c_def", "zeta_bar": "c_sum",
    "lambda0": "d_def", "lambda0_bar": "d_sum",
    "lambda1": "e_def", "lambda1_bar": "e_sum",
    "mu": "alpha_eq", "xi": "interest",
    "sigma": "arrival_new", "rho": "arrival_online",
}


class UnboundedUpdateError(RuntimeError):
    """A block update has no quadratic term and an unbounded linear pull."""


class AdmmDivergenceError(RuntimeError):
    """Objective or residuals blew past the divergence limit; carries the
    partial trace as .trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class AdmmConfig:
    beta: float = 5.0
    max_iters: int = 25
    primal_tol: float = 1e-3       # stop when max normalized violation drops below
    seed: int = 0
    divergence_limit: float = 1e12
    permutations: object = None    # list of sweep orders; overrides the RNG

    def __post_init__(self):
        if not 0 < self.beta < np.inf:
            raise ValueError("beta must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must not be negative")
        if self.permutations is not None and len(self.permutations) == 0:
            raise ValueError("permutations must hold at least one sweep order")


@dataclass
class ReformulatedSystem:
    """Equality-row model over flow, share, interest, slack and difference
    variables, plus the agent bookkeeping the sweep needs."""

    model: object
    base_width: int = 0        # leading variables shared with the central model
    aux_def: dict = field(default_factory=dict)   # aux var -> its defining row
    owners: dict = field(default_factory=dict)    # var index -> owning agent
    row_family: list = field(default_factory=list)

    @property
    def families(self):
        return list(dict.fromkeys(self.row_family))


def _family_of(label):
    return label.split("[", 1)[0] if "[" in label else label


def _add_lift_block(model, tag, owners, aux_def, groups):
    """Add one difference variable per part and one row block holding,
    group by group, each part's definition row and then the group's
    zero sum over its parts; returns the rows' families.

    groups lists (node, d, parts), each part an ((i, j, d) arc, entries)
    pair whose entries are the definition row's (variable, coefficient)
    pairs in order, with None standing for the part's own difference
    variable, which node owns.  Names and labels are made on first read.
    """
    count = sum(len(parts) for _, _, parts in groups)
    var = model.add_vars(count, -np.inf, np.inf, lambda: [
        "%s[%s>%s,%s]" % ((tag.upper(),) + arc)
        for _, _, parts in groups for arc, _ in parts])
    row = model.num_rows
    cols, vals, lens, families = [], [], [], []
    for node, _, parts in groups:
        first = var
        for _, entries in parts:
            for col, coef in entries:
                cols.append(var if col is None else col)
                vals.append(coef)
            lens.append(len(entries))
            owners[var] = node
            aux_def[var] = row
            var += 1
            row += 1
        cols.extend(range(first, var))
        vals.extend([1.0] * (var - first))
        lens.append(var - first)
        families += [tag + "_def"] * (var - first) + [tag + "_sum"]
        row += 1

    def labels():
        out = []
        for node, d, parts in groups:
            out.extend("%s_def[%s>%s,%s]" % ((tag,) + arc) for arc, _ in parts)
            out.append("%s_sum[%s,%s]" % (tag, node, d))
        return out

    model.add_rows(np.cumsum([0] + lens), cols, vals, "=", 0.0, labels)
    return families


def _flow_skeleton(p, name):
    """Model with per-instance flow variables, a share copy at every
    relevant PM (one per PM agent), interest variables and the forwarding
    objective on the flows, before any constraint rows."""
    slots, rel_pms = scaling._placement_slots(p)
    model = lp.LpModel(name)
    fv = FlowNet(p.topology, p.group.ingress_pms, p.group.egress_pms)
    fv.add_flow_vars(model, [s.key for s in slots])
    alpha_idx, e_idx = scaling._share_and_interest_vars(p, model, slots, rel_pms)
    model.add_objective(fv.objective_coeffs(p.weights.forwarding))
    model.layout = scaling._Layout(p, slots, rel_pms, fv, alpha_idx, e_idx)
    return model


def _placement_rows(p, model):
    """Rows tying the share copies and interests to the flows: a chain of
    equalities between the copies, the central model's interest rows, the
    arrival rows and its capacity rows."""
    lay = model.layout
    slots, rel_pms, fv = lay.slots, lay.rel_pms, lay.fv
    alpha_idx, e_idx = lay.alpha_idx, lay.e_idx

    # each relevant PM holds a copy of an instance's share alpha: a chain
    # of equalities over consecutive PMs ties the copies, and the interest
    # row reads the first copy
    for s in slots:
        for qa, qb in zip(rel_pms, rel_pms[1:]):
            model.add_row({alpha_idx[(qa, s.key)]: 1.0,
                           alpha_idx[(qb, s.key)]: -1.0},
                          "=", 0.0, "alpha_eq[%s,%s,%s]" % (qa, qb, s.key))
    scaling._interest_rows(model)

    # arriving unprocessed traffic at each PM matches the placement signal;
    # summed against the ingress total these rows force sum(e) = 1
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

    scaling._capacity_rows(p, model)


def reformulate(p):
    """Lift the overload relaxation, written over per-arc flows, into
    per-agent form.

    Every switch conservation row becomes per-neighbor difference rows
    plus a zero sum, PM processing likewise, and the ingress/egress
    totals become per-instance tap variables whose sums carry T and
    T*gamma.  The arrival rows make the flows deliver exactly the
    interest split, so the lift's optimum is the central relaxation's,
    which prices that split on shortest paths.  The switch and PM parts
    are added as one variable range and one row block each.
    """
    if p.mode != OVERLOAD:
        raise ValueError("only the overload model has a distributed form")
    model = _flow_skeleton(p, "overload_admm")
    lay = model.layout
    fv, topo = lay.fv, p.topology
    n_idx, m_idx = fv.n_idx, fv.m_idx
    keys = [s.key for s in lay.slots]
    gamma = p.group.gamma
    _placement_rows(p, model)
    base_width = model.num_vars
    row_family = [_family_of(l) for l in model.row_labels()]

    owners = {}
    for (i, _, _), idx in n_idx.items():
        owners[idx] = i
    for (i, _, _), idx in m_idx.items():
        owners[idx] = i
    for (q, _), idx in lay.alpha_idx.items():
        owners[idx] = q
    for (q, _), idx in lay.e_idx.items():
        owners[idx] = q
    for tag, idx in lay.slack_idx.items():
        owners[idx] = tag[1]
    ingress_agent = min(fv.ingress, key=topo.node_position)
    egress_agent = min(fv.egress, key=topo.node_position)

    aux_def = {}

    # switch conservation, per flow leg: arc difference + local zero sum
    adjacent = {sw: neighbors(topo, sw) for sw in topo.switches}
    for idx_map, tag in ((n_idx, "a"), (m_idx, "b")):
        row_family += _add_lift_block(model, tag, owners, aux_def, [
            (sw, d, [((sw, j, d), [(idx_map[(sw, j, d)], 1.0),
                                   (idx_map[(j, sw, d)], -1.0), (None, -1.0)])
                     for j in nbrs])
            for sw, nbrs in adjacent.items() for d in keys])

    # PM processing: processed out minus gamma times unprocessed in, per
    # arc; a PM running an instance on an ingress/egress gateway also
    # carries its internal self-arc as one more part
    groups = []
    for q in topo.pms:
        nbrs = neighbors(topo, q)
        for d in keys:
            ends = list(nbrs)
            if (q, q, d) in n_idx or (q, q, d) in m_idx:
                ends.append(q)
            parts = []
            for j in ends:
                entries = [(None, -1.0)]
                m_out = m_idx.get((q, j, d))
                if m_out is not None:
                    entries.append((m_out, 1.0))
                n_in = n_idx.get((j, q, d))
                if n_in is not None:
                    entries.append((n_in, 0.0 - gamma))
                parts.append(((q, j, d), entries))
            groups.append((q, d, parts))
    row_family += _add_lift_block(model, "c", owners, aux_def, groups)

    # per-instance ingress/egress taps whose sums carry the endpoint totals
    taps = []
    for d in keys:
        dv = model.add_var("D[%s]" % d)
        owners[dv] = ingress_agent
        coeffs = {}
        for q in fv.ingress:
            coeffs.update(fv.outflow("n", q, d))
        coeffs[dv] = -1.0
        aux_def[dv] = model.add_row(coeffs, "=", 0.0, "d_def[%s]" % d)
        taps.append(dv)
    model.add_row({i: 1.0 for i in taps}, "=", p.traffic, "d_sum")
    taps = []
    for d in keys:
        ev = model.add_var("E[%s]" % d)
        owners[ev] = egress_agent
        coeffs = {}
        for q in fv.egress:
            coeffs.update(fv.inflow("m", q, d))
        coeffs[ev] = -1.0
        aux_def[ev] = model.add_row(coeffs, "=", 0.0, "e_def[%s]" % d)
        taps.append(ev)
    model.add_row({i: 1.0 for i in taps}, "=", p.traffic * gamma, "e_sum")
    for tag in ("d", "e"):
        row_family += [tag + "_def"] * len(keys) + [tag + "_sum"]

    system = ReformulatedSystem(
        model=model, base_width=base_width, aux_def=aux_def,
        owners=owners, row_family=row_family)
    agent_partition(system)   # fail fast on any orphan block
    return system


def system_from_model(model, owner="agent"):
    """Wrap a hand-built equality model as a single-agent system, mainly
    for small reference instances in tests."""
    return ReformulatedSystem(
        model=model, base_width=model.num_vars,
        owners={i: owner for i in range(model.num_vars)},
        row_family=[_family_of(l) for l in model.row_labels()])


def lift_point(system, base_point):
    """Extend a central-model point over the difference variables by
    evaluating their defining rows, which read only base variables and
    hold their own variable with coefficient -1."""
    model = system.model
    x = np.zeros(model.num_vars)
    x[:system.base_width] = np.asarray(base_point, dtype=float)
    aux = sorted(system.aux_def)
    rows = [system.aux_def[i] for i in aux]
    mats = model.matrices()
    x[aux] = mats.a[rows] @ x - mats.b[rows]
    return x


def agent_partition(system):
    """Owning agent of every scalar block; an orphan block means the
    system was built wrong."""
    out = {}
    for i in range(system.model.num_vars):
        if i not in system.owners:
            raise RuntimeError("block %r has no owning agent"
                               % system.model.var_names[i])
        out[i] = system.owners[i]
    return out


def message_footprint(system):
    """Total distinct foreign values the agents read per sweep: for each
    block, the variables sharing a row with it but owned elsewhere."""
    a = system.model.matrices().a
    pattern = csr_array((np.ones(a.nnz), a.indices, a.indptr), shape=a.shape)
    shared = (pattern.T @ pattern).tocoo()
    codes = {}
    owner = np.array([codes.setdefault(system.owners[i], len(codes))
                      for i in range(a.shape[1])], dtype=int)
    return int(np.count_nonzero(owner[shared.row] != owner[shared.col]))


def _minimizer(c, denom, pull, lo, hi, beta):
    """Clamped minimizer of  c*x + (beta/2) * (denom*x^2 + 2*pull*x)  on
    [lo, hi]; with no quadratic term it sits at the bound the cost
    points to."""
    if denom > 0.0:
        x = (-c / beta - pull) / denom
    elif c > 0.0:
        x = lo
    elif c < 0.0:
        x = hi
    else:
        x = 0.0
    x = min(max(x, lo), hi)
    if not math.isfinite(x):
        raise UnboundedUpdateError(
            "block update has no quadratic term and runs off to %r" % x)
    return float(x)


def scalar_block_update(c, terms, lo, hi, beta):
    """Exact minimizer of  c*x + (beta/2) * sum_t (a_t*x + r_t)^2  on
    [lo, hi]; every primal update in the sweep is an instance of this,
    and it is the reference the sweep is tested against."""
    denom = 0.0
    pull = 0.0
    for a, r in terms:
        denom += a * a
        pull += a * r
    return _minimizer(c, denom, pull, lo, hi, beta)


class _Families:
    """Row families in first-seen order, with their rows gathered family
    by family so one reduceat gives every family's max |residual|."""

    def __init__(self, row_family):
        rows = {}
        for t, fam in enumerate(row_family):
            rows.setdefault(fam, []).append(t)
        self.names = list(rows)
        self.order = np.array([t for idx in rows.values() for t in idx], dtype=int)
        self.starts = np.cumsum([0] + [len(idx) for idx in rows.values()])[:-1]

    def max_abs(self, res):
        peaks = np.maximum.reduceat(np.abs(res)[self.order], self.starts)
        return dict(zip(self.names, peaks.tolist()))


def _normalize(cur, baseline):
    """Violations scaled per family by its initial residual.  A family
    that starts satisfied borrows the largest initial residual in the
    system as its scale; everything is capped at 1."""
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


def _residuals(model, point):
    mats = model.matrices()
    return mats.a @ point - mats.b


def normalized_violations(point, system, baseline=None):
    """Per-family normalized violation of a point; the baseline defaults
    to the residuals of the all-zero start."""
    fams = _Families(system.row_family)
    if baseline is None:
        baseline = fams.max_abs(
            _residuals(system.model, np.zeros(system.model.num_vars)))
    cur = fams.max_abs(_residuals(system.model, np.asarray(point, float)))
    return _normalize(cur, baseline)


@dataclass
class AdmmRecord:
    iteration: int
    objective: float
    violations: dict
    permutation: tuple
    messages_sent: int
    residuals: object          # raw row residuals after the sweep
    duals: object              # scaled duals after the ascent


@dataclass
class AdmmTrace:
    families: list
    baseline: dict             # per-family max |residual| at the start point
    messages_per_sweep: int
    records: list = field(default_factory=list)
    converged: bool = False

    @property
    def objectives(self):
        return [r.objective for r in self.records]

    def csv(self):
        out = io.StringIO()
        out.write("iteration,objective,%s,messages_sent\n"
                  % ",".join("violation_%s" % f for f in self.families))
        for r in self.records:
            out.write("%d,%.10g,%s,%d\n"
                      % (r.iteration, r.objective,
                         ",".join("%.6g" % r.violations.get(f, 0.0)
                                  for f in self.families),
                         r.messages_sent))
        return out.getvalue()


def _sweep_orders(cfg, num_vars):
    if cfg.permutations is None:
        return None
    checked = []
    want = np.arange(num_vars)
    for order in cfg.permutations:
        arr = np.asarray(order, dtype=int)
        if not np.array_equal(np.sort(arr), want):
            raise ValueError("override is not a permutation of all %d blocks"
                             % num_vars)
        checked.append(arr)
    return checked


def run(system, cfg=None):
    """Randomly permuted ADMM over the reformulated system.

    Returns (point, trace).  Each round: draw a sweep order, update
    every scalar block against the most recent values of everything
    else, then add each row's residual onto its scaled dual.  Stops at
    max_iters or once the largest normalized violation falls under
    primal_tol; raises AdmmDivergenceError past the divergence limit.
    """
    cfg = cfg if cfg is not None else AdmmConfig()
    model = system.model
    nv, nr = model.num_vars, model.num_rows
    mats = model.matrices()
    bad = np.flatnonzero(mats.rel != lp.EQ)
    if bad.size:
        raise ValueError("the sweep needs equality rows, got %r in %r"
                         % (str(mats.rel[bad[0]]), model.row_labels()[bad[0]]))

    lo, hi = model.lower, model.upper
    cost = mats.c
    c_list = cost.tolist()
    beta = cfg.beta
    csc = mats.a.tocsc()
    ptr, row_of, coef = csc.indptr.tolist(), csc.indices.tolist(), csc.data.tolist()
    blocks = []   # per block: its (row, coefficient) column, denom, -c/beta, lo, hi
    for i in range(nv):
        col = list(zip(row_of[ptr[i]:ptr[i + 1]], coef[ptr[i]:ptr[i + 1]]))
        denom = 0.0
        for _, a in col:
            denom += a * a
        blocks.append((col, denom, -c_list[i] / beta, lo[i], hi[i]))

    res = _residuals(model, np.zeros(nv))
    fams = _Families(system.row_family)
    baseline = fams.max_abs(res)
    messages = message_footprint(system)
    trace = AdmmTrace(families=fams.names, baseline=baseline,
                      messages_per_sweep=messages)

    orders = _sweep_orders(cfg, nv)
    rng = np.random.default_rng(cfg.seed)
    inf = math.inf
    # x, the residuals and the scaled duals stay lists for the whole run
    xs, rs, us = [0.0] * nv, res.tolist(), [0.0] * nr
    for it in range(1, cfg.max_iters + 1):
        if orders is not None:
            perm = orders[(it - 1) % len(orders)]
        else:
            perm = rng.permutation(nv)
        perm = tuple(perm.tolist())
        # Same float operations, in the same order, as one
        # scalar_block_update call per block: the denom > 0 branch of
        # _minimizer and its min(max(x, lo), hi) clamp are written out
        # here; every other case goes through _minimizer itself.
        for i in perm:
            col, denom, neg_c_over_beta, lo_i, hi_i = blocks[i]
            xi = xs[i]
            pull = 0.0
            for t, a in col:
                pull += a * (rs[t] - a * xi + us[t])
            if denom > 0.0:
                new = (neg_c_over_beta - pull) / denom
                if new < lo_i:
                    new = lo_i
                if new > hi_i:
                    new = hi_i
                if not -inf < new < inf:
                    new = _minimizer(c_list[i], denom, pull, lo_i, hi_i, beta)
            else:
                new = _minimizer(c_list[i], denom, pull, lo_i, hi_i, beta)
            step = new - xi
            if step != 0.0:
                for t, a in col:
                    rs[t] += a * step
                xs[i] = new
        us = [u + r for u, r in zip(us, rs)]
        x, res, duals = np.array(xs), np.array(rs), np.array(us)

        objective = float(cost @ x)
        viol = _normalize(fams.max_abs(res), baseline)
        trace.records.append(AdmmRecord(
            it, objective, viol, perm, messages, res, duals))
        raw = float(np.max(np.abs(res))) if nr else 0.0
        if not np.isfinite(objective) or abs(objective) > cfg.divergence_limit \
                or raw > cfg.divergence_limit:
            raise AdmmDivergenceError(
                "diverged at iteration %d: objective %.3g, max residual %.3g"
                % (it, objective, raw), trace)
        if max(viol.values(), default=0.0) <= cfg.primal_tol:
            trace.converged = True
            break
    return x, trace

"""Distributed solver: randomly permuted scalar ADMM on the central relaxation.

The central model (`scaling.build_overload_lp` / `build_underload_lp`)
is already over shares, interests and slacks, with every row an
equality, so it is split into scalar blocks as it stands: PM q owns
every interest e[q,s] and its own capacity slacks, a pinned share
belongs to its host and a new share to the first relevant PM.  The
owners are read from the layout (each slot's share by its slot key, the
slacks by their blocks) and each row's family from its row block
(`LpModel.row_families`), so no name or label is formatted.  Each
round draws a uniformly random permutation of all scalar blocks, sweeps
them Gauss-Seidel style against the augmented Lagrangian, then ascends
every scaled dual by its row residual.

Before the sweep the model is put in traffic units: every share and
interest column is multiplied by T (by 1 when T = 0) and its cost
divided by T, so x' = T x and the objective is unchanged; then each row
is divided by its largest |coefficient| (l-infinity equilibration;
Ruiz, RAL-TR-2001-034).  Slacks keep their units.  The scale follows
the units and is not tuned.  There is no second model and no scipy
matrix: the system is the central model's own CSR lists, read into
plain arrays and scaled in one vectorized pass, and
`ReformulatedSystem.unscale` maps a point back onto the central model,
which decodes it.

A run stops when the residuals are small and the point has stopped
moving: every normalized violation is at most primal_tol, and no block
moved by more than primal_tol * max|x| in the sweep (the primal and the
dual residual together; Boyd et al., 2011, section 3.3).  At
primal_tol = 0 that is an exact fixed point, which is a KKT point.

A trace reads its messages per sweep from the system it ran on: the
system counts them (`message_footprint`) on the first read, as the trace
CSV does, and keeps the count; a run whose count is never read never
works it out.

The sweep runs on flat Python lists (each block's column, taken by a
Python transpose of the CSR arrays, its denominator, -c/beta and bounds
built once; x, residuals and scaled duals kept as lists for the whole
run), because indexing numpy arrays one element at a time dominated it.
For a block with a quadratic term it writes out `_minimizer`'s update
and its min(max(x, lo), hi) clamp inline; a block without one, or an
update that is not finite, goes through `_minimizer` itself, which
raises UnboundedUpdateError on a result that is not finite, saying
whether the block had no quadratic term or overflowed.
`scalar_block_update` is its reference: the sweep performs the same
float operations in the same order, so its trace is byte-identical to
one `scalar_block_update` call per block.  The start residual is
`_residuals` at the all-zero point, with the float operations of
scipy's CSR product.  After each sweep the lists become one array (x,
the residuals, a 0.0 and the duals), and one reduceat over its
|residual| part gives every family's peak and the overall max the
divergence test reads.
"""

import functools
import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import lp, scaling
from .chain_state import OVERLOAD


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
    primal_tol: float = 1e-3       # stop when violations and moves drop below
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
    """The central model in the sweep's units, and the agent owning each
    scalar block.  Cost, rows and bounds are those of `central` with
    each column multiplied by `scale` and each row divided by its peak;
    the rows are a CSR held as three plain arrays (`indptr`, `indices`,
    `data`) with the central pattern, explicit zeros included.  Its
    point is `scale` times a point of `central`, the model decode reads.
    A block without an owner is a construction fault and raises
    RuntimeError when the system is built."""

    central: object
    scale: object              # per-column scale, an array
    owners: list               # per block, its owning agent
    c: object
    indptr: object             # the scaled rows' CSR
    indices: object
    data: object
    b: object
    lower: object
    upper: object
    row_family: list

    def __post_init__(self):
        for i in range(len(self.c)):
            if i >= len(self.owners) or self.owners[i] is None:
                raise RuntimeError("block %r has no owning agent"
                                   % self.central.var_names[i])

    @functools.cached_property
    def messages_per_sweep(self):
        return message_footprint(self)

    def unscale(self, x):
        """The point of the central model that x stands for."""
        return x / self.scale


def _scaled(central, owners, scale):
    """The system over central's CSR lists with each column multiplied
    by scale and each row divided by its largest |coefficient|, each row
    in its block's family (`LpModel.row_families`, no label formatted).
    The sweep needs equality rows."""
    for t, rel in enumerate(central._rel):
        if rel != lp.EQ:
            raise ValueError("the sweep needs equality rows, got %r in %r"
                             % (rel, central._labels[t]))
    m, nnz, obj = central.num_rows, len(central._data), central.objective
    c = np.zeros(central.num_vars)
    c[np.fromiter(obj, int, len(obj))] = np.fromiter(obj.values(), float,
                                                     len(obj))
    indptr = np.fromiter(central._indptr, int, m + 1)
    indices = np.fromiter(central._indices, int, nnz)
    data = np.fromiter(central._data, float, nnz) / scale[indices]
    rows = np.repeat(np.arange(m), np.diff(indptr))
    peak = np.zeros(m)
    np.maximum.at(peak, rows, np.abs(data))
    return ReformulatedSystem(
        central=central, scale=scale, owners=owners, c=c / scale,
        indptr=indptr, indices=indices, data=data / peak[rows],
        b=np.fromiter(central._rhs, float, m) / peak,
        lower=np.asarray(central.lower) * scale,
        upper=np.asarray(central.upper) * scale,
        row_family=central.row_families())


def reformulate(p):
    """The central relaxation of p in per-agent form, in traffic units
    and with each row divided by its peak (see the module docstring)."""
    build = (scaling.build_overload_lp if p.mode == OVERLOAD
             else scaling.build_underload_lp)
    central = build(p)
    lay = central.layout
    owners = [None] * central.num_vars
    for s in lay.slots:
        owners[lay.alpha_idx[s.key]] = lay.rel_pms[0] if s.host is None else s.host
    for (q, _), i in lay.e_idx.items():
        owners[i] = q
    for _, first, keys in lay.slack_blocks:
        owners[first:first + len(keys)] = [key[0] for key in keys]
    scale = np.ones(central.num_vars)
    scale[list(lay.alpha_idx.values()) + list(lay.e_idx.values())] = \
        p.traffic if p.traffic > 0 else 1.0
    return _scaled(central, owners, scale)


def message_footprint(system):
    """Total distinct foreign values the agents read per sweep: for each
    block, the variables sharing a row with it but owned elsewhere."""
    ptr, cols = system.indptr.tolist(), system.indices.tolist()
    codes = {}
    owner = [codes.setdefault(agent, len(codes)) for agent in system.owners]
    rows_of = [[] for _ in owner]       # per column, the rows holding it
    for lo, hi in zip(ptr, ptr[1:]):
        row = cols[lo:hi]
        for i in row:
            rows_of[i].append(row)
    total = 0
    for i, rows in enumerate(rows_of):
        mine = owner[i]
        total += sum(1 for k in set().union(*rows) if owner[k] != mine)
    return total


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
        if denom == 0.0:
            raise UnboundedUpdateError(
                "block update has no quadratic term and runs off to %g" % x)
        raise UnboundedUpdateError(
            "block update overflows (quadratic term %g) and runs off to %g"
            % (denom, x))
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
    """Row families in first-seen order.  Reading the residuals with one
    0.0 appended, it gathers the rows family by family and then every
    row and the 0.0, so one reduceat gives each family's max |residual|
    and, last, the max over all rows (0.0 when there are none)."""

    def __init__(self, row_family):
        rows = {}
        for t, fam in enumerate(row_family):
            rows.setdefault(fam, []).append(t)
        self.names = list(rows)
        self.gather = np.array([t for idx in rows.values() for t in idx]
                               + list(range(len(row_family) + 1)), dtype=int)
        self.starts = np.array(list(itertools.accumulate(
            [0] + [len(idx) for idx in rows.values()])), dtype=int)

    def peaks(self, padded):
        """Each family's max |residual| and then the overall max, as a
        list, from the residuals followed by a 0.0."""
        return np.maximum.reduceat(np.abs(padded[self.gather]),
                                   self.starts).tolist()


def _scales(baseline):
    """Each family's normalizing scale, from the list of initial peaks:
    its own, or for a family that starts satisfied the largest one."""
    fallback = max(baseline, default=0.0)
    return [fallback if scale <= 0.0 else scale for scale in baseline]


def _normalize(names, peaks, scales):
    """Violations per family, each peak divided by its scale and capped
    at 1; with no scale at all a violation is 0 or 1."""
    return {fam: (min(1.0, val / scale) if scale > 0.0
                  else 0.0 if val == 0.0 else 1.0)
            for fam, val, scale in zip(names, peaks, scales)}


def _residuals(system, point):
    """a @ point - b with the float operations of scipy's CSR product:
    each row's terms added onto +0.0 in CSR order, then b subtracted."""
    terms = (system.data * point[system.indices]).tolist()
    ptr = system.indptr.tolist()
    out = []
    for lo, hi, rhs in zip(ptr, ptr[1:], system.b.tolist()):
        total = 0.0
        for v in terms[lo:hi]:
            total += v
        out.append(total - rhs)
    return np.array(out)


def _columns(system):
    """Each block's column as (row, coefficient) pairs in row order: the
    transpose of the CSR lists, explicit zeros kept, with the entries
    and order of scipy's tocsc()."""
    cols = [[] for _ in range(len(system.c))]
    ptr, idx = system.indptr.tolist(), system.indices.tolist()
    coef = system.data.tolist()
    for t, (lo, hi) in enumerate(zip(ptr, ptr[1:])):
        for i, a in zip(idx[lo:hi], coef[lo:hi]):
            cols[i].append((t, a))
    return cols


@dataclass
class AdmmRecord:
    iteration: int
    objective: float
    violations: dict
    permutation: tuple
    residuals: object          # raw row residuals after the sweep
    duals: object              # scaled duals after the ascent


class AdmmTrace:
    """The records of one run on `system`, whose messages_per_sweep it
    reports."""

    def __init__(self, families, system):
        self.families = families
        self._system = system
        self.records = []
        self.converged = False

    @property
    def messages_per_sweep(self):
        return self._system.messages_per_sweep

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
                         self.messages_per_sweep))
        return out.getvalue()


def _settled(violations, prev, x, tol):
    """The stop test: every normalized violation is at most tol, and the
    sweep from prev to x moved no block by more than tol * max|x|."""
    if max(violations.values(), default=0.0) > tol:
        return False
    peak = np.maximum.reduce
    return not x.size or peak(np.abs(x - prev)) <= tol * peak(np.abs(x))


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
    max_iters or once the largest normalized violation is at most
    primal_tol and no block moved by more than primal_tol * max|x| in
    the sweep; raises AdmmDivergenceError past the divergence limit.
    """
    cfg = cfg if cfg is not None else AdmmConfig()
    nr, nv = len(system.b), len(system.c)
    lo, hi = system.lower.tolist(), system.upper.tolist()
    cost = system.c
    c_list = cost.tolist()
    beta = cfg.beta
    blocks = []   # per block: its (row, coefficient) column, denom, -c/beta, lo, hi
    for i, col in enumerate(_columns(system)):
        denom = 0.0
        for _, a in col:
            denom += a * a
        blocks.append((col, denom, -c_list[i] / beta, lo[i], hi[i]))

    rs = _residuals(system, np.zeros(nv)).tolist()
    fams = _Families(system.row_family)
    *start, _ = fams.peaks(np.array(rs + [0.0]))
    scales = _scales(start)
    trace = AdmmTrace(families=fams.names, system=system)

    orders = _sweep_orders(cfg, nv)
    rng = np.random.default_rng(cfg.seed) if orders is None else None
    inf = math.inf
    # x, the residuals and the scaled duals stay lists for the whole run
    xs, us = [0.0] * nv, [0.0] * nr
    x = np.zeros(nv)
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
        # one array per sweep: x, the residuals, a 0.0 for the family
        # peaks, then the scaled duals
        buf = np.array(xs + rs + [0.0] + us)
        prev, x = x, buf[:nv]
        res, duals = buf[nv:nv + nr], buf[nv + nr + 1:]

        objective = float(cost @ x)
        *peaks, raw = fams.peaks(buf[nv:])
        viol = _normalize(fams.names, peaks, scales)
        trace.records.append(AdmmRecord(
            it, objective, viol, perm, res, duals))
        if not math.isfinite(objective) or abs(objective) > cfg.divergence_limit \
                or raw > cfg.divergence_limit:
            raise AdmmDivergenceError(
                "diverged at iteration %d: objective %.3g, max residual %.3g"
                % (it, objective, raw), trace)
        if _settled(viol, prev, x, cfg.primal_tol):
            trace.converged = True
            break
    return x, trace

"""Reference implementations the solvers are checked against.

Brute force for the joint placement model: enumerates placement
assignments directly and LP-solves the continuous part for each, so the
branch-and-bound can be checked against an implementation that shares
none of its search logic.

The RP-ADMM sweep as first written: numpy element indexing and one
`scalar_block_update` call per block.  `rpadmm.run` must reproduce it
byte for byte.
"""

import itertools

import numpy as np

from vnfscale import lp, rpadmm


def _assignment_bounds(mp, assign):
    model = mp.base
    bounds = list(zip(model.lower, model.upper))
    for (q, j), idx in mp.b_idx.items():
        val = 1.0 if assign.get(j) == q else 0.0
        bounds[idx] = (val, val)
    return bounds


def _passes_quick_filters(mp, assign):
    """Exact row implications used to skip provably infeasible
    assignments: per-PM capacity and total share coverage."""
    p = mp.problem
    members = {vm.id: vm for vm in list(p.group.online) + list(p.group.offline_pool)}
    if p.pm_capacity is not None:
        for r in p.resources:
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
    keys = mp.online_ids + mp.offline_ids
    options = [[None] + [q for q in mp.problem.topology.pms
                         if (q, j) in mp.b_idx] for j in keys]
    best_obj, best_assign = None, None
    for combo in itertools.product(*options):
        assign = dict(zip(keys, combo))
        if prefilter and not _passes_quick_filters(mp, assign):
            continue
        sol = lp.solve(mp.base, bounds_override=_assignment_bounds(mp, assign))
        if sol.status != lp.OPTIMAL:
            continue
        if best_obj is None or sol.objective_value < best_obj - 1e-12:
            best_obj, best_assign = sol.objective_value, assign
    return best_obj, best_assign


def enumerate_all_bits(mp):
    """Literal sweep of every b vector in {0,1}^n, no shortcuts. Only
    sensible for small binary grids."""
    model = mp.base
    base_bounds = list(zip(model.lower, model.upper))
    indices = list(mp.binaries)
    best_obj = None
    for bits in itertools.product((0.0, 1.0), repeat=len(indices)):
        bounds = list(base_bounds)
        for idx, val in zip(indices, bits):
            bounds[idx] = (val, val)
        sol = lp.solve(model, bounds_override=bounds)
        if sol.status != lp.OPTIMAL:
            continue
        if best_obj is None or sol.objective_value < best_obj:
            best_obj = sol.objective_value
    return best_obj


def reference_admm_run(system, cfg):
    """`rpadmm.run` with the original per-block loop and no divergence
    guard; returns (x, trace)."""
    model = system.model
    nv, nr = model.num_vars, model.num_rows
    mats = model.matrices()
    lo, hi = np.asarray(model.lower), np.asarray(model.upper)
    cost = mats.c
    csc = mats.a.tocsc()
    ptr, row_of, coef = csc.indptr.tolist(), csc.indices.tolist(), csc.data.tolist()
    cols = [list(zip(row_of[ptr[i]:ptr[i + 1]], coef[ptr[i]:ptr[i + 1]]))
            for i in range(nv)]

    x = np.zeros(nv)
    res = rpadmm._residuals(model, x)
    duals = np.zeros(nr)

    fam_rows = rpadmm._family_rows(system)
    baseline = rpadmm._family_max(res, fam_rows)
    messages = rpadmm.message_footprint(system)
    trace = rpadmm.AdmmTrace(families=system.families, baseline=baseline,
                             messages_per_sweep=messages)

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

        objective = float(cost @ x) + model.obj_const
        viol = rpadmm._normalize(rpadmm._family_max(res, fam_rows), baseline)
        trace.records.append(rpadmm.AdmmRecord(
            it, objective, viol, tuple(int(v) for v in perm),
            messages, res.copy(), duals.copy()))
        if max(viol.values(), default=0.0) <= cfg.primal_tol:
            trace.converged = True
            break
    return x, trace

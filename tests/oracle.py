"""Brute-force reference for the joint placement model.

Enumerates placement assignments directly and LP-solves the continuous
part for each, so the branch-and-bound can be checked against an
implementation that shares none of its search logic.
"""

import itertools

import numpy as np

from vnfscale import lp


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

"""Sparse linear-program container and exact solver.

LpModel is a plain registry of variables (name, bounds), a sparse
linear objective and relational rows.  matrices() exports the objective
and rows as arrays for every reader of the rows: a CSR in model row
order, each row's coefficients in insertion order with explicit zeros
kept, plus the split linprog takes.  The export is cached until
add_var, add_row or add_objective; bounds stay out of it, so
branch-and-bound nodes share one export.  solve() hands it to scipy's
HiGHS dual simplex, which is deterministic for a fixed model and
returns a basic (vertex) optimal point; that matters downstream
because placement decisions are decoded from vertex structure.
"""

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_array

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

EQ, LE, GE = "=", "<=", ">="

# HiGHS primal and dual feasibility tolerance
FEASIBILITY_TOL = 1e-9

Violation = namedtuple("Violation", "row amount label")

# c, every row as (a, b, rel), then the same rows split for linprog
Matrices = namedtuple("Matrices", "c a b rel a_ub b_ub a_eq b_eq")


class LpError(RuntimeError):
    """Numeric breakdown inside the solver (not a model status)."""


@dataclass
class LpModel:
    name: str = "lp"
    var_names: list = field(default_factory=list)
    lower: list = field(default_factory=list)
    upper: list = field(default_factory=list)
    objective: dict = field(default_factory=dict)   # var index -> coefficient
    obj_const: float = 0.0
    rows: list = field(default_factory=list)        # (coeffs dict, rel, rhs, label)
    _by_name: dict = field(default_factory=dict, repr=False)
    _matrices: Matrices = field(default=None, repr=False, compare=False)

    def add_var(self, name, lo=0.0, hi=np.inf):
        if name in self._by_name:
            raise ValueError("duplicate variable %r" % name)
        if lo > hi:
            raise ValueError("empty bound interval for %r" % name)
        idx = len(self.var_names)
        self.var_names.append(name)
        self.lower.append(float(lo))
        self.upper.append(float(hi))
        self._by_name[name] = idx
        self._matrices = None
        return idx

    def var(self, name):
        return self._by_name[name]

    def add_row(self, coeffs, rel, rhs, label=""):
        if rel not in (EQ, LE, GE):
            raise ValueError("bad relation %r" % rel)
        for idx in coeffs:
            if not (0 <= idx < len(self.var_names)):
                raise ValueError("row %r references unknown variable %d" % (label, idx))
        self.rows.append((dict(coeffs), rel, float(rhs), label))
        self._matrices = None
        return len(self.rows) - 1

    def add_objective(self, coeffs, const=0.0):
        for idx, c in coeffs.items():
            self.objective[idx] = self.objective.get(idx, 0.0) + float(c)
        self.obj_const += const
        self._matrices = None

    @property
    def num_vars(self):
        return len(self.var_names)

    @property
    def num_rows(self):
        return len(self.rows)

    def objective_value(self, point):
        return sum(c * point[i] for i, c in self.objective.items()) + self.obj_const

    def matrices(self):
        """The cached sparse export of the objective and rows."""
        if self._matrices is None:
            self._matrices = _export(self)
        return self._matrices


def _export(model):
    n, m = model.num_vars, model.num_rows
    c = np.zeros(n)
    c[list(model.objective)] = list(model.objective.values())
    lens = np.fromiter((len(r[0]) for r in model.rows), int, m)
    indptr = np.concatenate(([0], np.cumsum(lens)))
    nnz = int(indptr[-1])
    indices = np.fromiter((i for r in model.rows for i in r[0]), int, nnz)
    data = np.fromiter((v for r in model.rows for v in r[0].values()), float, nnz)
    b = np.fromiter((r[2] for r in model.rows), float, m)
    rel = np.array([r[1] for r in model.rows], dtype="<U2")
    a = csr_array((data, indices, indptr), shape=(m, n))
    flip = rel == GE
    signed = csr_array((np.where(np.repeat(flip, lens), -data, data),
                        indices, indptr), shape=(m, n))
    ub, eq = np.flatnonzero(rel != EQ), np.flatnonzero(rel == EQ)
    return Matrices(c, a, b, rel, signed[ub], np.where(flip, -b, b)[ub],
                    a[eq], b[eq])


@dataclass
class LpSolution:
    status: str
    point: object            # ndarray over model variables, or None
    objective_value: float
    model: LpModel = None

    def value(self, name):
        return float(self.point[self.model.var(name)])


def solve(model, bounds_override=None):
    """Solve min objective over the model's rows and bounds.

    bounds_override, a length-num_vars list of (lo, hi) pairs, replaces
    the model's bounds so branch-and-bound can pin binaries while reusing
    the model's cached matrices.  Infeasible and unbounded come back as
    statuses; solver failures raise LpError.
    """
    if bounds_override is None:
        bounds = list(zip(model.lower, model.upper))
    elif len(bounds_override) != model.num_vars:
        raise ValueError("bounds_override must cover all %d variables"
                         % model.num_vars)
    else:
        bounds = bounds_override
    mats = model.matrices()
    res = linprog(
        mats.c,
        A_ub=mats.a_ub,
        b_ub=mats.b_ub,
        A_eq=mats.a_eq,
        b_eq=mats.b_eq,
        bounds=bounds,
        method="highs-ds",
        options={
            "presolve": True,
            "primal_feasibility_tolerance": FEASIBILITY_TOL,
            "dual_feasibility_tolerance": FEASIBILITY_TOL,
        },
    )
    if res.status == 2:
        return LpSolution(INFEASIBLE, None, np.nan, model)
    if res.status == 3:
        return LpSolution(UNBOUNDED, None, np.nan, model)
    if res.status != 0:
        raise LpError("solver breakdown on %s: %s" % (model.name, res.message))
    return LpSolution(OPTIMAL, res.x, float(res.fun) + model.obj_const, model)


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
    mats = model.matrices()
    diff = mats.a @ point - mats.b
    bad = (((mats.rel == EQ) & (np.abs(diff) > tol))
           | ((mats.rel == LE) & (diff > tol))
           | ((mats.rel == GE) & (diff < -tol)))
    return [Violation(k, diff[k], model.rows[k][3])
            for k in np.flatnonzero(bad).tolist()]

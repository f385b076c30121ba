"""Sparse linear-program container and exact solver.

LpModel is a registry of variables (name, bounds), a sparse linear
objective and relational rows, added one at a time.  All rows live in
one CSR kept as Python lists: add_row appends a coefficient dict.
matrices() exports the objective and rows as arrays for every reader of
the rows, each row's coefficients in insertion order with explicit zeros
kept.  solve() loads that export once into one HiGHS object per model
(scipy's bundled HiGHS), then per call sets only the column bounds and
re-runs the dual simplex from a cold start.  Every add_* call drops the
export and the HiGHS object; bounds stay out of both, so
branch-and-bound nodes share one of each.  The dual simplex is
deterministic for a fixed model and returns a basic (vertex) optimal
point, which placement decoding relies on.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.optimize._highspy import _core as highs
from scipy.sparse import csr_array

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

EQ, LE, GE = "=", "<=", ">="

# HiGHS primal and dual feasibility tolerance
FEASIBILITY_TOL = 1e-9

# the options linprog(method="highs-ds") sets: presolve on, dual simplex,
# both tolerances, no output
_OPTIONS = {
    "presolve": "on",
    "solver": "simplex",
    "simplex_strategy": int(highs.simplex_constants.SimplexStrategy
                            .kSimplexStrategyDual),
    "primal_feasibility_tolerance": FEASIBILITY_TOL,
    "dual_feasibility_tolerance": FEASIBILITY_TOL,
    "output_flag": False,
    "log_to_console": False,
}

_STATUS = {
    highs.HighsModelStatus.kOptimal: OPTIMAL,
    highs.HighsModelStatus.kInfeasible: INFEASIBLE,
    highs.HighsModelStatus.kModelError: INFEASIBLE,
    highs.HighsModelStatus.kUnbounded: UNBOUNDED,
}

# c and every row as (a, b, rel)
Matrices = namedtuple("Matrices", "c a b rel")


class LpError(RuntimeError):
    """Numeric breakdown inside the solver (not a model status)."""


class LpModel:
    """Variables (name, bounds), a sparse objective and relational rows.

    Rows are one CSR (_indptr, _indices, _data) with a relation, rhs and
    label per row.
    """

    def __init__(self, name="lp"):
        self.name = name
        self.lower = []
        self.upper = []
        self.objective = {}     # var index -> coefficient
        self._names = []        # var index -> name
        self._by_name = {}
        self._indptr, self._indices, self._data = [0], [], []   # the rows' CSR
        self._rel, self._rhs = [], []
        self._labels = []       # row index -> label
        self._matrices = None
        self._highs = None

    def add_var(self, name, lo=0.0, hi=np.inf):
        if name in self._by_name:
            raise ValueError("duplicate variable %r" % name)
        if not lo <= hi:
            raise ValueError("empty bound interval for %r" % name)
        idx = len(self._names)
        self._names.append(name)
        self.lower.append(float(lo))
        self.upper.append(float(hi))
        self._by_name[name] = idx
        self._matrices = self._highs = None
        return idx

    @property
    def var_names(self):
        return self._names

    def var(self, name):
        return self._by_name[name]

    def add_row(self, coeffs, rel, rhs, label=""):
        if rel not in (EQ, LE, GE):
            raise ValueError("bad relation %r" % rel)
        n = self.num_vars
        for idx in coeffs:
            if not (0 <= idx < n):
                raise ValueError("row %r references unknown variable %d" % (label, idx))
        self._rhs.append(float(rhs))
        self._rel.append(rel)
        self._labels.append(label)
        self._indices.extend(coeffs)
        self._data.extend(coeffs.values())
        self._indptr.append(len(self._indices))
        self._matrices = self._highs = None
        return len(self._rhs) - 1

    def add_objective(self, coeffs):
        n = self.num_vars
        if not all(0 <= idx < n for idx in coeffs):
            raise ValueError("objective references an unknown variable")
        for idx, c in coeffs.items():
            self.objective[idx] = self.objective.get(idx, 0.0) + float(c)
        self._matrices = self._highs = None

    @property
    def num_vars(self):
        return len(self.lower)

    @property
    def num_rows(self):
        return len(self._rhs)

    def row_labels(self):
        """Every row's label in row order."""
        return list(self._labels)

    @property
    def rows(self):
        """Every row as a (coeffs dict, rel, rhs, label) tuple: a
        read-only view built on each read."""
        ptr, cols, vals = self._indptr, self._indices, self._data
        return tuple((dict(zip(cols[lo:hi], vals[lo:hi])), rel, rhs, label)
                     for lo, hi, rel, rhs, label
                     in zip(ptr, ptr[1:], self._rel, self._rhs, self._labels))

    def objective_value(self, point):
        return sum((c * point[i] for i, c in self.objective.items()), 0.0)

    def matrices(self):
        """The cached sparse export of the objective and rows."""
        if self._matrices is None:
            self._matrices = _export(self)
        return self._matrices


def _export(model):
    n, m = model.num_vars, model.num_rows
    c = np.zeros(n)
    c[list(model.objective)] = list(model.objective.values())
    a = csr_array((np.array(model._data, dtype=float),
                   np.array(model._indices, dtype=int),
                   np.array(model._indptr, dtype=int)), shape=(m, n))
    return Matrices(c, a, np.array(model._rhs, dtype=float),
                    np.array(model._rel, dtype="<U2"))


def _highs_inf(x):
    return np.clip(x, -highs.kHighsInf, highs.kHighsInf)


def _load_highs(model):
    """One HiGHS object holding the model's rows, in the layout linprog
    gives HiGHS: the <= rows and the negated >= rows in model order,
    stacked above the = rows, as -inf <= a x <= b and b <= a x <= b.
    None when HiGHS rejects the model."""
    mats = model.matrices()
    if not (np.isfinite(mats.c).all() and np.isfinite(mats.a.data).all()
            and np.isfinite(mats.b).all()):
        raise ValueError("%s: objective and rows must be finite" % model.name)
    a = mats.a
    flip = np.where(mats.rel == GE, -1.0, 1.0)
    signed = csr_array((np.repeat(flip, np.diff(a.indptr)) * a.data,
                        a.indices, a.indptr), shape=a.shape)
    ub, eq = np.flatnonzero(mats.rel != EQ), np.flatnonzero(mats.rel == EQ)
    order = np.concatenate((ub, eq))
    a = signed[order].tocsc()
    rhs = (flip * mats.b)[order]
    lhs = np.concatenate((np.full(ub.size, -np.inf), mats.b[eq]))
    hlp = highs.HighsLp()
    hlp.num_col_ = hlp.a_matrix_.num_col_ = model.num_vars
    hlp.num_row_ = hlp.a_matrix_.num_row_ = model.num_rows
    hlp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    hlp.a_matrix_.start_ = a.indptr
    hlp.a_matrix_.index_ = a.indices
    hlp.a_matrix_.value_ = a.data
    hlp.col_cost_ = mats.c
    hlp.col_lower_ = _highs_inf(np.asarray(model.lower))
    hlp.col_upper_ = _highs_inf(np.asarray(model.upper))
    hlp.row_lower_ = _highs_inf(lhs)
    hlp.row_upper_ = _highs_inf(rhs)
    h = highs._Highs()
    for key, val in _OPTIONS.items():
        h.setOptionValue(key, val)
    if h.passModel(hlp) == highs.HighsStatus.kError:
        return None
    return h


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
    n = model.num_vars
    if bounds_override is None:
        bounds = (model.lower, model.upper)
    elif len(bounds_override) != n:
        raise ValueError("bounds_override must cover all %d variables" % n)
    else:
        bounds = np.array(bounds_override, dtype=float).reshape(n, 2).T
    if model._highs is None:
        h = _load_highs(model)
        if h is None:
            # HiGHS rejected the model, which linprog reports as infeasible
            return LpSolution(INFEASIBLE, None, np.nan, model)
        model._highs = h
    h = model._highs
    lo, hi = _highs_inf(np.array(bounds, dtype=float))
    h.changeColsBounds(n, np.arange(n), lo, hi)
    h.clearSolver()
    h.run()
    status = _STATUS.get(h.getModelStatus())
    if status is None:
        raise LpError("solver breakdown on %s: %s" % (
            model.name, h.modelStatusToString(h.getModelStatus())))
    if status != OPTIMAL:
        return LpSolution(status, None, np.nan, model)
    point = np.array(h.getSolution().col_value)
    value = h.getInfo().objective_function_value
    return LpSolution(OPTIMAL, point, value, model)

"""Sparse linear-program container and exact solver.

LpModel is a registry of variables (name, bounds), a sparse linear
objective and relational rows, added one at a time.  All rows live in
one CSR kept as Python lists: add_row appends a coefficient dict.
solve() loads those lists once into one HiGHS object per model (scipy's
bundled HiGHS), each row in model order as a range of a x, then per call
sets only the column bounds, with the variables a branch-and-bound node
pins fixed at their values, and re-runs the dual simplex from a cold
start.  RP-ADMM (`rpadmm._scaled`) reads the same lists; nothing builds
a scipy matrix from them.  Every add_* call drops the HiGHS object;
bounds stay out of it, so branch-and-bound nodes share one.  The dual
simplex is deterministic for a fixed model and returns a basic (vertex)
optimal point, which placement decoding relies on.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize._highspy import _core as highs

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
        self._highs = None
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
        self._highs = None
        return len(self._rhs) - 1

    def add_objective(self, coeffs):
        n = self.num_vars
        if not all(0 <= idx < n for idx in coeffs):
            raise ValueError("objective references an unknown variable")
        for idx, c in coeffs.items():
            self.objective[idx] = self.objective.get(idx, 0.0) + float(c)
        self._highs = None

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

def _load_highs(model):
    """One HiGHS object holding the model's rows in model order, each as
    a range: <= is (-inf, b), >= is (b, +inf) and = is (b, b).  The
    columnwise arrays come straight from the model's CSR lists: one
    stable sort on the column, explicit zeros kept.  None when HiGHS
    rejects the model."""
    n, m, nnz = model.num_vars, model.num_rows, len(model._data)
    obj = model.objective
    c = np.zeros(n)
    c[np.fromiter(obj, int, len(obj))] = np.fromiter(obj.values(), float,
                                                     len(obj))
    data = np.fromiter(model._data, float, nnz)
    b = np.fromiter(model._rhs, float, m)
    if not (np.isfinite(c).all() and np.isfinite(data).all()
            and np.isfinite(b).all()):
        raise ValueError("%s: objective and rows must be finite" % model.name)
    col = np.fromiter(model._indices, int, nnz)
    order = np.argsort(col, kind="stable")
    row = np.repeat(np.arange(m), np.diff(model._indptr))
    rel = model._rel
    hlp = highs.HighsLp()
    hlp.num_col_ = hlp.a_matrix_.num_col_ = n
    hlp.num_row_ = hlp.a_matrix_.num_row_ = m
    hlp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    # HighsLp copies these fields element by element, faster from a list
    # than from an ndarray
    hlp.a_matrix_.start_ = [0] + np.cumsum(np.bincount(col, minlength=n)).tolist()
    hlp.a_matrix_.index_ = row[order].tolist()
    hlp.a_matrix_.value_ = data[order].tolist()
    hlp.col_cost_ = c
    hlp.col_lower_ = model.lower
    hlp.col_upper_ = model.upper
    hlp.row_lower_ = [-np.inf if r == LE else v for r, v in zip(rel, model._rhs)]
    hlp.row_upper_ = [np.inf if r == GE else v for r, v in zip(rel, model._rhs)]
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


def solve(model, fixed=None):
    """Solve min objective over the model's rows and bounds.

    fixed maps a variable index to the value a branch-and-bound node pins
    it at; every other column keeps the model's bounds, and all solves
    share the model's HiGHS object.  Infeasible and unbounded come back
    as statuses; solver failures raise LpError.
    """
    n = model.num_vars
    lo, hi = np.array((model.lower, model.upper), dtype=float)
    if fixed:
        idx = np.fromiter(fixed, int, len(fixed))
        if not ((0 <= idx) & (idx < n)).all():
            raise ValueError("%s: a pinned index lies outside its %d variables"
                             % (model.name, n))
        lo[idx] = hi[idx] = np.fromiter(fixed.values(), float, len(fixed))
    if model._highs is None:
        h = _load_highs(model)
        if h is None:
            # HiGHS rejected the model, which linprog reports as infeasible
            return LpSolution(INFEASIBLE, None, np.nan, model)
        model._highs = h
    h = model._highs
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
    value = h.getObjectiveValue()
    return LpSolution(OPTIMAL, point, value, model)

"""Sparse linear-program container and exact solver.

LpModel is a registry of variables (name, bounds), a sparse linear
objective and relational rows, appended in blocks (add_vars, add_rows;
add_var and add_row append one).  Names are labels only: nothing looks a
variable up by name, and a name may repeat.  The model keeps each
block's names or labels as one `Names` description (a family and one key
per element; a plain list becomes one keyless family per name) and
formats them only when `var_names` or `_labels` is read or an error
names one; so a decision formats none, and RP-ADMM reads each row's
family from its block (`row_families`).  An empty bound interval, a bad
relation or a row naming an unknown variable or one variable twice
rejects the whole block, the first fault named, and the model stays as
it was.  All rows live in one CSR kept as Python lists.
solve() drives one HiGHS object per process (scipy's bundled HiGHS,
made by the first solve with its options set once) and keeps no model
between calls: each solve passes its model rowwise, straight from those
lists, each row in model order as a range of a x, then fixes the
columns a branch-and-bound node pins and runs the dual simplex from a
cold start, with presolve off.  On the models a decision solves (the cut
overload LP, the underload LP and the MILP's node LPs, up to k=64)
HiGHS's presolve takes longer than the simplex it precedes; it pays off
only on the uncut overload LP, which no decision solves.  RP-ADMM
(`rpadmm._scaled`) reads the same lists; nothing builds a scipy matrix
from them.  A model with an objective, matrix or right-hand-side value
that is not finite raises LpError (`check_finite`) before HiGHS sees
it; `rpadmm.reformulate` checks its model the same way.  The dual
simplex is deterministic for a fixed model and returns a basic (vertex)
optimal point, which placement decoding relies on.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.optimize._highspy import _core as highs

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

EQ, LE, GE = "=", "<=", ">="

# HiGHS primal and dual feasibility tolerance
FEASIBILITY_TOL = 1e-9

# the dual simplex with both tolerances and no output, as
# linprog(method="highs-ds") sets it, but with presolve off (see the
# module docstring)
_OPTIONS = {
    "presolve": "off",
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
    """Numeric breakdown inside the solver (not a model status), or a
    model with a value that is not finite."""


def _format_name(family, key):
    """family[parts of key joined by commas]; the bare family for ()."""
    return "%s[%s]" % (family, ",".join(map(str, key))) if key else family


class Names:
    """The names of one block, formatted only when read: element j is
    `_format_name(family, keys[j])`.  family is one string for the whole
    block or a list with one family per element; keys holds one tuple
    per element."""

    __slots__ = ("family", "keys")

    def __init__(self, family, keys):
        self.family, self.keys = family, keys

    def __len__(self):
        return len(self.keys)

    def families(self):
        fam = self.family
        return [fam] * len(self.keys) if isinstance(fam, str) else fam

    def __getitem__(self, j):
        return _format_name(self.families()[j], self.keys[j])


def _as_names(names):
    """A block's names as a `Names`: a plain list as one keyless family
    per name, which formats as the name itself."""
    return names if names.__class__ is Names else Names(list(names), [()] * len(names))


def _expand(blocks):
    out = []
    for block in blocks:
        out += map(_format_name, block.families(), block.keys)
    return out


class LpModel:
    """Variables (name, bounds), a sparse objective and relational rows.

    Rows are one CSR (_indptr, _indices, _data) with a relation and rhs
    per row.  Names and labels are kept as one `Names` per block and
    formatted on each read.
    """

    def __init__(self, name="lp"):
        self.name = name
        self.lower = []
        self.upper = []
        self.objective = {}     # var index -> coefficient
        self._var_blocks = []   # the variables' names, one Names per block
        self._indptr, self._indices, self._data = [0], [], []   # the rows' CSR
        self._rel, self._rhs = [], []
        self._row_blocks = []   # the rows' labels, one Names per block

    def add_var(self, name, lo=0.0, hi=np.inf):
        return self.add_vars([name], [lo], [hi])

    def add_vars(self, names, lower, upper):
        """Append variables names[i] on [lower[i], upper[i]]; names is a
        list or a `Names`.  Returns the index of the first."""
        first = len(self.lower)
        lower, upper = list(map(float, lower)), list(map(float, upper))
        if not len(names) == len(lower) == len(upper):
            raise ValueError("malformed variable block")
        if not all(map(operator.le, lower, upper)):
            for j, (lo, hi) in enumerate(zip(lower, upper)):
                if not lo <= hi:
                    raise ValueError("empty bound interval for %r" % names[j])
        self._var_blocks.append(_as_names(names))
        self.lower += lower
        self.upper += upper
        return first

    @property
    def var_names(self):
        """Every variable's name, formatted on this read."""
        return _expand(self._var_blocks)

    @property
    def _labels(self):
        """Every row's label, formatted on this read."""
        return _expand(self._row_blocks)

    def row_families(self):
        """Every row's family up to its first '[', read from its block
        without formatting."""
        out = []
        for block in self._row_blocks:
            out += [fam.split("[", 1)[0] for fam in block.families()]
        return out

    def add_row(self, coeffs, rel, rhs, label=""):
        return self.add_rows(rel, [0, len(coeffs)], list(coeffs),
                             list(coeffs.values()), [rhs], [label])

    def add_rows(self, rel, ptr, cols, vals, rhs, labels):
        """Append rows `sum of vals[k] * x[cols[k]] over ptr[t] <= k <
        ptr[t+1]`, rel rhs[t], labelled labels[t] (ptr[0] is 0; labels a
        list or a `Names`); returns the index of the first."""
        if rel not in (EQ, LE, GE):
            raise ValueError("bad relation %r" % rel)
        if not (ptr[0] == 0 and ptr[-1] == len(cols) == len(vals)
                and len(rhs) == len(labels) == len(ptr) - 1):
            raise ValueError("malformed row block")
        n, rows = self.num_vars, map(cols.__getitem__, map(slice, ptr, ptr[1:]))
        # an unknown column, or a row with fewer distinct columns than entries
        if cols and not (0 <= min(cols) and max(cols) < n) or \
                list(map(len, map(set, rows))) != list(map(operator.sub, ptr[1:], ptr)):
            for t, (lo, hi) in enumerate(zip(ptr, ptr[1:])):
                seen = set()
                for idx in cols[lo:hi]:
                    if not 0 <= idx < n:
                        raise ValueError("row %r references unknown variable %d"
                                         % (labels[t], idx))
                    if idx in seen:
                        raise ValueError("row %r names variable %d twice"
                                         % (labels[t], idx))
                    seen.add(idx)
        first, base = len(self._rhs), len(self._indices)
        self._rhs += map(float, rhs)
        self._rel += [rel] * len(rhs)
        self._row_blocks.append(_as_names(labels))
        self._indices += cols
        self._data += vals
        self._indptr += [base + k for k in ptr[1:]]
        return first

    def add_objective(self, coeffs):
        if coeffs and not (0 <= min(coeffs) and max(coeffs) < self.num_vars):
            raise ValueError("objective references an unknown variable")
        obj = self.objective
        for idx, c in coeffs.items():
            obj[idx] = obj.get(idx, 0.0) + float(c)

    @property
    def num_vars(self):
        return len(self.lower)

    @property
    def num_rows(self):
        return len(self._rhs)


# the process's one HiGHS object, made by the first solve
_HIGHS = None


def check_finite(model):
    """Raise LpError unless every objective, matrix and right-hand-side
    value of the model is finite: one sum per list, and each value only
    when the sum is not finite (finite values can overflow it too)."""
    for values in (model.objective.values(), model._data, model._rhs):
        if not (math.isfinite(sum(values)) or all(map(math.isfinite, values))):
            raise LpError("%s: objective and rows must be finite" % model.name)


def _load_highs(model):
    """Pass the model to the process's HiGHS object, rowwise: the
    model's CSR lists as they are, each row in model order as a range,
    <= is (-inf, b), >= is (b, +inf) and = is (b, b).  HiGHS itself
    turns the rows into columns and drops explicit zeros, and a new model
    drops the last basis.  False when HiGHS rejects the model."""
    global _HIGHS
    check_finite(model)
    n, rel, rhs = model.num_vars, model._rel, model._rhs
    c = [0.0] * n
    for i, v in model.objective.items():
        c[i] = v
    if _HIGHS is None:
        _HIGHS = highs._Highs()
        for key, val in _OPTIONS.items():
            _HIGHS.setOptionValue(key, val)
    hlp = highs.HighsLp()
    hlp.num_col_ = hlp.a_matrix_.num_col_ = n
    hlp.num_row_ = hlp.a_matrix_.num_row_ = len(rhs)
    hlp.a_matrix_.format_ = highs.MatrixFormat.kRowwise
    # HighsLp copies these fields element by element, faster from a list
    # than from an ndarray
    hlp.a_matrix_.start_ = model._indptr
    hlp.a_matrix_.index_ = model._indices
    hlp.a_matrix_.value_ = model._data
    hlp.col_cost_ = c
    hlp.col_lower_ = model.lower
    hlp.col_upper_ = model.upper
    hlp.row_lower_ = [-np.inf if r == LE else v for r, v in zip(rel, rhs)]
    hlp.row_upper_ = [np.inf if r == GE else v for r, v in zip(rel, rhs)]
    return _HIGHS.passModel(hlp) != highs.HighsStatus.kError


@dataclass
class LpSolution:
    status: str
    point: object            # ndarray over model variables, or None
    objective_value: float


def solve(model, fixed=None):
    """Solve min objective over the model's rows and bounds.

    fixed maps a variable index to the value a branch-and-bound node pins
    it at for this solve; every other column keeps the model's bounds.
    Infeasible and unbounded come back as statuses; solver failures and
    a value that is not finite raise LpError.
    """
    if fixed:
        idx = np.fromiter(fixed, int, len(fixed))
        if not ((0 <= idx) & (idx < model.num_vars)).all():
            raise ValueError("%s: a pinned index lies outside its %d variables"
                             % (model.name, model.num_vars))
    if not _load_highs(model):
        # HiGHS rejected the model, which linprog reports as infeasible
        return LpSolution(INFEASIBLE, None, np.nan)
    h = _HIGHS
    if fixed:
        val = np.fromiter(fixed.values(), float, len(fixed))
        h.changeColsBounds(len(idx), idx, val, val)
    h.run()
    status = _STATUS.get(h.getModelStatus())
    if status is None:
        raise LpError("solver breakdown on %s: %s" % (
            model.name, h.modelStatusToString(h.getModelStatus())))
    if status != OPTIMAL:
        return LpSolution(status, None, np.nan)
    point = np.array(h.getSolution().col_value)
    value = h.getObjectiveValue()
    return LpSolution(OPTIMAL, point, value)

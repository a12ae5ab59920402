"""Thin linear-programming layer over the HiGHS dual simplex bundled with scipy.

Programs are built from labeled constraints so downstream reports can name
which constraints bind at an optimum. The dual simplex returns a basic
feasible solution, so vertex solutions are deterministic for a fixed
program. solve_lp answers only with an optimum: every other outcome
raises NotOptimal, or its subclass InfeasibleDefender.

The layer loads only scipy's HiGHS extension module
(scipy.optimize._highspy._core), at the first LP, and never
scipy.optimize: importing that package also loads scipy.sparse, linalg
and special, about 0.5 s, more than the rest of a CLI command that
solves an LP.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

import numpy as np

from .errors import InfeasibleDefender, NotOptimal

FEAS_EPS = 1e-7
BIND_EPS = 1e-7

_RELATIONS = ("<=", "=", ">=")


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[float, ...]
    relation: str
    rhs: float
    label: str

    def __post_init__(self) -> None:
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))


@dataclass(frozen=True)
class LinearProgram:
    """max or min objective . x subject to labeled constraints and bounds.

    Bounds default to x >= 0; entries of lower/upper may be None for free
    or unbounded-above variables.
    """

    sense: str
    objective: tuple[float, ...]
    constraints: tuple[Constraint, ...]
    lower_bounds: Optional[tuple[Optional[float], ...]] = None
    upper_bounds: Optional[tuple[Optional[float], ...]] = None

    def __post_init__(self) -> None:
        if self.sense not in ("max", "min"):
            raise ValueError(f"sense must be 'max' or 'min', got {self.sense!r}")
        object.__setattr__(self, "objective", tuple(float(c) for c in self.objective))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for name in ("lower_bounds", "upper_bounds"):
            if getattr(self, name) is not None:  # hashable, for solve_lp's cache
                object.__setattr__(self, name, tuple(getattr(self, name)))
        n = len(self.objective)
        for con in self.constraints:
            if len(con.coeffs) != n:
                raise ValueError(
                    f"constraint {con.label!r} has {len(con.coeffs)} coeffs, expected {n}"
                )

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    def bounds_list(self) -> list[tuple[Optional[float], Optional[float]]]:
        n = self.num_vars
        lows = self.lower_bounds if self.lower_bounds is not None else (0.0,) * n
        highs = self.upper_bounds if self.upper_bounds is not None else (None,) * n
        return list(zip(lows, highs))


@dataclass(frozen=True)
class LpSolution:
    """A vertex optimum, as solve_lp reports it."""

    values: tuple[float, ...]
    objective_value: float
    binding: tuple[str, ...]  # sorted labels of the active constraints
    duals: dict[str, float]
    reduced_lower: tuple[float, ...]
    reduced_upper: tuple[float, ...]


# scipy's post-solve check (scipy.optimize._linprog_util._check_result):
# an optimal point must keep to its bounds and rows within
# 10 * sqrt(tol), with linprog's default tol = 1e-9
_CHECK_TOL = 10.0 * math.sqrt(1e-9)


# scipy's HiGHS bindings, under their own name so that scipy.optimize,
# imported before or after the first LP, shares the one module object
_CORE = "scipy.optimize._highspy._core"
# held while the bindings are looked up and loaded, so threads racing to
# the first LP load the extension once
_LOAD_LOCK = threading.Lock()


def _load_core():
    """The HiGHS extension module alone: the one in sys.modules if scipy
    loaded it already, else the file from scipy's package directory,
    loaded and registered under _CORE without running the __init__ of
    scipy.optimize or scipy.optimize._highspy."""
    with _LOAD_LOCK:
        core = sys.modules.get(_CORE)
        if core is not None:
            return core
        import scipy  # the top-level package only, which loads no subpackage

        where = [os.path.join(entry, "optimize", "_highspy") for entry in scipy.__path__]
        spec = importlib.machinery.PathFinder.find_spec(_CORE, where)
        if spec is None:
            raise ImportError(
                f"solve_lp needs scipy >= 1.15 (scipy.optimize._highspy); found {scipy.__version__}"
            )
        core = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(core)
        sys.modules[_CORE] = core
        return core


@functools.cache
def _highs():
    """scipy's bundled HiGHS bindings (_load_core) and the process's one
    HiGHS object, holding the options that
    scipy.optimize.linprog(method="highs-ds") sets, built at the first LP,
    so a command that solves none loads no part of scipy. The extension
    alone loads in under 10 ms, after the top-level scipy package (about
    10-20 ms)."""
    core = _load_core()
    options = core.HighsOptions()
    options.presolve = "on"
    options.solver = "simplex"
    options.simplex_strategy = core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.output_flag = False
    options.log_to_console = False
    options.highs_debug_level = core.HighsDebugLevel.kHighsDebugLevelNone
    highs = core._Highs()
    highs.passOptions(options)
    return core, highs


# one LP at a time on the shared HiGHS object and the cached models: held
# from setting a model's cost to reading the run back
_LOCK = threading.Lock()


class _Form(NamedTuple):
    """The rows and bounds of a program as scipy.optimize.linprog hands
    them to HiGHS: the <= rows and the negated >= rows (the first n_ub rows
    of matrix, at most rhs), then the = rows, and lower <= x <= upper with
    None bounds as -inf/+inf. labels names the rows in that order. The
    objective is not part of it (_cost), so one form serves every program
    over the same constraints and bounds."""

    matrix: np.ndarray
    rhs: np.ndarray
    n_ub: int
    lower: np.ndarray
    upper: np.ndarray
    labels: tuple[str, ...]


_NOT_FINITE = "LP objective, coefficients and right-hand sides must be finite"


def _form(lp: LinearProgram) -> _Form:
    n = lp.num_vars
    rows = [con for con in lp.constraints if con.relation != "="]
    n_ub = len(rows)
    rows += [con for con in lp.constraints if con.relation == "="]
    matrix = np.array([con.coeffs for con in rows], dtype=float).reshape(len(rows), n)
    rhs = np.array([con.rhs for con in rows], dtype=float)
    negated = np.array([con.relation == ">=" for con in rows], dtype=bool)
    matrix[negated] *= -1.0
    rhs[negated] *= -1.0
    # scipy's input checks (_clean_inputs)
    if n == 0:
        raise ValueError("LP has no variables")
    if not (np.isfinite(matrix).all() and np.isfinite(rhs).all()):
        raise ValueError(_NOT_FINITE)
    lower, upper = np.array(lp.bounds_list(), dtype=float).T  # None becomes NaN
    lower[np.isnan(lower)] = -np.inf
    upper[np.isnan(upper)] = np.inf
    for array in (matrix, rhs, lower, upper):
        array.setflags(write=False)
    return _Form(matrix, rhs, n_ub, lower, upper, tuple(con.label for con in rows))


def _cost(lp: LinearProgram) -> np.ndarray:
    """The objective in canonical min form."""
    return (-1.0 if lp.sense == "max" else 1.0) * np.asarray(lp.objective, dtype=float)


def _highs_lp(form: _Form):
    """The HighsLp of a form, its matrix column-wise without zeros; the
    cost is set per run."""
    core, _ = _highs()
    m, n = form.matrix.shape
    model = core.HighsLp()
    model.num_col_ = n
    model.num_row_ = m
    model.col_lower_ = np.clip(form.lower, -core.kHighsInf, core.kHighsInf)
    model.col_upper_ = np.clip(form.upper, -core.kHighsInf, core.kHighsInf)
    model.row_lower_ = np.concatenate((np.full(form.n_ub, -core.kHighsInf), form.rhs[form.n_ub :]))
    model.row_upper_ = form.rhs
    col, row = np.nonzero(form.matrix.T)  # column-major, rows ascending in each column
    model.a_matrix_.format_ = core.MatrixFormat.kColwise
    model.a_matrix_.num_col_ = n
    model.a_matrix_.num_row_ = m
    model.a_matrix_.start_ = np.concatenate(([0], np.cumsum(np.bincount(col, minlength=n))))
    model.a_matrix_.index_ = row
    model.a_matrix_.value_ = form.matrix.T[col, row]
    return model


@functools.lru_cache(maxsize=64)
def _prebuilt(num_vars, constraints, lower_bounds, upper_bounds, negative_zeros):
    """The form and HighsLp of every program over these constraints and
    bounds, built once. negative_zeros completes the key: the tuples
    compare with ==, which takes -0.0 for 0.0, and HiGHS can answer the two
    differently (a vertex at -0.0 rather than 0.0)."""
    form = _form(LinearProgram("min", (0.0,) * num_vars, constraints, lower_bounds, upper_bounds))
    return form, _highs_lp(form)


def _prebuilt_for(lp: LinearProgram):
    values = [con.rhs for con in lp.constraints]
    values += [v for v in lp.lower_bounds or () if v is not None]
    values += [v for v in lp.upper_bounds or () if v is not None]
    # a zero coefficient never reaches HiGHS, and its sign changes only the
    # sign of a zero activity, which _feasible and _binding only compare
    # with nonzero tolerances, so the key leaves coefficients to ==
    negative_zeros = tuple(i for i, v in enumerate(values) if v == 0 and math.copysign(1.0, v) < 0)
    return _prebuilt(lp.num_vars, lp.constraints, lp.lower_bounds, lp.upper_bounds, negative_zeros)


class _Run(NamedTuple):
    """What one HiGHS run reports; the point, the row duals and the bound
    marginals are None unless the model status is optimal."""

    status: Any  # HighsModelStatus
    nit: int
    x: Optional[np.ndarray] = None
    fun: float = math.nan
    row_dual: Optional[np.ndarray] = None
    marg_lower: Optional[np.ndarray] = None
    marg_upper: Optional[np.ndarray] = None


def linprog(model) -> _Run:
    """Run HiGHS once on a HighsLp, as scipy.optimize.linprog does with
    method="highs-ds", on the shared HiGHS object; the caller holds _LOCK.
    Each run is cold: passModel drops the previous model with its basis and
    solver state. It is a module-level name so the benchmark's span
    recorder (bench/spans.py) can wrap the solver call alone."""
    core, highs = _highs()
    if highs.passModel(model) == core.HighsStatus.kError:
        return _Run(core.HighsModelStatus.kModelError, 0)
    if highs.run() == core.HighsStatus.kError:
        return _Run(highs.getModelStatus(), 0)
    status = highs.getModelStatus()
    info = highs.getInfo()
    nit = info.simplex_iteration_count or info.ipm_iteration_count
    if status != core.HighsModelStatus.kOptimal:
        return _Run(status, nit)
    solution = highs.getSolution()
    col_dual = solution.col_dual
    # bound marginals from the basis column status, as scipy reports them
    marg_lower = np.zeros(model.num_col_)
    marg_upper = np.zeros(model.num_col_)
    for j, col_status in enumerate(highs.getBasis().col_status):
        if col_status == core.HighsBasisStatus.kLower:
            marg_lower[j] = col_dual[j]
        elif col_status == core.HighsBasisStatus.kUpper:
            marg_upper[j] = col_dual[j]
    return _Run(
        status,
        nit,
        np.array(solution.col_value),
        info.objective_function_value,
        np.array(solution.row_dual),
        marg_lower,
        marg_upper,
    )


def _feasible(form: _Form, run: _Run) -> bool:
    """scipy's _check_result for an optimal run: no NaN, and x within its
    bounds and rows up to _CHECK_TOL."""
    x = run.x
    slack = form.rhs - form.matrix @ x
    if np.isnan(x).any() or math.isnan(run.fun) or np.isnan(slack).any():
        return False
    return not (
        (x < form.lower - _CHECK_TOL).any()
        or (x > form.upper + _CHECK_TOL).any()
        or (slack[: form.n_ub] < -_CHECK_TOL).any()
        or (np.abs(slack[form.n_ub :]) > _CHECK_TOL).any()
    )


def _binding(form: _Form, x: np.ndarray) -> tuple[str, ...]:
    """Sorted labels of the constraints active at x: every equality, and
    each inequality within a relative tolerance BIND_EPS * (1 + |rhs|). A
    negated >= row has the activity and rhs of its row negated, so the
    same distance."""
    near = np.abs(form.matrix @ x - form.rhs) <= BIND_EPS * (1.0 + np.abs(form.rhs))
    near[form.n_ub :] = True
    return tuple(sorted({label for label, hit in zip(form.labels, near.tolist()) if hit}))


def solve_lp(lp: LinearProgram, context: str = "LP") -> LpSolution:
    """Solve with HiGHS dual simplex and report a vertex optimum.

    The program, options, outcome, point, duals and bound marginals are
    those of scipy.optimize.linprog(method="highs-ds"), without its
    per-call set-up: one HiGHS object holds the options, each constraint
    set is laid out once (_prebuilt), and the program goes to HiGHS as it
    is (_form). Only an optimum is returned. An infeasible program (or a
    HiGHS model error) raises InfeasibleDefender and an unbounded one
    NotOptimal, both naming `context` (such as "scenario k=20: breach
    LP"). Any other solver failure, and an optimal point that breaks a
    bound or row, which scipy reports as failed, raise RuntimeError. Safe
    to call from several threads; the solves themselves run one at a time.

    Duals are reported in canonical min form regardless of lp.sense, so a
    binding <= constraint always has a nonpositive multiplier effect on
    the minimized objective.
    """
    core, _ = _highs()
    form, model = _prebuilt_for(lp)
    cost = _cost(lp)
    if not np.isfinite(cost).all():
        raise ValueError(_NOT_FINITE)
    with _LOCK:
        model.col_cost_ = cost
        run = linprog(model)
    if run.status in (core.HighsModelStatus.kInfeasible, core.HighsModelStatus.kModelError):
        raise InfeasibleDefender(
            f"{context} infeasible: no mixed strategy satisfies the resource polytope"
        )
    if run.status == core.HighsModelStatus.kUnbounded:
        raise NotOptimal(f"{context} ended with status 'unbounded'")
    if run.status != core.HighsModelStatus.kOptimal:
        raise RuntimeError(f"LP solver failed: model status {run.status.name}")
    if not _feasible(form, run):
        raise RuntimeError(
            f"LP solver failed: its optimal point breaks a bound or row by more than {_CHECK_TOL:.2E}"
        )

    values = tuple(float(v) for v in run.x)
    duals: dict[str, float] = {}
    ineq_duals, eq_duals = iter(run.row_dual[: form.n_ub]), iter(run.row_dual[form.n_ub :])
    for con in lp.constraints:
        if con.relation == "=":
            duals[con.label] = float(next(eq_duals))
        else:
            raw = float(next(ineq_duals))
            # >= rows were negated on the way in; flip the dual back
            duals[con.label] = raw if con.relation == "<=" else -raw
    return LpSolution(
        values=values,
        objective_value=float(np.dot(lp.objective, run.x)),
        binding=_binding(form, run.x),
        duals=duals,
        reduced_lower=tuple(float(v) for v in run.marg_lower),
        reduced_upper=tuple(float(v) for v in run.marg_upper),
    )


def alternate_optimum_gap(lp: LinearProgram, solution: LpSolution) -> float:
    """Largest per-coordinate range of the optimal face.

    Pins the objective to its optimal value and, for each coordinate,
    maximizes and minimizes that coordinate over the optimal face. A gap
    near zero certifies the optimal vertex is unique. A probe that ends
    without an optimum raises NotOptimal naming it.
    """
    n = lp.num_vars
    pinned = lp.constraints + (
        Constraint(lp.objective, "=", solution.objective_value, "pinned-objective"),
    )
    gap = 0.0
    for i in range(n):
        unit = tuple(1.0 if j == i else 0.0 for j in range(n))
        hi, lo = (
            solve_lp(
                LinearProgram(sense, unit, pinned, lp.lower_bounds, lp.upper_bounds),
                f"optimal face probe: {sense} x[{i}]",
            )
            for sense in ("max", "min")
        )
        gap = max(gap, hi.objective_value - lo.objective_value)
    return gap


def check_dual_certificate(lp: LinearProgram, solution: LpSolution) -> float:
    """Max violation of stationarity: objective minus the constraint-dual
    and bound-marginal decomposition, in canonical min form."""
    residual = _cost(lp)
    for con in lp.constraints:
        dual = solution.duals[con.label]
        row = np.asarray(con.coeffs, dtype=float)
        residual -= dual * row
    residual -= np.asarray(solution.reduced_lower) + np.asarray(solution.reduced_upper)
    return float(np.max(np.abs(residual))) if residual.size else 0.0

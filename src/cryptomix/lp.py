"""Thin linear-programming layer over the HiGHS dual simplex bundled with scipy.

Programs are built from labeled constraints so downstream reports can name
which constraints bind at an optimum. The dual simplex returns a basic
feasible solution, so vertex solutions are deterministic for a fixed
program. Every LP takes one path (_optimum): its cost, scaled by a power
of two where it is too large for HiGHS, on the model of its constraint
set, built once (_prebuilt, an LRU of 64 keyed by content, behind
_prebuilt_for's one-slot identity check, which the defender polytope,
kept per instance, hits), one cold HiGHS run, and the status and
feasibility checks. Only an optimum comes back: every other outcome
raises NotOptimal, or its subclass InfeasibleDefender. solve_lp reads it
into a full LpSolution: point, objective, binding labels, duals and
bound marginals. _optimal_point reads only the point and objective, for
callers that need nothing else. Both sum the objective over the point
by model._weighted_sum, so an optimum is bitwise its point's value.

The layer loads only scipy's HiGHS extension module
(scipy.optimize._highspy._core), at the first LP, from scipy's package
directory, without importing scipy itself (its __init__ costs 10-20 ms)
or scipy.optimize: importing that package also loads scipy.sparse,
linalg and special, about 0.5 s, more than the rest of a CLI command
that solves an LP.
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
from .model import _weighted_sum

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
            if getattr(self, name) is not None:  # hashable, for the _prebuilt cache
                object.__setattr__(self, name, tuple(getattr(self, name)))
        n = len(self.objective)
        labels: set[str] = set()
        for con in self.constraints:
            if len(con.coeffs) != n:
                raise ValueError(
                    f"constraint {con.label!r} has {len(con.coeffs)} coeffs, expected {n}"
                )
            # duals and binding labels are keyed by label
            if con.label in labels:
                raise ValueError(f"repeated constraint label {con.label!r}")
            labels.add(con.label)

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


_FLOOR = "solve_lp needs scipy >= 1.15 (scipy.optimize._highspy)"


def _scipy_dirs():
    """scipy's package directories, read without running scipy's
    __init__: the loaded package's __path__ if scipy is imported, else
    its import spec's search locations; none if scipy is not found."""
    scipy = sys.modules.get("scipy")
    # read first: __path__ can be rebound apart from __spec__'s locations
    if scipy is not None:
        return scipy.__path__
    spec = importlib.util.find_spec("scipy")
    return spec.submodule_search_locations if spec is not None else ()


def _load_extension(dirs):
    """The HiGHS extension file from the scipy package directories dirs,
    loaded without running the __init__ of scipy.optimize or
    scipy.optimize._highspy; None if no directory holds it."""
    where = [os.path.join(entry, "optimize", "_highspy") for entry in dirs]
    spec = importlib.machinery.PathFinder.find_spec(_CORE, where)
    if spec is None:
        return None
    core = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(core)
    return core


def _load_core():
    """The HiGHS extension module alone: the one in sys.modules if scipy
    loaded it already, else the file from scipy's package directory
    (_scipy_dirs), registered under _CORE. Where that fails, the top-level
    scipy package is imported once and the file loaded again: scipy's
    __init__ sets up shared-library search paths on some platforms, such
    as delvewheel-patched Windows wheels, which the tests do not cover."""
    with _LOAD_LOCK:
        core = sys.modules.get(_CORE)
        if core is not None:
            return core
        try:
            core = _load_extension(_scipy_dirs())
        except ImportError:
            core = None
        if core is None:
            try:
                import scipy
            except ImportError as exc:
                raise ImportError(f"{_FLOOR}; {exc}") from exc
            core = _load_extension(scipy.__path__)
            if core is None:
                raise ImportError(f"{_FLOOR}; found {scipy.__version__}")
        sys.modules[_CORE] = core
        return core


@functools.cache
def _highs():
    """scipy's bundled HiGHS bindings (_load_core) and the process's one
    HiGHS object, holding the options that
    scipy.optimize.linprog(method="highs-ds") sets, built at the first LP,
    so a command that solves none loads no part of scipy. The extension
    alone loads in under 10 ms, without the top-level scipy package."""
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
    them to HiGHS, and the HighsLp that holds them: the <= rows and the
    negated >= rows (the first n_ub rows of matrix, at most rhs), then the
    = rows, and each variable within its bounds, None as -inf/+inf. The
    objective is not part of it (_cost, set on model per run), so one form
    serves every program over the same constraints and bounds.
    labels names the constraints in program order; rows[k] is the row of
    constraint k and sign[k] is -1.0 where that row was negated. magnitude
    is |matrix|, for _row_sizes. floor and ceiling are the bounds widened
    by _CHECK_TOL, what _feasible allows of x."""

    matrix: np.ndarray
    rhs: np.ndarray
    n_ub: int
    labels: tuple[str, ...]
    rows: np.ndarray
    sign: np.ndarray
    magnitude: np.ndarray
    floor: np.ndarray
    ceiling: np.ndarray
    model: Any  # HighsLp


_NOT_FINITE = "LP objective, coefficients and right-hand sides must be finite"


def _cost(lp: LinearProgram) -> np.ndarray:
    """The objective in canonical min form."""
    return (-1.0 if lp.sense == "max" else 1.0) * np.asarray(lp.objective, dtype=float)


@functools.lru_cache(maxsize=64)
def _prebuilt(constraints, bounds, negative_zeros) -> _Form:
    """The form of every program over these constraints and bounds (the
    pairs of LinearProgram.bounds_list), built once, with its HighsLp: the
    matrix column-wise without zeros. negative_zeros completes the key:
    the tuples compare with ==, which takes -0.0 for 0.0, and HiGHS can
    answer the two differently (a vertex at -0.0 rather than 0.0)."""
    core, _ = _highs()
    n = len(bounds)
    # the inequality rows, then the equalities, each in program order
    order = sorted(range(len(constraints)), key=lambda k: constraints[k].relation == "=")
    rows = [constraints[k] for k in order]
    n_ub = sum(con.relation != "=" for con in rows)
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
    lower, upper = np.array(bounds, dtype=float).T  # None becomes NaN
    lower[np.isnan(lower)] = -np.inf
    upper[np.isnan(upper)] = np.inf
    row_of = np.array(sorted(range(len(order)), key=order.__getitem__), dtype=np.intp)
    sign = np.array([-1.0 if con.relation == ">=" else 1.0 for con in constraints])
    magnitude = np.abs(matrix)
    floor = lower - _CHECK_TOL
    ceiling = upper + _CHECK_TOL
    for array in (matrix, rhs, row_of, sign, magnitude, floor, ceiling):
        array.setflags(write=False)
    model = core.HighsLp()
    model.num_col_ = n
    model.num_row_ = len(rows)
    model.col_lower_ = np.clip(lower, -core.kHighsInf, core.kHighsInf)
    model.col_upper_ = np.clip(upper, -core.kHighsInf, core.kHighsInf)
    model.row_lower_ = np.concatenate((np.full(n_ub, -core.kHighsInf), rhs[n_ub:]))
    model.row_upper_ = rhs
    col, row = np.nonzero(matrix.T)  # column-major, rows ascending in each column
    model.a_matrix_.format_ = core.MatrixFormat.kColwise
    model.a_matrix_.num_col_ = n
    model.a_matrix_.num_row_ = len(rows)
    model.a_matrix_.start_ = np.concatenate(([0], np.cumsum(np.bincount(col, minlength=n))))
    model.a_matrix_.index_ = row
    model.a_matrix_.value_ = matrix.T[col, row]
    labels = tuple(con.label for con in constraints)
    return _Form(matrix, rhs, n_ub, labels, row_of, sign, magnitude, floor, ceiling, model)


# the constraint set, bounds and variable count last served, then their
# form: one tuple, replaced in one assignment, so that a thread never
# reads one program's key beside another's form
_last_prebuilt: tuple = (None, None, None, 0, None)


def _prebuilt_for(lp: LinearProgram) -> _Form:
    """_prebuilt's form for lp, found by identity when lp shares the last
    program's constraint and bound tuples (the same objects hold the same
    values, zero signs included), else by content."""
    global _last_prebuilt
    constraints, lower, upper, num_vars, found = _last_prebuilt
    if (
        constraints is lp.constraints
        and lower is lp.lower_bounds
        and upper is lp.upper_bounds
        and num_vars == lp.num_vars
    ):
        return found
    bounds = tuple(lp.bounds_list())
    values = [con.rhs for con in lp.constraints]
    values += [v for pair in bounds for v in pair if v is not None]
    # a zero coefficient never reaches HiGHS, and its sign changes only the
    # sign of a zero activity, which _feasible and _binding only compare
    # with nonzero tolerances, so the key leaves coefficients to ==
    negative_zeros = tuple(i for i, v in enumerate(values) if v == 0 and math.copysign(1.0, v) < 0)
    found = _prebuilt(lp.constraints, bounds, negative_zeros)
    _last_prebuilt = (lp.constraints, lp.lower_bounds, lp.upper_bounds, lp.num_vars, found)
    return found


class _Run(NamedTuple):
    """What one HiGHS run reports; past the iteration count, None unless
    the model status is optimal. solution and basis are HiGHS's records,
    copied, whose duals and column statuses only solve_lp reads."""

    status: Any  # HighsModelStatus
    nit: int
    x: Optional[np.ndarray] = None
    fun: float = math.nan
    solution: Any = None  # HighsSolution
    basis: Any = None  # HighsBasis
    # the power of two that takes HiGHS's duals back to the program's
    # cost, where _optimum scaled that cost down
    unscale: float = 1.0


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
    if status != core.HighsModelStatus.kOptimal:
        info = highs.getInfo()
        return _Run(status, info.simplex_iteration_count or info.ipm_iteration_count)
    # an optimum's info is valid, so these single reads give the fields of
    # getInfo() without copying the whole record
    nit = highs.getInfoValue("simplex_iteration_count")[1]
    nit = nit or highs.getInfoValue("ipm_iteration_count")[1]
    solution = highs.getSolution()
    return _Run(
        status,
        nit,
        np.array(solution.col_value),
        highs.getObjectiveValue(),
        solution,
        highs.getBasis(),
    )


def _row_sizes(form: _Form, x: np.ndarray) -> np.ndarray:
    """Each row's size at x, min(1, max(|rhs_k|, sum_j |a_kj x_j|)): the
    scale of _feasible's and _binding's row tolerances, so that a row in
    small units is held to its own size, and a row of size 1 to the
    absolute rule. NaN where x holds a NaN."""
    return np.minimum(1.0, np.maximum(np.abs(form.rhs), form.magnitude @ np.abs(x)))


def _feasible(form: _Form, run: _Run, size: np.ndarray) -> bool:
    """scipy's _check_result for an optimal run, with rows relative to
    their size (_row_sizes): no NaN, x within its bounds up to _CHECK_TOL,
    and each row's slack rhs - matrix @ x at least -_CHECK_TOL * size,
    and on an = row at most that (a NaN fails every comparison)."""
    slack = form.rhs - form.matrix @ run.x
    tol = _CHECK_TOL * size
    return (
        not math.isnan(run.fun)
        and bool(((run.x >= form.floor) & (run.x <= form.ceiling)).all())
        and bool((slack >= -tol).all())
        and bool((slack[form.n_ub :] <= tol[form.n_ub :]).all())
    )


def _binding(form: _Form, x: np.ndarray, size: np.ndarray) -> tuple[str, ...]:
    """Sorted labels of the constraints active at x: every equality, and
    each inequality within BIND_EPS * (size + |rhs|), size from
    _row_sizes. A negated >= row has the activity and rhs of its row
    negated, so the same distance."""
    near = np.abs(form.matrix @ x - form.rhs) <= BIND_EPS * (size + np.abs(form.rhs))
    near[form.n_ub :] = True
    hits = near[form.rows].tolist()
    return tuple(sorted({label for label, hit in zip(form.labels, hits) if hit}))


# HiGHS takes a cost of 1e20 (its infinite_cost) or more as infinite, and
# its dual simplex already fails on some costs from about 1e11 on; no
# program of the bundled scenario or the benchmark has a cost above 30700
_LARGE_COST = 2.0**30


def _optimum(lp: LinearProgram, context: str) -> tuple[_Form, _Run, np.ndarray]:
    """The one solve path of every LP: the cost on the cached model, one
    cold run under _LOCK, and solve_lp's outcomes; returns only optima,
    with their row sizes (_row_sizes).
    A cost whose largest |entry| reaches _LARGE_COST goes to HiGHS scaled
    by the power of two that brings that entry into [0.5, 1): an exact
    scaling, so HiGHS solves the same program in other units, and
    run.unscale takes the duals back. Any smaller cost reaches HiGHS as
    it is."""
    core, _ = _highs()
    form = _prebuilt_for(lp)
    cost = _cost(lp)
    largest = float(np.abs(cost).max())
    if not largest < math.inf:  # also a NaN
        raise ValueError(_NOT_FINITE)
    shift = math.frexp(largest)[1] if largest >= _LARGE_COST else 0
    if shift:
        cost = np.ldexp(cost, -shift)
    with _LOCK:
        form.model.col_cost_ = cost
        run = linprog(form.model)
    if run.status == core.HighsModelStatus.kInfeasible:
        raise InfeasibleDefender(f"{context} infeasible: its constraints admit no point")
    if run.status == core.HighsModelStatus.kModelError:
        raise InfeasibleDefender(f"{context} not solved: HiGHS reports a model error")
    if run.status == core.HighsModelStatus.kUnbounded:
        raise NotOptimal(f"{context} ended with status 'unbounded'")
    if run.status != core.HighsModelStatus.kOptimal:
        raise RuntimeError(f"LP solver failed: model status {run.status.name}")
    size = _row_sizes(form, run.x)
    if not _feasible(form, run, size):
        raise RuntimeError(
            f"LP solver failed: its optimal point breaks a bound or row by more than"
            f" {_CHECK_TOL:.2E}, times the row's size (at most 1) for a row"
        )
    return form, run._replace(unscale=math.ldexp(1.0, shift)) if shift else run, size


def _optimal_point(lp: LinearProgram, context: str) -> tuple[tuple[float, ...], float]:
    """solve_lp's values and objective_value alone, for callers that read
    no duals, binding labels or bound marginals."""
    _, run, _ = _optimum(lp, context)
    values = tuple(run.x.tolist())
    return values, _weighted_sum(lp.objective, values)


def solve_lp(lp: LinearProgram, context: str = "LP") -> LpSolution:
    """Solve with HiGHS dual simplex and report a vertex optimum.

    The program, options, outcome, point, duals and bound marginals are
    those of scipy.optimize.linprog(method="highs-ds"), without its
    per-call set-up: one HiGHS object holds the options, and the program
    goes to HiGHS as it is (_prebuilt), but for a cost too large for
    HiGHS, which goes scaled by a power of two, with its duals and bound
    marginals scaled back (_optimum). An infeasible program, or one
    that HiGHS rejects as a model error, raises InfeasibleDefender (each
    with its own message), and an unbounded one NotOptimal, all naming
    `context` (such as "scenario k=20: breach LP"). Any other solver
    failure raises RuntimeError, and so does an optimal point that breaks
    a bound, or a row by more than scipy's tolerance times the row's size
    (_feasible): scipy holds every row to an absolute tolerance, which in
    small units passes a point well over a cap. Safe to call from several
    threads; the solves themselves run one at a time.

    objective_value is model._weighted_sum of lp.objective and values.
    Duals are reported in canonical min form regardless of lp.sense, so a
    binding <= constraint always has a nonpositive multiplier effect on
    the minimized objective.
    """
    core, _ = _highs()
    form, run, size = _optimum(lp, context)
    # >= rows were negated on the way in; their duals are flipped back,
    # and a cost that _optimum scaled down is scaled back
    duals = (np.array(run.solution.row_dual)[form.rows] * form.sign * run.unscale).tolist()
    # bound marginals from the basis column status, as scipy reports them
    col_dual = np.array(run.solution.col_dual) * run.unscale
    col_status = np.array([int(status) for status in run.basis.col_status])
    at_lower = col_status == int(core.HighsBasisStatus.kLower)
    at_upper = col_status == int(core.HighsBasisStatus.kUpper)
    values = tuple(run.x.tolist())
    return LpSolution(
        values=values,
        objective_value=_weighted_sum(lp.objective, values),
        binding=_binding(form, run.x, size),
        duals=dict(zip(form.labels, duals)),
        reduced_lower=tuple(np.where(at_lower, col_dual, 0.0).tolist()),
        reduced_upper=tuple(np.where(at_upper, col_dual, 0.0).tolist()),
    )


def alternate_optimum_gap(lp: LinearProgram, solution: LpSolution) -> float:
    """Largest per-coordinate range of the optimal face.

    Pins the objective to its optimal value and, for each coordinate,
    maximizes and minimizes that coordinate over the optimal face. A gap
    near zero certifies the optimal vertex is unique. A probe that ends
    without an optimum raises NotOptimal naming it, also an infeasible
    one: the face holds the optimum, so that is a solver fault.
    """
    n = lp.num_vars
    pinned = lp.constraints + (
        Constraint(lp.objective, "=", solution.objective_value, "pinned-objective"),
    )

    def probe(sense: str, i: int) -> float:
        unit = tuple(1.0 if j == i else 0.0 for j in range(n))
        context = f"optimal face probe: {sense} x[{i}]"
        program = LinearProgram(sense, unit, pinned, lp.lower_bounds, lp.upper_bounds)
        try:
            return _optimal_point(program, context)[1]
        except InfeasibleDefender:
            raise NotOptimal(f"{context} ended infeasible or with a model error") from None

    gap = 0.0
    for i in range(n):
        gap = max(gap, probe("max", i) - probe("min", i))
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

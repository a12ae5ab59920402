"""Thin linear-programming layer over scipy's dual simplex.

Programs are built from labeled constraints so downstream reports can name
which constraints bind at an optimum. The dual simplex returns a basic
feasible solution, so vertex solutions are deterministic for a fixed
program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

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
    status: str  # "optimal", "infeasible", or "unbounded"
    values: tuple[float, ...] = ()
    objective_value: float = float("nan")
    binding: tuple[str, ...] = ()  # sorted labels of the active constraints
    duals: dict[str, float] = field(default_factory=dict)
    reduced_lower: tuple[float, ...] = ()
    reduced_upper: tuple[float, ...] = ()


def _split(lp: LinearProgram):
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for con in lp.constraints:
        row = np.asarray(con.coeffs, dtype=float)
        if con.relation == "<=":
            a_ub.append(row)
            b_ub.append(con.rhs)
        elif con.relation == ">=":
            a_ub.append(-row)
            b_ub.append(-con.rhs)
        else:
            a_eq.append(row)
            b_eq.append(con.rhs)
    return a_ub, b_ub, a_eq, b_eq


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on first use: loading scipy.optimize
    takes longer than the rest of a CLI command that solves no LP. It stays
    a module-level name so the benchmark's span recorder (bench/spans.py)
    can still wrap the solver call."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _binding(lp: LinearProgram, values: Sequence[float], eps: float) -> tuple[str, ...]:
    """Sorted labels of the constraints active at values: every equality,
    and each inequality within a relative tolerance eps * (1 + |rhs|)."""
    labels = set()
    for con in lp.constraints:
        activity = float(np.dot(con.coeffs, values))
        if con.relation == "=" or abs(activity - con.rhs) <= eps * (1.0 + abs(con.rhs)):
            labels.add(con.label)
    return tuple(sorted(labels))


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve with HiGHS dual simplex and report a vertex optimum.

    Duals are reported in canonical min form regardless of lp.sense, so a
    binding <= constraint always has a nonpositive multiplier effect on
    the minimized objective.
    """
    sign = -1.0 if lp.sense == "max" else 1.0
    cost = sign * np.asarray(lp.objective, dtype=float)
    a_ub, b_ub, a_eq, b_eq = _split(lp)
    result = linprog(
        cost,
        A_ub=np.vstack(a_ub) if a_ub else None,
        b_ub=np.asarray(b_ub) if a_ub else None,
        A_eq=np.vstack(a_eq) if a_eq else None,
        b_eq=np.asarray(b_eq) if a_eq else None,
        bounds=lp.bounds_list(),
        method="highs-ds",
    )
    if result.status == 2:
        return LpSolution(status="infeasible")
    if result.status == 3:
        return LpSolution(status="unbounded")
    if result.status != 0:
        raise RuntimeError(f"LP solver failed: status {result.status} ({result.message})")

    values = tuple(float(v) for v in result.x)
    objective_value = float(np.dot(lp.objective, result.x))

    duals: dict[str, float] = {}
    iq = eq = 0
    marg_ineq = result.ineqlin.marginals if a_ub else np.zeros(0)
    marg_eq = result.eqlin.marginals if a_eq else np.zeros(0)
    for con in lp.constraints:
        if con.relation == "=":
            duals[con.label] = float(marg_eq[eq])
            eq += 1
        else:
            raw = float(marg_ineq[iq])
            iq += 1
            # >= rows were negated on the way in; flip the dual back
            duals[con.label] = raw if con.relation == "<=" else -raw
    return LpSolution(
        status="optimal",
        values=values,
        objective_value=objective_value,
        binding=_binding(lp, values, BIND_EPS),
        duals=duals,
        reduced_lower=tuple(float(v) for v in result.lower.marginals),
        reduced_upper=tuple(float(v) for v in result.upper.marginals),
    )


def solve_optimal(lp: LinearProgram, context: str) -> LpSolution:
    """solve_lp for callers that need an optimum: an infeasible program
    raises InfeasibleDefender and any other status NotOptimal, both naming
    `context` (such as "scenario k=20: breach LP")."""
    solution = solve_lp(lp)
    if solution.status == "infeasible":
        raise InfeasibleDefender(
            f"{context} infeasible: no mixed strategy satisfies the resource polytope"
        )
    if solution.status != "optimal":
        raise NotOptimal(f"{context} ended with status {solution.status!r}")
    return solution


def binding_constraints(
    lp: LinearProgram, solution: LpSolution, eps: float = BIND_EPS
) -> tuple[str, ...]:
    """Sorted labels of constraints active at the solution, within a
    relative tolerance scaled by 1 + |rhs|."""
    if solution.status != "optimal":
        raise NotOptimal(f"solution status is {solution.status!r}")
    return _binding(lp, solution.values, eps)


def alternate_optimum_gap(
    lp: LinearProgram,
    solution: LpSolution,
    coords: Optional[Sequence[int]] = None,
) -> float:
    """Largest per-coordinate range of the optimal face.

    Pins the objective to its optimal value and, for each coordinate,
    maximizes and minimizes that coordinate over the optimal face. A gap
    near zero certifies the optimal vertex is unique.
    """
    if solution.status != "optimal":
        raise NotOptimal(f"solution status is {solution.status!r}")
    n = lp.num_vars
    coords = range(n) if coords is None else coords
    pinned = lp.constraints + (
        Constraint(lp.objective, "=", solution.objective_value, "pinned-objective"),
    )
    gap = 0.0
    for i in coords:
        unit = tuple(1.0 if j == i else 0.0 for j in range(n))
        hi = solve_lp(
            LinearProgram("max", unit, pinned, lp.lower_bounds, lp.upper_bounds)
        )
        lo = solve_lp(
            LinearProgram("min", unit, pinned, lp.lower_bounds, lp.upper_bounds)
        )
        if hi.status != "optimal" or lo.status != "optimal":
            raise NotOptimal("optimal face probe failed to solve")
        gap = max(gap, hi.objective_value - lo.objective_value)
    return gap


def check_dual_certificate(lp: LinearProgram, solution: LpSolution) -> float:
    """Max violation of stationarity: objective minus the constraint-dual
    and bound-marginal decomposition, in canonical min form."""
    if solution.status != "optimal":
        raise NotOptimal(f"solution status is {solution.status!r}")
    sign = -1.0 if lp.sense == "max" else 1.0
    cost = sign * np.asarray(lp.objective, dtype=float)
    residual = cost.copy()
    for con in lp.constraints:
        dual = solution.duals[con.label]
        row = np.asarray(con.coeffs, dtype=float)
        residual -= dual * row
    residual -= np.asarray(solution.reduced_lower) + np.asarray(solution.reduced_upper)
    return float(np.max(np.abs(residual))) if residual.size else 0.0

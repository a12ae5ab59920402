"""Budget-uncertainty layer: per-scenario subgame tables, worst-case
(maximin) and minimax-regret strategies, and the regret comparison
matrices.

All scenario LPs share the defender polytope; scenario data is computed
once and reused so every report uses identical attack plans. Identical
scenario programs are solved once: budgets whose utility and breach rows
match bit for bit share one pair of LP answers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

from .defender import (
    AlgorithmEvaluation,
    StrategyReport,
    _evaluation,
    _solve_leader,
    _strategy_report,
    defender_polytope,
    evaluate_budgets,
    expected_breach,
)
from .lp import Constraint, LinearProgram, _optimal_point, solve_lp
from .model import GameInstance, MixedStrategy, ScenarioSet, _weighted_sum, make_plan


@dataclass(frozen=True)
class ScenarioTable:
    """Per-scenario attacker responses and defender optima.

    Row s corresponds to budgets[s]: breach[s][i] is the attacker's
    optimal success probability against algorithm i, utilities[s][i] the
    defender's per-algorithm utility, optima[s] the scenario LP value,
    and optimal_breach[s] the smallest expected breach any feasible
    strategy can reach under that scenario's attack plans. Budgets with
    bit-for-bit equal utility and breach rows pose the same programs, and
    their optima, optimal_strategies and optimal_breach come from one
    solve, so they are equal too.
    """

    budgets: tuple[float, ...]
    utilities: tuple[tuple[float, ...], ...]
    breach: tuple[tuple[float, ...], ...]
    optima: tuple[float, ...]
    optimal_strategies: tuple[tuple[float, ...], ...]
    optimal_breach: tuple[float, ...]
    evaluations: tuple[tuple[AlgorithmEvaluation, ...], ...]


@dataclass(frozen=True)
class RegretReport:
    strategy: MixedStrategy
    per_scenario_regret: tuple[float, ...]
    max_regret: float


@dataclass(frozen=True)
class MatrixReport:
    """Labeled strategy-by-scenario matrix; the last column is the row max."""

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    cells: tuple[tuple[float, ...], ...]

    def row(self, label: str) -> tuple[float, ...]:
        return self.cells[self.row_labels.index(label)]

    def as_csv(self) -> str:
        lines = ["strategy," + ",".join(self.col_labels)]
        for label, row in zip(self.row_labels, self.cells):
            lines.append(label + "," + ",".join(repr(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "columns": list(self.col_labels),
            "rows": [
                {"strategy": label, "values": list(row)}
                for label, row in zip(self.row_labels, self.cells)
            ],
        }


def _budget_label(k: float) -> str:
    """The one label rule for a budget, in LP rows, matrix columns and
    error contexts: %g where that reads back as k, else repr(k), so that
    distinct budgets such as 20 and 20.000001 keep distinct labels."""
    short = f"{k:g}"
    return short if float(short) == k else repr(k)


def scenario_table(instance: GameInstance, scenarios: ScenarioSet) -> ScenarioTable:
    """Solve every (algorithm, budget) subgame, with one DP table per
    algorithm (see evaluate_budgets), and both per-scenario LPs once per
    distinct pair of rows: budgets whose utility and breach rows match bit
    for bit (past the attacker's saturation, say) pose the same two
    programs, so the first of them is solved, under its own error
    context, and the others take its answers."""
    polytope = defender_polytope(instance)
    rows = evaluate_budgets(instance, scenarios.budgets)
    utilities = tuple(tuple(ev.utility for ev in evals) for evals in rows)
    breach = tuple(tuple(ev.p_succ_star for ev in evals) for evals in rows)
    # one bytes key per budget, so that -0.0 and 0.0 stay apart
    pack = struct.Struct(f"{2 * len(instance.algorithms)}d").pack
    solved: dict[bytes, tuple[tuple[float, ...], float, float]] = {}
    answers = []
    for k, util_row, breach_row in zip(scenarios.budgets, utilities, breach):
        key = pack(*util_row, *breach_row)
        if key not in solved:
            label = f"scenario k={_budget_label(k)}"
            best, optimum = _optimal_point(LinearProgram("max", util_row, polytope), f"{label}: LP")
            _, floor = _optimal_point(
                LinearProgram("min", breach_row, polytope), f"{label}: breach LP"
            )
            solved[key] = (best, optimum, floor)
        answers.append(solved[key])
    strategies, optima, floors = zip(*answers)
    return ScenarioTable(
        budgets=scenarios.budgets,
        utilities=utilities,
        breach=breach,
        optima=optima,
        optimal_strategies=strategies,
        optimal_breach=floors,
        evaluations=tuple(rows),
    )


def _epigraph_lp(
    instance: GameInstance, sense: str, cuts: Sequence[tuple[tuple[float, ...], float, str]]
) -> LinearProgram:
    """Optimize t over (p, t), p in the defender polytope and t free in
    sign, subject to one `<=` row per cut: coefficients over (p, t), the
    right-hand side and the label."""
    n = len(instance.algorithms)
    cons = [
        Constraint(con.coeffs + (0.0,), con.relation, con.rhs, con.label)
        for con in defender_polytope(instance)
    ]
    cons += [Constraint(row, "<=", rhs, label) for row, rhs, label in cuts]
    return LinearProgram(
        sense=sense,
        objective=(0.0,) * n + (1.0,),
        constraints=tuple(cons),
        lower_bounds=(0.0,) * n + (None,),
    )


def solve_maximin(instance: GameInstance, table: ScenarioTable) -> StrategyReport:
    """max z subject to z <= sum_i p_i utilities[s][i] for every scenario.

    The reported objective is the worst-case value z; expected_breach is
    the worst case over scenarios as well.
    """
    cuts = [
        (tuple(-u for u in util_row) + (1.0,), 0.0, f"scenario:{_budget_label(k)}")
        for k, util_row in zip(table.budgets, table.utilities)
    ]
    solution = solve_lp(_epigraph_lp(instance, "max", cuts), "maximin LP")
    n = len(instance.algorithms)
    probs = solution.values[:n]
    worst_breach = max(expected_breach(probs, row) for row in table.breach)
    return _strategy_report(
        instance, MixedStrategy(probs), solution.values[n], worst_breach, solution.binding
    )


def build_regret_lp(instance: GameInstance, table: ScenarioTable) -> LinearProgram:
    """min t subject to optima[s] - sum_i p_i utilities[s][i] <= t for all
    scenarios; t is free in sign."""
    cuts = [
        (tuple(-u for u in util_row) + (-1.0,), -opt, f"regret:{_budget_label(k)}")
        for k, opt, util_row in zip(table.budgets, table.optima, table.utilities)
    ]
    return _epigraph_lp(instance, "min", cuts)


def solve_minimax_regret(instance: GameInstance, table: ScenarioTable) -> RegretReport:
    values, _ = _optimal_point(build_regret_lp(instance, table), "minimax-regret LP")
    n = len(instance.algorithms)
    probs = values[:n]
    regrets = tuple(
        opt - _weighted_sum(probs, util_row) for opt, util_row in zip(table.optima, table.utilities)
    )
    return RegretReport(
        strategy=MixedStrategy(probs=probs),
        per_scenario_regret=regrets,
        max_regret=values[n],
    )


def solve_unconstrained_case(instance: GameInstance) -> StrategyReport:
    """Defender LP when the attacker runs every method against whichever
    algorithm is deployed (no budget)."""
    evals = [
        _evaluation(
            alg, instance.weights, make_plan(alg.attacks, instance.attacker), "unconstrained"
        )
        for alg in instance.algorithms
    ]
    return _solve_leader(instance, evals, "unconstrained-case LP").report


def _matrix(
    table: ScenarioTable,
    extra_strategies: Sequence[tuple[str, Sequence[float]]],
    cell,
) -> MatrixReport:
    rows = [
        (f"Opt(k={_budget_label(k)})", strat)
        for k, strat in zip(table.budgets, table.optimal_strategies)
    ]
    rows += [(label, MixedStrategy(probs).probs) for label, probs in extra_strategies]
    col_labels = tuple(f"k={_budget_label(k)}" for k in table.budgets) + ("max",)
    cells = []
    for _, probs in rows:
        values = [cell(probs, s) for s in range(len(table.budgets))]
        values.append(max(values))
        cells.append(tuple(values))
    return MatrixReport(
        row_labels=tuple(label for label, _ in rows),
        col_labels=col_labels,
        cells=tuple(cells),
    )


def regret_matrix(
    instance: GameInstance,
    table: ScenarioTable,
    extra_strategies: Sequence[tuple[str, Sequence[float]]] = (),
) -> MatrixReport:
    """Rows are the scenario-optimal strategies plus any extras; cell (r,s)
    is optima[s] minus the row strategy's value under scenario s."""

    def cell(probs: tuple[float, ...], s: int) -> float:
        return table.optima[s] - _weighted_sum(probs, table.utilities[s])

    return _matrix(table, extra_strategies, cell)


def breach_regret_matrix(
    instance: GameInstance,
    table: ScenarioTable,
    extra_strategies: Sequence[tuple[str, Sequence[float]]] = (),
) -> MatrixReport:
    """Cell (r,s) is the row strategy's expected breach under scenario s
    minus the smallest breach any feasible strategy attains there."""

    def cell(probs: tuple[float, ...], s: int) -> float:
        return expected_breach(probs, table.breach[s]) - table.optimal_breach[s]

    return _matrix(table, extra_strategies, cell)

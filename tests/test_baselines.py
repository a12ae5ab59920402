from dataclasses import replace

import pytest

from cryptomix import (
    SINGLE_OBJECTIVES,
    InfeasibleDefender,
    compare_strategies,
    comparison_csv,
    defender_polytope,
    evaluate_all,
    random_vertex_strategy,
    single_objective_strategy,
    solve_stackelberg,
)


def strategy_is_feasible(instance, probs):
    for con in defender_polytope(instance):
        value = sum(c * p for c, p in zip(con.coeffs, probs))
        if con.relation == "=" and abs(value - con.rhs) > 1e-7:
            return False
        if con.relation == "<=" and value > con.rhs + 1e-6:
            return False
        if con.relation == ">=" and value < con.rhs - 1e-6:
            return False
    return all(p >= -1e-9 for p in probs)


def test_random_vertex_feasible_and_deterministic(instance):
    a = random_vertex_strategy(instance, 5)
    b = random_vertex_strategy(instance, 5)
    assert a.probs == b.probs
    assert strategy_is_feasible(instance, a.probs)


def test_random_vertices_vary_with_seed(instance):
    seen = {random_vertex_strategy(instance, s).probs for s in range(20)}
    assert len(seen) >= 2


def test_single_objective_strategies(instance):
    for name in SINGLE_OBJECTIVES:
        strat = single_objective_strategy(instance, name)
        assert strategy_is_feasible(instance, strat.probs)
    with pytest.raises(ValueError):
        single_objective_strategy(instance, "min_entropy")


def test_max_resilience_hits_polytope_max(instance):
    strat = single_objective_strategy(instance, "max_resilience")
    value = sum(
        p * a.resilience for p, a in zip(strat.probs, instance.algorithms)
    )
    # bundled data caps resilience at 0.5 but family limits bind earlier
    assert value >= instance.budgets.r_min - 1e-9
    others = [
        sum(p * a.resilience for p, a in zip(s.probs, instance.algorithms))
        for s in (
            single_objective_strategy(instance, "min_op_cost"),
            single_objective_strategy(instance, "min_latency"),
        )
    ]
    assert all(value >= o - 1e-9 for o in others)


def test_stackelberg_row_tops_comparison(instance):
    evals = evaluate_all(instance)
    strategies = [(f"random-{s}", random_vertex_strategy(instance, s).probs) for s in range(5)]
    strategies += [(n, single_objective_strategy(instance, n).probs) for n in SINGLE_OBJECTIVES]
    rows = compare_strategies(instance, strategies, evaluations=evals)
    assert len(rows) == len(strategies) + 1
    best = rows[0].report.objective
    by_label = {row.label: row for row in rows}
    assert by_label["stackelberg"].report.objective == pytest.approx(best)
    eq = solve_stackelberg(instance)
    assert by_label["stackelberg"].report.objective == pytest.approx(
        eq.report.objective
    )
    assert all(r.report.objective <= best + 1e-9 for r in rows)


def test_stackelberg_row_is_the_equilibrium_report(instance):
    eq = solve_stackelberg(instance)
    for evaluations in (eq.evaluations, evaluate_all(instance)):
        (row,) = compare_strategies(instance, [], evaluations)
        assert row.label == "stackelberg"
        assert row.report == eq.report
        assert repr(row.report) == repr(eq.report)  # bitwise, signed zeros too


def test_comparison_sorted_desc(instance):
    rows = compare_strategies(
        instance,
        [(f"random-{s}", random_vertex_strategy(instance, s).probs) for s in range(4)],
        evaluate_all(instance),
    )
    objectives = [r.report.objective for r in rows]
    assert objectives == sorted(objectives, reverse=True)


def test_comparison_csv_format(instance):
    rows = compare_strategies(instance, [("uniform", [1.0 / 8] * 8)], evaluate_all(instance))
    text = comparison_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "label,objective,breach,op,cpu,mem,latency,resilience"
    assert len(lines) == len(rows) + 1
    cells = lines[1].split(",")
    assert cells[0] == rows[0].label
    assert float(cells[1]) == rows[0].report.objective


def test_baseline_infeasible_polytope(instance):
    tight = replace(instance, budgets=replace(instance.budgets, r_min=0.9))
    with pytest.raises(InfeasibleDefender):
        single_objective_strategy(tight, "min_latency")

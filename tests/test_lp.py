from dataclasses import replace

import pytest

import cryptomix.lp
from cryptomix import (
    Constraint,
    InfeasibleDefender,
    LinearProgram,
    LpSolution,
    NotOptimal,
    ScenarioSet,
    alternate_optimum_gap,
    binding_constraints,
    check_dual_certificate,
    compare_strategies,
    scenario_table,
    single_objective_strategy,
    solve_lp,
    solve_maximin,
    solve_minimax_regret,
    solve_stackelberg,
    solve_unconstrained_case,
)


def simple_max():
    return LinearProgram(
        sense="max",
        objective=(3.0, 2.0),
        constraints=(
            Constraint((1.0, 1.0), "<=", 4.0, "cap"),
            Constraint((1.0, 0.0), "<=", 2.0, "xcap"),
        ),
    )


def test_solve_simple_max_vertex():
    sol = solve_lp(simple_max())
    assert sol.status == "optimal"
    assert sol.values == pytest.approx((2.0, 2.0))
    assert sol.objective_value == pytest.approx(10.0)
    assert sol.binding == ("cap", "xcap")


def test_binding_constraints_matches_solution():
    lp = simple_max()
    sol = solve_lp(lp)
    assert binding_constraints(lp, sol) == sol.binding


def test_binding_requires_optimal_status():
    lp = LinearProgram(
        sense="max",
        objective=(1.0,),
        constraints=(
            Constraint((1.0,), "<=", 1.0, "hi"),
            Constraint((1.0,), ">=", 2.0, "lo"),
        ),
    )
    sol = solve_lp(lp)
    assert sol.status == "infeasible"
    with pytest.raises(NotOptimal):
        binding_constraints(lp, sol)


def test_unbounded_detected():
    lp = LinearProgram(sense="max", objective=(1.0,), constraints=())
    assert solve_lp(lp).status == "unbounded"


def test_equality_and_ge_relations():
    lp = LinearProgram(
        sense="min",
        objective=(1.0, 1.0),
        constraints=(
            Constraint((1.0, 1.0), "=", 2.0, "sum"),
            Constraint((1.0, 0.0), ">=", 0.5, "floor"),
        ),
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(2.0)
    assert "sum" in sol.binding


def test_dual_certificate_small_residual():
    for lp in (
        simple_max(),
        LinearProgram(
            sense="min",
            objective=(2.0, 3.0),
            constraints=(
                Constraint((1.0, 1.0), ">=", 1.0, "floor"),
                Constraint((1.0, -1.0), "=", 0.25, "tie"),
            ),
        ),
    ):
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert check_dual_certificate(lp, sol) <= 1e-8


def test_alternate_optimum_gap_zero_for_unique_vertex():
    lp = simple_max()
    sol = solve_lp(lp)
    assert alternate_optimum_gap(lp, sol) <= 1e-9


def test_alternate_optimum_gap_positive_on_degenerate_objective():
    lp = LinearProgram(
        sense="max",
        objective=(1.0, 1.0),
        constraints=(Constraint((1.0, 1.0), "<=", 1.0, "cap"),),
    )
    sol = solve_lp(lp)
    assert alternate_optimum_gap(lp, sol) == pytest.approx(1.0, abs=1e-7)


def test_free_variables_via_bounds():
    lp = LinearProgram(
        sense="min",
        objective=(0.0, 1.0),
        constraints=(Constraint((1.0, -1.0), "<=", 0.0, "link"),),
        lower_bounds=(1.0, None),
        upper_bounds=(2.0, None),
    )
    sol = solve_lp(lp)
    # y >= x and x >= 1, so min y = 1
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0)


def test_constraint_validation():
    with pytest.raises(ValueError):
        Constraint((1.0,), "<", 1.0, "bad-relation")
    with pytest.raises(ValueError):
        LinearProgram(
            sense="max",
            objective=(1.0, 2.0),
            constraints=(Constraint((1.0,), "<=", 1.0, "short"),),
        )
    with pytest.raises(ValueError):
        LinearProgram(sense="best", objective=(1.0,), constraints=())


# every LP the defender, robust and baseline layers solve, with the context
# its status errors name; `table` is a scenario table of the feasible
# bundled instance
LP_SITES = [
    ("defender LP", lambda inst, table: solve_stackelberg(inst)),
    ("scenario k=11: LP", lambda inst, table: scenario_table(inst, ScenarioSet(table.budgets))),
    ("maximin LP", solve_maximin),
    ("minimax-regret LP", solve_minimax_regret),
    ("unconstrained-case LP", lambda inst, table: solve_unconstrained_case(inst)),
    ("baseline LP", lambda inst, table: single_objective_strategy(inst, "min_latency")),
    ("defender LP", lambda inst, table: compare_strategies(inst, [])),
]
SITE_IDS = ["stackelberg", "scenario", "maximin", "regret", "unconstrained", "baseline", "compare"]


@pytest.fixture(scope="module")
def feasible_table(instance, scenarios):
    return scenario_table(instance, scenarios)


@pytest.mark.parametrize("context, site", LP_SITES, ids=SITE_IDS)
def test_lp_sites_raise_infeasible(instance, feasible_table, context, site):
    tight = replace(instance, budgets=replace(instance.budgets, r_min=0.9))
    with pytest.raises(InfeasibleDefender, match=context + " infeasible"):
        site(tight, feasible_table)


@pytest.mark.parametrize("context, site", LP_SITES, ids=SITE_IDS)
def test_lp_sites_raise_not_optimal(monkeypatch, instance, feasible_table, context, site):
    monkeypatch.setattr(cryptomix.lp, "solve_lp", lambda lp: LpSolution(status="unbounded"))
    with pytest.raises(NotOptimal, match=context + " ended with status 'unbounded'"):
        site(instance, feasible_table)


def test_scenario_breach_lp_raises_not_optimal(monkeypatch, instance, scenarios):
    # the breach LP is the scenario table's only minimisation
    def unbounded_min(lp):
        return LpSolution(status="unbounded") if lp.sense == "min" else solve_lp(lp)

    monkeypatch.setattr(cryptomix.lp, "solve_lp", unbounded_min)
    with pytest.raises(NotOptimal, match="scenario k=11: breach LP ended"):
        scenario_table(instance, scenarios)

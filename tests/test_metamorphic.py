"""Metamorphic relations: how an answer must change, or not, when the
input changes in a known way. None needs an oracle.

The fixed cases take the bundled scenario with t_max = 150, so that the
latency cap binds. The hypothesis cases draw random_feasible_instance
seeds; each of their relations was first checked on 60-80 such instances
over the same ranges, and the unit and attacker ones again on 3000 draws
of seed in [0, 10000], none failing. A unit change that the LP layer cannot answer
raises InfeasibleDefender (a HiGHS model error, exit 2) or RuntimeError
(a point that breaks a row, exit 3); it never returns another strategy.
Measured ranges:

- one cost dimension in units of 2^k, k in [-60, 60]: the strategy is
  bitwise the same or the solve raises; every dimension solves for k in
  [-30, 20]. Latency raises RuntimeError from 2^-32 down, and
  InfeasibleDefender comes from 2^24 up on cpu, 2^35 on latency, 2^37 on
  mem and 2^49 on op;
- latency in units of 10^e, e in [-12, 12]: within 1e-9 (5.6e-17 at most)
  or raises; e in [-9, 10] solves, e <= -10 raises RuntimeError and
  e >= 11 InfeasibleDefender;
- the defender's utility times 2^k: solve_stackelberg and the
  unconstrained case keep their strategy bitwise, and their objective
  scales exactly, for k in [-41, 60] (HiGHS answers another vertex at
  some k from -42 down); the scenario table, minimax regret and maximin
  do so for k in [-4, 19];
- the attacker times 2^k, k in [-60, 60]: plans and strategy bitwise;
- attacks or algorithms in reverse order: evaluations equal by repr, and
  the strategy reversed, bitwise on the bundled scenario and within 1e-9
  on random instances (HiGHS pivots in column order: 17 of seeds
  0-10000 differ in their last bits, by 2.0e-15 at most).
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptomix import (
    InfeasibleDefender,
    evaluate_all,
    scenario_table,
    solve_maximin,
    solve_minimax_regret,
    solve_stackelberg,
    solve_unconstrained_case,
)
from cryptomix.model import COSTS
from helpers import random_feasible_instance

UNIT_ERRORS = (InfeasibleDefender, RuntimeError)


@pytest.fixture(scope="module")
def base(instance):
    return replace(instance, budgets=replace(instance.budgets, t_max=150.0))


@pytest.fixture(scope="module")
def equilibrium(base):
    return solve_stackelberg(base)


def bits(values):
    return [v.hex() for v in values]


def in_units(instance, cost, factor):
    """The same game with one cost dimension in other units: every field
    and the cap times factor, the weight divided by it."""
    algorithms = tuple(
        replace(a, **{cost.field: getattr(a, cost.field) * factor}) for a in instance.algorithms
    )
    budgets = replace(instance.budgets, **{cost.cap: getattr(instance.budgets, cost.cap) * factor})
    weights = replace(
        instance.weights, **{cost.weight: getattr(instance.weights, cost.weight) / factor}
    )
    return replace(instance, algorithms=algorithms, budgets=budgets, weights=weights)


def utility_times(instance, k):
    """Every protected_value and every weight times 2^k."""
    f = 2.0**k
    algorithms = tuple(replace(a, protected_value=a.protected_value * f) for a in instance.algorithms)
    w = instance.weights
    weights = replace(
        w, g_op=w.g_op * f, g_cpu=w.g_cpu * f, g_mem=w.g_mem * f, g_tau=w.g_tau * f, g_r=w.g_r * f
    )
    return replace(instance, algorithms=algorithms, weights=weights)


def attacker_times(instance, k):
    """The attacker's value and both penalty coefficients times 2^k."""
    f = 2.0**k
    a = instance.attacker
    cost_fn = replace(
        a.cost_fn,
        linear_coeff=a.cost_fn.linear_coeff * f,
        quadratic_coeff=a.cost_fn.quadratic_coeff * f,
    )
    return replace(instance, attacker=replace(a, value=a.value * f, cost_fn=cost_fn))


def strategy_or_none(instance):
    """solve_stackelberg's strategy, or None where the LP layer raises."""
    try:
        return solve_stackelberg(instance).report.strategy.probs
    except UNIT_ERRORS:
        return None


@pytest.mark.parametrize("cost", COSTS, ids=[cost.key for cost in COSTS])
def test_a_unit_change_by_a_power_of_two_keeps_the_strategy_or_raises(base, equilibrium, cost):
    want = bits(equilibrium.report.strategy.probs)
    for k in range(-60, 61):
        probs = strategy_or_none(in_units(base, cost, 2.0**k))
        assert probs is not None or not -30 <= k <= 20, k
        assert probs is None or bits(probs) == want, k


def test_a_decimal_unit_change_of_latency_keeps_the_strategy_or_raises(base, equilibrium):
    want = equilibrium.report.strategy.probs
    for e in range(-12, 13):
        probs = strategy_or_none(in_units(base, COSTS[3], 10.0**e))
        assert probs is not None or not -9 <= e <= 10, e
        assert probs is None or max(abs(p - q) for p, q in zip(probs, want)) <= 1e-9, e


def test_defender_utility_times_a_power_of_two(base, equilibrium):
    unconstrained = solve_unconstrained_case(base)
    for k in range(-41, 61):
        scaled = utility_times(base, k)
        for want, got in (
            (equilibrium.report, solve_stackelberg(scaled).report),
            (unconstrained, solve_unconstrained_case(scaled)),
        ):
            assert bits(got.strategy.probs) == bits(want.strategy.probs), k
            assert got.objective == math.ldexp(want.objective, k), k


def test_robust_strategies_under_defender_utility_times_a_power_of_two(base, scenarios):
    table = scenario_table(base, scenarios)
    regret = solve_minimax_regret(base, table)
    maximin = solve_maximin(base, table)
    for k in range(-4, 20):
        scaled = utility_times(base, k)
        got = scenario_table(scaled, scenarios)
        assert repr(got.optimal_strategies) == repr(table.optimal_strategies), k
        assert got.optima == tuple(math.ldexp(v, k) for v in table.optima), k
        mmr = solve_minimax_regret(scaled, got)
        assert bits(mmr.strategy.probs) == bits(regret.strategy.probs), k
        assert mmr.per_scenario_regret == tuple(
            math.ldexp(v, k) for v in regret.per_scenario_regret
        ), k
        assert bits(solve_maximin(scaled, got).strategy.probs) == bits(maximin.strategy.probs), k


def reversed_attacks(instance):
    algorithms = tuple(replace(a, attacks=a.attacks[::-1]) for a in instance.algorithms)
    return replace(instance, algorithms=algorithms)


def test_order_relations_on_the_bundled_scenario(base, equilibrium):
    assert repr(evaluate_all(reversed_attacks(base))) == repr(equilibrium.evaluations)
    flipped = solve_stackelberg(replace(base, algorithms=base.algorithms[::-1]))
    assert bits(flipped.report.strategy.probs[::-1]) == bits(equilibrium.report.strategy.probs)


SEEDS = st.integers(min_value=0, max_value=10_000)


@settings(max_examples=60, deadline=None)
@given(
    SEEDS,
    st.sampled_from(COSTS),
    st.one_of(
        st.integers(-60, 60).map(lambda k: 2.0**k), st.integers(-12, 12).map(lambda e: 10.0**e)
    ),
)
def test_a_unit_change_on_random_instances_keeps_the_strategy_or_raises(seed, cost, factor):
    instance = random_feasible_instance(np.random.default_rng(seed))
    want = solve_stackelberg(instance).report.strategy.probs
    probs = strategy_or_none(in_units(instance, cost, factor))
    assert probs is None or max(abs(p - q) for p, q in zip(probs, want)) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.integers(-60, 60))
def test_attacker_times_a_power_of_two_on_random_instances(seed, k):
    instance = random_feasible_instance(np.random.default_rng(seed))
    want = solve_stackelberg(instance)
    got = solve_stackelberg(attacker_times(instance, k))
    assert [ev.attack_plan.methods for ev in got.evaluations] == [
        ev.attack_plan.methods for ev in want.evaluations
    ]
    assert bits(got.report.strategy.probs) == bits(want.report.strategy.probs)


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_order_relations_on_random_instances(seed):
    instance = random_feasible_instance(np.random.default_rng(seed))
    want = solve_stackelberg(instance)
    assert repr(evaluate_all(reversed_attacks(instance))) == repr(want.evaluations)
    flipped = solve_stackelberg(replace(instance, algorithms=instance.algorithms[::-1]))
    got = flipped.report.strategy.probs[::-1]
    assert max(abs(p - q) for p, q in zip(got, want.report.strategy.probs)) <= 1e-9

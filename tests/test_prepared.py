"""The attacker's prepared record (attacker._Prepared): built once per
algorithm and cost grid, kept on the frozen algorithm in one slot, left
behind by pickle and deep copy, and never the cause of another answer."""

import dataclasses
import math
import pickle
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cryptomix.attacker
from cryptomix import (
    AttackMethod,
    AttackerParams,
    BudgetNegative,
    CostFunctionSpec,
    CryptomixError,
    SolverConfig,
    ValidationError,
    evaluate_budgets,
    load_bundled_scenario,
    scenario_table,
    solve_brute_force,
    solve_dp,
    solve_hybrid,
    solve_sample_greedy,
    solve_stackelberg,
)
from cryptomix.attacker import hybrid_plans
from helpers import bare_algorithm, identical_methods

# every solver and dispatcher, called as solve(algorithm, params, config)
SOLVERS = pytest.mark.parametrize(
    "solve",
    [
        solve_dp,
        solve_sample_greedy,
        solve_hybrid,
        lambda alg, params, config: solve_brute_force(alg, params),
        lambda alg, params, config: hybrid_plans(
            alg, params, (params.budget, params.budget + 7.5), config
        ),
    ],
    ids=["dp", "greedy", "hybrid", "brute", "hybrid_plans"],
)


def record_of(algorithm):
    return vars(algorithm).get("_prepared")


def fresh(algorithm):
    """A pickle clone, which holds no record."""
    clone = pickle.loads(pickle.dumps(algorithm))
    assert record_of(clone) is None
    return clone


def outcome(call):
    """The answer of call by repr, or the error it raises."""
    try:
        return repr(call())
    except CryptomixError as error:
        return f"{type(error).__name__}: {error}"


@st.composite
def warm_cases(draw):
    """Up to 8 methods, often equal neighbours, with success 0 or 1 and
    free or infinite costs among them; two params and two grids."""
    pairs = st.tuples(
        st.sampled_from([0.0, 0.3, 0.5, 1.0]), st.sampled_from([0.0, 0.5, 1.0, 2.5, math.inf])
    )
    real = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 20.0))
    specs = draw(st.lists(st.one_of(pairs, real), max_size=8))
    alg = bare_algorithm(tuple(AttackMethod(f"m{i}", *pair) for i, pair in enumerate(specs)))
    params = [
        AttackerParams(
            # a value <= 0 is refused before any record is built
            # (test_attacker.py's agreement test covers it)
            value=draw(st.floats(1.0, 500.0)),
            budget=draw(st.floats(0.0, 40.0)),
            cost_fn=CostFunctionSpec(
                draw(st.sampled_from([0.0, 1.0, 2.5])), draw(st.sampled_from([0.0, 0.05]))
            ),
        )
        for _ in range(2)
    ]
    grids = draw(
        st.lists(
            st.builds(
                SolverConfig,
                cost_scale=st.sampled_from([1, 2, 10]),
                max_table_cells=st.sampled_from([50, 600, 100_000]),
            ),
            min_size=2,
            max_size=2,
            unique_by=lambda c: (c.cost_scale, c.max_table_cells),
        )
    )
    return alg, params, grids


@SOLVERS
@settings(max_examples=40, deadline=None)
@given(warm_cases())
def test_warm_answers_equal_cold_ones(solve, case):
    # params A on one grid, B on the other, then A again and both grids
    # alternated: each answer is a fresh clone's, by repr
    alg, (a, b), (one, two) = case
    for params, config in ((a, one), (b, two), (a, one), (b, one), (a, two)):
        warm = outcome(lambda: solve(alg, params, config))
        assert warm == outcome(lambda: solve(fresh(alg), params, config))
        assert record_of(alg) is not None


def test_the_record_is_kept_like_the_polytope():
    alg = bare_algorithm(identical_methods(4) + (AttackMethod("z", 0.6, 2.5),))
    params = AttackerParams(value=300.0, budget=6.0)
    before = (repr(alg), hash(alg), pickle.dumps(alg))
    solve_hybrid(alg, params)
    record = record_of(alg)
    assert record.key == (10, 100_000)
    assert (repr(alg), hash(alg), pickle.dumps(alg)) == before
    solve_dp(alg, dataclasses.replace(params, value=50.0))
    assert record_of(alg) is record  # params do not enter the record
    # a replaced algorithm is a new one, with its own record
    twin = dataclasses.replace(alg)
    assert twin == alg and hash(twin) == hash(alg) and record_of(twin) is None
    solve_hybrid(twin, params)
    assert record_of(twin) is not record
    # brute force takes the default grid's record, here the one kept
    solve_brute_force(alg, params)
    assert record_of(alg) is record
    # another grid replaces the one slot
    solve_dp(alg, params, SolverConfig(cost_scale=2))
    assert record_of(alg).key == (2, 100_000)
    arrays = [
        value
        for holder in (record, record.frontier)
        for value in vars(holder).values()
        if isinstance(value, np.ndarray)
    ]
    assert len(arrays) == 9  # cost, success, and the frontier's seven
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


@SOLVERS
def test_an_invalid_cost_keeps_no_record_and_its_place_in_the_checks(solve):
    # the checks run in one order: a nan budget, then the attacker's value
    # and phi (model._attacker_problems), then the costs, then the
    # successes; an invalid attacker, cost or success keeps no record
    params = AttackerParams(value=10.0, budget=5.0)
    signs = dataclasses.replace(params, value=-10.0, cost_fn=CostFunctionSpec(-1.0, 0.0))
    refused = (
        "^attacker value must be > 0, got -10.0; "
        "attacker cost_fn.linear_coeff must be >= 0, got -1.0$"
    )
    config = SolverConfig()
    for success in (1.5, -0.2, math.nan):
        alg = bare_algorithm((AttackMethod("a", 0.5, math.nan), AttackMethod("b", success, 2.0)))
        paid = dataclasses.replace(alg, attacks=(AttackMethod("a", 0.5, 1.0), alg.attacks[1]))
        for bad in (alg, paid):
            with pytest.raises(BudgetNegative, match="^budget nan is not a number$"):
                solve(bad, dataclasses.replace(signs, budget=math.nan), config)
            with pytest.raises(ValidationError, match=refused):
                solve(bad, signs, config)
        wrong = re.escape(f"target/b: success must be in [0, 1], got {success}")
        for _ in range(2):
            with pytest.raises(ValidationError, match="^target/a: cost must be >= 0, got nan$"):
                solve(alg, params, config)
            assert record_of(alg) is None
            with pytest.raises(ValidationError, match=f"^{wrong}$"):
                solve(paid, params, config)
            assert record_of(paid) is None
    valid = dataclasses.replace(alg, attacks=paid.attacks[:1])
    with pytest.raises(ValidationError, match=refused):
        solve(valid, signs, config)
    assert record_of(valid) is None
    solve(valid, params, config)
    assert record_of(valid) is not None


def test_a_session_prepares_each_algorithm_once(monkeypatch):
    # solve_stackelberg, then scenario_table at every scenario budget: one
    # record per algorithm, built by the first call
    inst, scenarios = load_bundled_scenario()
    built = []
    prepare = cryptomix.attacker._prepare

    def spy(algorithm, config):
        built.append(algorithm.id)
        return prepare(algorithm, config)

    monkeypatch.setattr(cryptomix.attacker, "_prepare", spy)
    solve_stackelberg(inst)
    scenario_table(inst, scenarios)
    assert sorted(built) == sorted(alg.id for alg in inst.algorithms)
    assert len(built) == 8


def test_threads_racing_to_the_first_call_agree():
    inst, scenarios = load_bundled_scenario()
    want = repr(evaluate_budgets(pickle.loads(pickle.dumps(inst)), scenarios.budgets))
    shared = pickle.loads(pickle.dumps(inst))
    start = threading.Barrier(4)

    def run():
        start.wait(timeout=30)
        return repr(evaluate_budgets(shared, scenarios.budgets))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run) for _ in range(4)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [want] * 4

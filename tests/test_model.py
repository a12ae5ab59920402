import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cryptomix import (
    AttackMethod,
    AttackPlan,
    AttackerParams,
    CostFunctionSpec,
    make_plan,
    phi,
    plan_key,
    success_probability,
    validate_instance,
)

probs = st.floats(min_value=0.01, max_value=0.99)


def method(i, s, c=1.0):
    return AttackMethod(f"m{i}", s, c)


def test_success_probability_empty_is_zero():
    assert success_probability(()) == 0.0


def test_success_probability_single():
    assert success_probability([method(0, 0.3)]) == pytest.approx(0.3)


def test_success_probability_pair():
    got = success_probability([method(0, 0.5), method(1, 0.25)])
    assert got == pytest.approx(1.0 - 0.5 * 0.75)


def test_success_probability_input_order_irrelevant_bitwise():
    ms = [method(i, 0.1 + 0.07 * i) for i in range(6)]
    assert success_probability(ms) == success_probability(list(reversed(ms)))


@given(st.lists(probs, min_size=1, max_size=8))
def test_success_probability_strictly_inside_unit_interval(ss):
    ms = [method(i, s) for i, s in enumerate(ss)]
    assert 0.0 < success_probability(ms) < 1.0


@given(st.lists(probs, min_size=0, max_size=6), probs)
def test_adding_a_method_never_decreases_success(ss, extra):
    ms = [method(i, s) for i, s in enumerate(ss)]
    base = success_probability(ms)
    assert success_probability(ms + [method(99, extra)]) >= base


def test_phi_linear_default():
    assert phi(CostFunctionSpec(), 7.5) == 7.5
    assert phi(CostFunctionSpec(), 0.0) == 0.0


def test_phi_quadratic():
    spec = CostFunctionSpec(linear_coeff=2.0, quadratic_coeff=0.5)
    assert phi(spec, 3.0) == pytest.approx(6.0 + 4.5)


def test_make_plan_canonical_order_and_fields():
    params = AttackerParams(value=100.0, budget=10.0)
    plan = make_plan([method(1, 0.5, 4.0), method(0, 0.5, 4.0)], params)
    assert plan.methods == ("m0", "m1")
    assert plan.total_cost == 8.0
    assert plan.success_prob == 0.75
    assert plan.utility == 100.0 * 0.75 - 8.0


def test_plan_key_orders_by_utility_cost_then_ids():
    high = AttackPlan(("x",), 0.5, 10.0, 40.0)
    low = AttackPlan(("y",), 0.5, 10.0, 39.0)
    cheap = AttackPlan(("y",), 0.5, 9.0, 40.0)
    lex = AttackPlan(("w",), 0.5, 10.0, 40.0)
    # ids compare from the largest down: ("b",) before ("a", "x")
    colex = AttackPlan(("b",), 0.5, 10.0, 40.0)
    pair = AttackPlan(("a", "x"), 0.5, 10.0, 40.0)
    assert plan_key(high) < plan_key(low)
    assert plan_key(cheap) < plan_key(high)
    assert plan_key(lex) < plan_key(high)
    assert plan_key(colex) < plan_key(pair)


def test_validate_accepts_bundled(instance):
    report = validate_instance(instance)
    assert report.ok
    assert report.violations == ()


def _broken(instance, **alg_changes):
    algs = list(instance.algorithms)
    algs[0] = dataclasses.replace(algs[0], **alg_changes)
    return dataclasses.replace(instance, algorithms=tuple(algs))


def test_validate_flags_bad_success(instance):
    atk = AttackMethod("bad", 1.2, 5.0)
    broken = _broken(instance, attacks=instance.algorithms[0].attacks + (atk,))
    report = validate_instance(broken)
    assert not report.ok
    assert any("success out of (0,1)" in v for v in report.violations)


def test_validate_flags_negative_cost(instance):
    atk = AttackMethod("bad", 0.5, -1.0)
    broken = _broken(instance, attacks=instance.algorithms[0].attacks + (atk,))
    assert not validate_instance(broken).ok


def test_validate_flags_duplicate_algorithm_ids(instance):
    broken = _broken(instance, id=instance.algorithms[1].id)
    report = validate_instance(broken)
    assert any("duplicate algorithm id" in v for v in report.violations)


def test_validate_flags_empty_algorithm_list(instance):
    # with no algorithm there is no mixed strategy, so no LP to build
    report = validate_instance(dataclasses.replace(instance, algorithms=()))
    assert report.violations == ("scenario has no algorithms",)


def test_validate_flags_resilience_out_of_range(instance):
    report = validate_instance(_broken(instance, resilience=1.5))
    assert any("resilience" in v for v in report.violations)


def test_validate_flags_bad_family_cap(instance):
    budgets = dataclasses.replace(
        instance.budgets, family_caps={**instance.budgets.family_caps, 1: 0.0}
    )
    report = validate_instance(dataclasses.replace(instance, budgets=budgets))
    assert any("cap out of (0,1]" in v for v in report.violations)


def test_validate_flags_negative_attacker_budget(instance):
    attacker = dataclasses.replace(instance.attacker, budget=-1.0)
    report = validate_instance(dataclasses.replace(instance, attacker=attacker))
    assert any("attacker budget" in v for v in report.violations)


def test_uncapped_family_defaults_to_one(instance):
    assert instance.budgets.cap(99) == 1.0


def test_mixed_strategy_support(instance):
    from cryptomix import MixedStrategy

    strat = MixedStrategy((0.0, 1e-9, 0.5, 0.5))
    assert strat.support() == (2, 3)


def test_instance_algorithm_lookup(instance):
    assert instance.algorithm("sha-256").id == "sha-256"
    with pytest.raises(KeyError):
        instance.algorithm("nope")

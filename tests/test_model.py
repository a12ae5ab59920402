import copy
import dataclasses
import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cryptomix import (
    AttackMethod,
    AttackPlan,
    AttackerParams,
    CostFunctionSpec,
    defender_polytope,
    evaluate_all,
    load_bundled_scenario,
    make_plan,
    phi,
    plan_key,
    solve_stackelberg,
    validate_instance,
)
from cryptomix.model import failure_product

probs = st.floats(min_value=0.01, max_value=0.99)


def method(i, s, c=1.0):
    return AttackMethod(f"m{i}", s, c)


def plan_success(methods):
    """P_succ of the method set, as make_plan gives it to every plan."""
    return make_plan(methods, AttackerParams(value=1.0, budget=0.0)).success_prob


def test_success_probability_empty_is_zero():
    assert plan_success(()) == 0.0


def test_success_probability_single():
    assert plan_success([method(0, 0.3)]) == pytest.approx(0.3)


def test_success_probability_pair():
    got = plan_success([method(0, 0.5), method(1, 0.25)])
    assert got == pytest.approx(1.0 - 0.5 * 0.75)


def test_success_probability_input_order_irrelevant_bitwise():
    ms = [method(i, 0.1 + 0.07 * i) for i in range(6)]
    assert plan_success(ms) == plan_success(list(reversed(ms)))


@given(st.lists(probs, min_size=1, max_size=8))
def test_success_probability_strictly_inside_unit_interval(ss):
    ms = [method(i, s) for i, s in enumerate(ss)]
    assert 0.0 < plan_success(ms) < 1.0


@given(st.lists(probs, min_size=0, max_size=6), probs)
def test_adding_a_method_never_decreases_success(ss, extra):
    ms = [method(i, s) for i, s in enumerate(ss)]
    base = plan_success(ms)
    assert plan_success(ms + [method(99, extra)]) >= base


def test_phi_linear_default():
    assert phi(CostFunctionSpec(), 7.5) == 7.5
    assert phi(CostFunctionSpec(), 0.0) == 0.0


def test_phi_quadratic():
    spec = CostFunctionSpec(linear_coeff=2.0, quadratic_coeff=0.5)
    assert phi(spec, 3.0) == pytest.approx(6.0 + 4.5)


coeffs = st.sampled_from([0.0, -0.0, 0.5, 1.0, 3.0]) | st.floats(0.0, 1e6)


@given(coeffs, coeffs, st.floats(-1e154, 1e154) | st.sampled_from([0.0, -0.0, 1.34e154]))
def test_phi_is_the_formula_bitwise_where_the_square_is_finite(linear, quadratic, total):
    formula = linear * total + quadratic * total**2
    assert phi(CostFunctionSpec(linear, quadratic), total).hex() == formula.hex()


@pytest.mark.parametrize("total", [1.35e154, 1e155, 1e200, 1.7e308])
def test_phi_takes_an_overflowing_square_as_inf(total):
    assert phi(CostFunctionSpec(1.0, 0.5), total) == math.inf
    # at a zero quadratic coefficient the quadratic term is 0.0, not 0 * inf
    assert phi(CostFunctionSpec(2.0, 0.0), total) == 2.0 * total
    assert phi(CostFunctionSpec(0.0, 0.0), total) == 0.0


def test_make_plan_canonical_order_and_fields():
    params = AttackerParams(value=100.0, budget=10.0)
    plan = make_plan([method(1, 0.5, 4.0), method(0, 0.5, 4.0)], params)
    assert plan.methods == ("m0", "m1")
    assert plan.total_cost == 8.0
    assert plan.success_prob == 0.75
    assert plan.utility == 100.0 * 0.75 - 8.0


def two_pass_plan(methods, params):
    """make_plan as it was written before its one loop: the cost summed
    over the sorted methods, then 1 - failure_product, which sorts them
    again."""
    ms = sorted(methods, key=lambda m: m.id)
    total = 0.0
    for m in ms:
        total += m.cost
    p_succ = 1.0 - failure_product(ms)
    return AttackPlan(
        tuple(m.id for m in ms), p_succ, total, params.value * p_succ - phi(params.cost_fn, total)
    )


@given(
    st.lists(
        st.tuples(
            st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
            st.one_of(st.floats(0.0, 1e6), st.sampled_from([0.0, math.inf])),
        ),
        max_size=8,
    ),
    st.floats(-1e3, 1e3),
    st.sampled_from([CostFunctionSpec(), CostFunctionSpec(0.0, 0.0), CostFunctionSpec(2.5, 0.1)]),
    st.randoms(use_true_random=False),
)
def test_make_plan_equals_the_two_pass_formula(specs, value, spec, rng):
    methods = [method(i, s, c) for i, (s, c) in enumerate(specs)]
    rng.shuffle(methods)
    params = AttackerParams(value=value, budget=0.0, cost_fn=spec)
    assert repr(make_plan(methods, params)) == repr(two_pass_plan(methods, params))


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


def test_validate_flags_duplicate_attack_ids(instance):
    repeated = instance.algorithms[0].attacks[0]
    broken = _broken(instance, attacks=instance.algorithms[0].attacks + (repeated,))
    assert validate_instance(broken).violations == (
        f"aes128-gcm: duplicate attack id {repeated.id!r}",
    )


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


def test_validate_flags_r_min_out_of_range(instance):
    budgets = dataclasses.replace(instance.budgets, r_min=1.5)
    report = validate_instance(dataclasses.replace(instance, budgets=budgets))
    assert report.violations == ("r_min out of [0,1]: 1.5",)


def test_validate_flags_negative_attacker_budget(instance):
    attacker = dataclasses.replace(instance.attacker, budget=-1.0)
    report = validate_instance(dataclasses.replace(instance, attacker=attacker))
    assert any("attacker budget" in v for v in report.violations)


def _with(instance, where, name, value):
    """instance with one number replaced: a field of its first algorithm,
    of that algorithm's first attack, of its attacker, of the attacker's
    cost function, or of its budgets or weights."""
    change = {name: value}
    alg = instance.algorithms[0]
    attacker = instance.attacker
    if where == "algorithm":
        return _broken(instance, **change)
    if where == "attack":
        attack = dataclasses.replace(alg.attacks[0], **change)
        return _broken(instance, attacks=(attack,) + alg.attacks[1:])
    if where == "cost_fn":
        cost_fn = dataclasses.replace(attacker.cost_fn, **change)
        attacker = dataclasses.replace(attacker, cost_fn=cost_fn)
        return dataclasses.replace(instance, attacker=attacker)
    part = getattr(instance, where)
    return dataclasses.replace(instance, **{where: dataclasses.replace(part, **change)})


# (part, field, a bad finite number, the violation it and a NaN raise)
BAD_NUMBERS = [
    *[
        ("algorithm", field, -1.0, "{alg}: " + field + " must be >= 0, got {v}")
        for field in ("op_cost", "cpu_cost", "mem_cost", "latency")
    ],
    ("algorithm", "protected_value", 0.0, "{alg}: protected_value must be > 0, got {v}"),
    ("attack", "cost", -1.0, "{alg}/{atk}: cost must be >= 0, got {v}"),
    *[
        ("budgets", cap, 0.0, cap + " must be > 0, got {v}")
        for cap in ("c_op_max", "c_cpu_max", "c_mem_max", "t_max")
    ],
    *[
        ("weights", weight, -1.0, weight + " must be >= 0, got {v}")
        for weight in ("g_op", "g_cpu", "g_mem", "g_tau", "g_r")
    ],
    ("attacker", "value", 0.0, "attacker value must be > 0, got {v}"),
    ("attacker", "budget", -1.0, "attacker budget must be >= 0, got {v}"),
    *[
        ("cost_fn", coeff, -1.0, "attacker cost_fn." + coeff + " must be >= 0, got {v}")
        for coeff in ("linear_coeff", "quadratic_coeff")
    ],
]


@pytest.mark.parametrize(
    "where, name, bad, message", BAD_NUMBERS, ids=[f"{w}.{n}" for w, n, _, _ in BAD_NUMBERS]
)
def test_validate_flags_nan_as_it_flags_a_bad_finite_number(instance, where, name, bad, message):
    # each rule reads "not x >= 0" or "not x > 0", so a NaN fails it with
    # the message a finite bad number gets
    alg = instance.algorithms[0]
    for value in (bad, math.nan):
        want = message.format(alg=alg.id, atk=alg.attacks[0].id, v=value)
        assert validate_instance(_with(instance, where, name, value)).violations == (want,)


# (part, field, the violation an infinite value raises)
INFINITE_NUMBERS = [
    *[
        ("algorithm", field, "{alg}: " + field + " must be finite, got inf")
        for field in ("op_cost", "cpu_cost", "mem_cost", "latency", "protected_value")
    ],
    *[
        ("budgets", cap, cap + " must be finite, got inf")
        for cap in ("c_op_max", "c_cpu_max", "c_mem_max", "t_max")
    ],
    *[
        ("weights", weight, weight + " must be finite, got inf")
        for weight in ("g_op", "g_cpu", "g_mem", "g_tau", "g_r")
    ],
    ("attacker", "value", "attacker value must be finite, got inf"),
    *[
        ("cost_fn", coeff, "attacker cost_fn." + coeff + " must be finite, got inf")
        for coeff in ("linear_coeff", "quadratic_coeff")
    ],
]


@pytest.mark.parametrize(
    "where, name, message", INFINITE_NUMBERS, ids=[f"{w}.{n}" for w, n, _ in INFINITE_NUMBERS]
)
def test_validate_flags_an_infinite_number(instance, where, name, message):
    # inf passes every sign rule, and the LPs then refuse it late
    want = message.format(alg=instance.algorithms[0].id)
    assert validate_instance(_with(instance, where, name, math.inf)).violations == (want,)


@pytest.mark.parametrize("where, name", [("attack", "cost"), ("attacker", "budget")])
def test_an_infinite_attack_cost_or_budget_stays_legal(instance, where, name):
    assert validate_instance(_with(instance, where, name, math.inf)).ok


def test_family_caps_are_read_only(instance):
    caps = {1: 0.5}
    budgets = dataclasses.replace(instance.budgets, family_caps=caps)
    caps[1] = 0.9  # the budgets hold a copy
    assert budgets.cap(1) == 0.5
    with pytest.raises(TypeError):
        budgets.family_caps[1] = 0.9
    with pytest.raises(TypeError):
        del instance.budgets.family_caps[next(iter(instance.budgets.family_caps))]
    assert budgets.family_caps == {1: 0.5}


@pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy])
def test_instances_pickle_and_deep_copy(instance, clone):
    polytope = defender_polytope(instance)
    fresh = [pickle.dumps(dataclasses.replace(alg)) for alg in instance.algorithms]
    evaluate_all(instance)  # keeps the attacker's record on every algorithm
    twin = clone(instance)
    assert twin == instance and repr(twin) == repr(instance)
    assert list(map(hash, twin.algorithms)) == list(map(hash, instance.algorithms))
    assert defender_polytope(twin) == polytope
    # the record is not state: a copy leaves it behind, and pickles as before
    assert all("_prepared" in vars(alg) for alg in instance.algorithms)
    assert not any("_prepared" in vars(alg) for alg in twin.algorithms)
    assert [pickle.dumps(alg) for alg in instance.algorithms] == fresh
    with pytest.raises(TypeError):
        twin.budgets.family_caps[1] = 0.9


def test_an_instance_pickles_its_fields_only():
    # the polytope kept on the instance is rebuilt by a clone, as the
    # attacker's record is on each algorithm
    inst, _ = load_bundled_scenario()
    before = pickle.dumps(inst)
    solve_stackelberg(inst)
    assert "_polytope" in vars(inst)
    assert pickle.dumps(inst) == before
    assert "_polytope" not in vars(pickle.loads(before))


def test_instances_and_budgets_hash(instance):
    twin = pickle.loads(pickle.dumps(instance))
    assert hash(twin) == hash(instance)
    assert hash(twin.budgets) == hash(instance.budgets)
    assert {instance: 1, twin: 2} == {instance: 2}
    # the caps are left out of the hash, not out of ==
    caps = {fam: 0.5 for fam in instance.budgets.family_caps}
    tighter = dataclasses.replace(instance.budgets, family_caps=caps)
    assert tighter != instance.budgets and hash(tighter) == hash(instance.budgets)


def test_replaced_budgets_get_their_own_polytope(instance):
    caps = {fam: 0.5 for fam in instance.budgets.family_caps}
    tighter = dataclasses.replace(
        instance, budgets=dataclasses.replace(instance.budgets, family_caps=caps)
    )
    polytope = defender_polytope(tighter)
    assert polytope is not defender_polytope(instance)
    assert {con.rhs for con in polytope if con.label.startswith("family:")} == {0.5}
    assert defender_polytope(tighter) is polytope


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

from dataclasses import replace

import numpy as np
import pytest

from cryptomix import (
    ComparisonRow,
    HybridResult,
    InfeasibleDefender,
    comparison_csv,
    evaluate_all,
    defender_polytope,
    make_report,
    per_algorithm_utility,
    solve_lp,
    solve_hybrid,
    solve_stackelberg,
    make_plan,
)

from helpers import (
    identical_methods,
    random_feasible_instance,
    random_methods,
    run_python,
    spread_methods,
)


# the defender's utility written out term by term
def explicit_utility(alg, w, p):
    return (
        alg.protected_value * (1.0 - p)
        - w.g_op * alg.op_cost
        - w.g_cpu * alg.cpu_cost
        - w.g_mem * alg.mem_cost
        - w.g_tau * alg.latency
        + w.g_r * alg.resilience
    )


def test_per_algorithm_utility_formula(instance):
    alg = instance.algorithm("aes128-gcm")
    w = instance.weights
    assert per_algorithm_utility(alg, w, 0.3).hex() == explicit_utility(alg, w, 0.3).hex()


# the cost model written out by hand, one (usage key, algorithm field,
# cap) per polytope row after the simplex
HAND_WRITTEN = (
    ("op", "op_cost", "c_op_max"),
    ("cpu", "cpu_cost", "c_cpu_max"),
    ("mem", "mem_cost", "c_mem_max"),
    ("latency", "latency", "t_max"),
    ("resilience", "resilience", "r_min"),
)


@pytest.mark.parametrize("seed", range(6))
def test_the_cost_table_drives_every_listing(seed):
    from cryptomix.model import COSTS

    rng = np.random.default_rng(seed)
    inst = random_feasible_instance(rng)
    algs, w, b = inst.algorithms, inst.weights, inst.budgets
    for alg in algs:
        p = float(rng.uniform())
        assert per_algorithm_utility(alg, w, p).hex() == explicit_utility(alg, w, p).hex()
    probs = [float(q) for q in rng.dirichlet(np.ones(len(algs)))]
    report = make_report(inst, probs, evaluate_all(inst))
    usage = report.usage
    assert list(usage) == [key for key, _, _ in HAND_WRITTEN]
    for key, field, _ in HAND_WRITTEN:
        total = 0.0
        for q, a in zip(probs, algs):
            total += q * getattr(a, field)
        assert usage[key].hex() == total.hex()
    polytope = defender_polytope(inst)
    assert [c.label for c in polytope[1:6]] == [cost.key for cost in COSTS] + ["resilience"]
    for con, (key, field, cap) in zip(polytope[1:6], HAND_WRITTEN):
        assert (con.label, con.coeffs, con.rhs) == (
            key, tuple(getattr(a, field) for a in algs), getattr(b, cap)
        )
    assert comparison_csv([]) == "label,objective,breach,op,cpu,mem,latency,resilience\n"
    fields = (report.objective, report.expected_breach, *(usage[key] for key, _, _ in HAND_WRITTEN))
    assert ComparisonRow("x", report).csv_line() == "x," + ",".join(repr(v) for v in fields)


def test_polytope_labels_for_bundled(instance):
    labels = [c.label for c in defender_polytope(instance)]
    assert labels == [
        "simplex",
        "op",
        "cpu",
        "mem",
        "latency",
        "resilience",
        "family:0",
        "family:1",
        "family:2",
        "family:3",
    ]


def test_polytope_relations(instance):
    by_label = {c.label: c for c in defender_polytope(instance)}
    assert by_label["simplex"].relation == "="
    assert by_label["simplex"].rhs == 1.0
    assert by_label["resilience"].relation == ">="
    assert by_label["op"].relation == "<="
    # family rows select exactly the members of that family
    fam1 = by_label["family:1"]
    members = [a.family == 1 for a in instance.algorithms]
    assert list(fam1.coeffs) == [1.0 if m else 0.0 for m in members]


def test_evaluate_all_order_and_solver(instance):
    evals = evaluate_all(instance)
    assert [e.algorithm_id for e in evals] == [a.id for a in instance.algorithms]
    assert all(e.solver == "dp" for e in evals)
    for ev, alg in zip(evals, instance.algorithms):
        assert ev.attack_plan.total_cost <= instance.attacker.budget + 1e-9
        assert ev.utility == pytest.approx(
            per_algorithm_utility(alg, instance.weights, ev.p_succ_star)
        )


@pytest.mark.parametrize("budget, solver", [(30.0, "dp"), (50.0, "dp"), (50.0, "greedy")])
def test_evaluate_all_equals_solve_hybrid(instance, budget, solver):
    # 250 random methods reduce to a handful, whose table fits at either
    # budget; 250 methods whose successes differ by 1e-12 cannot be
    # reduced, and their table of 501 cells does not fit the cell cap; 250
    # equal methods are one run, cut to the few the best plan takes
    if solver == "dp":
        attacks = random_methods(np.random.default_rng(8), 250, max_cost=30)
    else:
        attacks = spread_methods(250)
    wide = (
        replace(instance.algorithms[0], attacks=attacks),
        replace(instance.algorithms[1], attacks=identical_methods(250)),
    )
    inst = replace(
        instance,
        algorithms=wide + instance.algorithms[2:],
        attacker=replace(instance.attacker, budget=budget),
    )
    evals = evaluate_all(inst)
    assert [ev.solver for ev in evals[:2]] == [solver, "dp"]
    for alg, ev in zip(inst.algorithms, evals):
        assert solve_hybrid(alg, inst.attacker) == HybridResult(ev.attack_plan, ev.solver)


def test_evaluation_matches_best_response(instance):
    # the attack plan must dominate any single affordable method
    evals = {e.algorithm_id: e for e in evaluate_all(instance)}
    for alg in instance.algorithms:
        best = evals[alg.id].attack_plan.utility
        for m in alg.attacks:
            if m.cost <= instance.attacker.budget:
                single = make_plan((m,), instance.attacker)
                assert single.utility <= best + 1e-9


def test_solve_stackelberg_bundled(instance):
    result = solve_stackelberg(instance)
    report = result.report
    assert report.support_size <= len(report.binding_labels)
    assert sum(report.strategy.probs) == pytest.approx(1.0)
    assert all(p >= -1e-9 for p in report.strategy.probs)
    assert set(report.usage) == {"op", "cpu", "mem", "latency", "resilience"}
    b = instance.budgets
    assert report.usage["op"] <= b.c_op_max + 1e-6
    assert report.usage["cpu"] <= b.c_cpu_max + 1e-3
    assert report.usage["mem"] <= b.c_mem_max + 1e-6
    assert report.usage["latency"] <= b.t_max + 1e-6
    assert report.usage["resilience"] >= b.r_min - 1e-6


def test_objective_is_strategy_weighted_utility(instance):
    result = solve_stackelberg(instance)
    utilities = [e.utility for e in result.evaluations]
    dot = float(np.dot(result.report.strategy.probs, utilities))
    assert result.report.objective == pytest.approx(dot)


def test_make_report_fields(instance):
    evals = evaluate_all(instance)
    probs = tuple(1.0 / len(instance.algorithms) for _ in instance.algorithms)
    report = make_report(instance, probs, evals, binding_labels=("simplex",))
    assert report.binding_labels == ("simplex",)
    assert report.support_size == len(instance.algorithms)
    breaches = [e.p_succ_star for e in evals]
    assert report.expected_breach == pytest.approx(float(np.mean(breaches)))


def test_infeasible_resilience_floor(instance):
    tight = replace(instance, budgets=replace(instance.budgets, r_min=0.9))
    with pytest.raises(InfeasibleDefender):
        solve_stackelberg(tight)


def test_random_instances_solve_cleanly():
    rng = np.random.default_rng(31)
    for _ in range(10):
        inst = random_feasible_instance(rng)
        result = solve_stackelberg(inst)
        assert sum(result.report.strategy.probs) == pytest.approx(1.0)
        assert result.report.support_size >= 1


def test_defender_lp_reuses_polytope(instance):
    from cryptomix import build_defender_lp

    evals = evaluate_all(instance)
    lp = build_defender_lp(instance, tuple(e.utility for e in evals))
    assert lp.sense == "max"
    assert [c.label for c in lp.constraints] == [
        c.label for c in defender_polytope(instance)
    ]
    assert solve_lp(lp) == solve_stackelberg(instance).solution


def test_equilibrium_repr_is_independent_of_hash_seed():
    # string hashing is randomised per process, so no part of the result
    # may follow a set's iteration order
    code = (
        "from cryptomix import load_bundled_scenario, solve_stackelberg; "
        "print(repr(solve_stackelberg(load_bundled_scenario()[0])))"
    )
    assert run_python(code, hash_seed="1") == run_python(code, hash_seed="2")

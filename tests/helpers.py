"""Shared random-instance generators for property tests, the scalar
attacker kernels that the array kernels in cryptomix.attacker are checked
against, and a runner for code that needs a fresh interpreter."""

import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

import cryptomix
from cryptomix import (
    AttackMethod,
    AttackerParams,
    DefenderBudgets,
    DefenderWeights,
    EncryptionAlgorithm,
    GameInstance,
    SolverConfig,
    make_plan,
    plan_key,
)
from cryptomix.attacker import ACCEPT_PROB, _cells, _sorted_methods


def run_python(code: str, hash_seed: str = "0") -> str:
    """Run code in a fresh interpreter that imports this checkout's
    cryptomix, with string hashing fixed by hash_seed; return its stdout."""
    src = str(Path(cryptomix.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def random_methods(rng, n, max_cost=100, integer_costs=True):
    methods = []
    for i in range(n):
        if integer_costs:
            cost = float(rng.integers(0, max_cost + 1))
        else:
            cost = float(rng.uniform(0.0, max_cost))
        methods.append(AttackMethod(f"m{i:02d}", float(rng.uniform(0.05, 0.95)), cost))
    return tuple(methods)


def wide_methods(rng, n):
    """n methods shaped like the benchmark's wide subgames: success
    U(0.05, 0.6) and cost U(0.5, 20) with one decimal, on the DP's grid."""
    return tuple(
        AttackMethod(
            f"m{i:03d}", float(rng.uniform(0.05, 0.6)), round(float(rng.uniform(0.5, 20.0)), 1)
        )
        for i in range(n)
    )


def identical_methods(n):
    """n methods of success 0.3 and cost 1.0: no forced-in bound tells one
    from another, so the attacker reduction keeps all or none of them."""
    return tuple(AttackMethod(f"m{i:03d}", 0.3, 1.0) for i in range(n))


def bare_algorithm(methods, alg_id="target"):
    """Algorithm wrapper when only the attack subgame matters."""
    return EncryptionAlgorithm(
        id=alg_id,
        op_cost=0.0,
        cpu_cost=0.0,
        mem_cost=0.0,
        latency=0.0,
        resilience=0.0,
        protected_value=1.0,
        family=0,
        attacks=methods,
    )


def random_feasible_instance(rng):
    """Random defender instance whose polytope is nonempty by construction:
    resource caps sit at the per-column max, the resilience floor at the
    min, and family caps sum to at least 1."""
    n = int(rng.integers(2, 9))
    families = [int(f) for f in rng.integers(0, 3, n)]
    algs = []
    for i in range(n):
        algs.append(
            EncryptionAlgorithm(
                id=f"alg{i}",
                op_cost=float(rng.uniform(0.1, 5.0)),
                cpu_cost=float(rng.uniform(1e3, 1e6)),
                mem_cost=float(rng.uniform(10, 5000)),
                latency=float(rng.uniform(1, 1000)),
                resilience=float(rng.uniform(0.0, 1.0)),
                protected_value=float(rng.uniform(50, 200)),
                family=families[i],
                attacks=random_methods(rng, int(rng.integers(0, 5)), max_cost=30),
            )
        )
    present = sorted(set(families))
    if len(present) == 1:
        caps = {present[0]: 1.0}
    else:
        caps = {fam: float(rng.uniform(0.5, 1.0)) for fam in present}
    budgets = DefenderBudgets(
        c_op_max=max(a.op_cost for a in algs),
        c_cpu_max=max(a.cpu_cost for a in algs),
        c_mem_max=max(a.mem_cost for a in algs),
        t_max=max(a.latency for a in algs),
        r_min=min(a.resilience for a in algs),
        family_caps=caps,
    )
    weights = DefenderWeights(g_op=0.02, g_cpu=2e-5, g_mem=0.002, g_tau=0.001, g_r=0.06)
    attacker = AttackerParams(
        value=float(rng.uniform(50, 500)), budget=float(rng.integers(0, 61))
    )
    return GameInstance(
        algorithms=tuple(algs), weights=weights, budgets=budgets, attacker=attacker
    )


def reference_sample_greedy(
    algorithm: EncryptionAlgorithm,
    params: AttackerParams,
    config: SolverConfig = SolverConfig(),
    coins: Optional[Iterable[float]] = None,
):
    """solve_sample_greedy as one Python density per live method per step,
    the oracle for the array version: every plan must be equal by repr."""
    methods = _sorted_methods(algorithm)
    if coins is None:
        rng = np.random.default_rng(config.rng_seed)

        def draw() -> float:
            return float(rng.random())

    else:
        stream: Iterator[float] = iter(coins)

        def draw() -> float:
            return float(next(stream))

    budget = params.budget
    singles = [make_plan([m], params) for m in methods if m.cost <= budget]
    best_single = min(singles, key=plan_key) if singles else None

    chosen: list[AttackMethod] = []
    remaining = list(methods)
    residual = budget
    while True:
        feasible = [m for m in remaining if m.cost <= residual]
        if not feasible:
            break
        fail_s = 1.0
        for m in sorted(chosen, key=lambda m: m.id):
            fail_s *= 1.0 - m.success
        def density(m: AttackMethod) -> float:
            if m.cost == 0:
                return math.inf  # zero-cost methods are free improvements
            return (params.value * fail_s * m.success - m.cost) / m.cost
        best = min(feasible, key=lambda m: (-density(m), m.cost, m.id))
        if draw() < ACCEPT_PROB:
            chosen.append(best)
            residual -= best.cost
        remaining.remove(best)

    candidates = [make_plan((), params)]
    if best_single is not None:
        candidates.append(best_single)
    if chosen:
        candidates.append(make_plan(chosen, params))
    return min(candidates, key=plan_key)


def reference_dp_table(
    algorithm: EncryptionAlgorithm, budget: float, config: SolverConfig = SolverConfig()
) -> tuple[np.ndarray, np.ndarray]:
    """(take, minfail) of build_dp_table, filled with a fresh candidate
    array, one comparison and np.where per layer: the oracle for the
    in-place layer loop. A cell takes method j only on a strictly smaller
    product, so an exact tie keeps the set without j, the colex rule of
    plan_key; nothing here is shared with the code it checks but the
    cost cells and the id sort."""
    methods = tuple(_sorted_methods(algorithm))
    n = len(methods)
    scale = config.cost_scale
    size = _cells(budget, scale, up=False) + 1
    weights = tuple(_cells(m.cost, scale, up=True) for m in methods)

    minfail = np.full(size, np.inf)
    minfail[0] = 1.0
    take = np.zeros((max(n, 1), size), dtype=bool)
    for j, (m, w) in enumerate(zip(methods, weights)):
        if w >= size:
            continue
        keep = 1.0 - m.success
        cand = np.full(size, np.inf)
        with np.errstate(invalid="ignore"):  # inf * 0 when success is 1
            cand[w:] = minfail[: size - w] * keep
        take[j] = cand < minfail
        minfail = np.where(take[j], cand, minfail)
    return take, minfail

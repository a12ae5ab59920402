"""Attacker subgame solvers: exact DP, sampled greedy, hybrid dispatch,
a brute-force oracle, and a DP runtime calibration.

All solvers maximize value * P_succ(S) - phi(sum of costs) over method
subsets S within the budget, and break ties identically: higher utility,
then lower total cost, then lexicographically smallest id set.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import BudgetNegative, TableTooLarge, TooManyMethods
from .model import (
    AttackMethod,
    AttackPlan,
    AttackerParams,
    EncryptionAlgorithm,
    make_plan,
    phi,
    plan_key,
    success_probability,
)


@dataclass(frozen=True)
class DpConfig:
    """Cost discretization and table-size guard for the exact DP."""

    cost_scale: int = 10
    max_table_cells: int = 100_000


@dataclass(frozen=True)
class GreedyConfig:
    """Acceptance probability and RNG seed for the sampled greedy."""

    accept_prob: float = 0.414
    rng_seed: int = 0


@dataclass(frozen=True)
class CalibrationConfig:
    """Synthetic-instance sweep used to locate the DP runtime threshold."""

    time_limit: float = 0.2
    max_methods: int = 500
    budget: float = 500.0
    value: float = 1000.0
    success_range: tuple[float, float] = (0.05, 0.85)
    cost_range: tuple[float, float] = (40.0, 200.0)
    rng_seed: int = 0


@dataclass(frozen=True)
class CalibrationResult:
    threshold: int
    series: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class HybridResult:
    plan: AttackPlan
    solver: str  # "dp" or "greedy"


def _sorted_methods(algorithm: EncryptionAlgorithm) -> list[AttackMethod]:
    return sorted(algorithm.attacks, key=lambda m: m.id)


def solve_brute_force(
    algorithm: EncryptionAlgorithm, params: AttackerParams
) -> AttackPlan:
    """Exhaustive subset enumeration; the test oracle for the DP."""
    methods = _sorted_methods(algorithm)
    if len(methods) > 25:
        raise TooManyMethods(f"{len(methods)} methods exceeds the 2^25 guard")
    if params.budget < 0:
        raise BudgetNegative(f"budget {params.budget} is negative")
    best = make_plan((), params)
    best_key = plan_key(best)
    for mask in range(1, 1 << len(methods)):
        subset = [m for j, m in enumerate(methods) if mask >> j & 1]
        plan = make_plan(subset, params)
        if plan.total_cost > params.budget:
            continue
        key = plan_key(plan)
        if key < best_key:
            best, best_key = plan, key
    return best


def _chain_indices(take: np.ndarray, weights: Sequence[int], layer: int, cell: int) -> list[int]:
    """Follow parent pointers down from (layer, cell) and return the taken
    method indices in ascending order."""
    chosen: list[int] = []
    for i in range(layer, -1, -1):
        if take[i, cell]:
            chosen.append(i)
            cell -= weights[i]
    chosen.reverse()
    return chosen


def _bit(i: int) -> np.uint64:
    return np.uint64(1 << (i % 64))


def _cell_sets(take: np.ndarray, weights: Sequence[int], layer: int, words: int) -> np.ndarray:
    """The chain set of every cell at `layer` as bit masks, in one vectorised
    backward pass over `take`: bit i % 64 of word i // 64 stands for method i
    in id order, so masks[:, c] holds what _chain_indices(take, weights,
    layer, c) returns."""
    masks = np.zeros((words, take.shape[1]), dtype=np.uint64)
    cell = np.arange(take.shape[1])
    for i in range(layer, -1, -1):
        hit = take[i, cell]
        masks[i // 64, hit] |= _bit(i)
        cell = cell - weights[i] * hit
    return masks


def _carry_sets(masks: np.ndarray, take_row: np.ndarray, j: int, w: int) -> np.ndarray:
    """The cell sets at layer j from those at layer j - 1 and take[j]."""
    with_j = np.zeros_like(masks)
    with_j[:, w:] = masks[:, : masks.shape[1] - w]
    with_j[j // 64] |= _bit(j)
    return np.where(take_row, with_j, masks)


def _with_j_first(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For each column, whether set a plus method j has a smaller id tuple
    than set b, where both sets hold only methods below j.

    Let d be the lowest method in exactly one of the sets; below d the two
    tuples agree. If d is in a, a + {j} comes first iff b goes on past d,
    for otherwise b is a prefix of it. If d is in b, or the sets are equal,
    b comes first. With unique ids, index order is id order.
    """
    first = np.zeros(a.shape[1], dtype=bool)
    b_above = np.zeros(a.shape[1], dtype=bool)  # b has a method in a higher word
    # from the top word down, so the word holding d decides last
    for a_k, b_k in zip(a[::-1], b[::-1]):
        diff = a_k ^ b_k
        low = diff & -diff  # bit d if d lies in this word
        # with d outside b, b's word holds a bit above d iff it exceeds bit d
        decided = ((a_k & low) != 0) & (b_above | (b_k > low))
        first = np.where(diff != 0, decided, first)
        b_above |= b_k != 0
    return first


def dp_table_fits(n_methods: int, budget: float, config: DpConfig = DpConfig()) -> bool:
    """The table-size rule shared by every caller of the DP, and the only
    rule that sends an attacker subgame to the DP or the greedy: n methods
    x (budget cells + 1) within config.max_table_cells."""
    return n_methods * (int(round(budget * config.cost_scale)) + 1) <= config.max_table_cells


@dataclass(frozen=True, eq=False)
class DpTable:
    """The exact DP solved once up to a budget.

    minfail[c] is the smallest failure product among subsets whose scaled
    costs sum to exactly c, and take[j, c] says whether the set chosen at
    (method j, cell c) contains method j. Neither depends on any cell above
    c, so one table answers every budget up to the one it was built at,
    bitwise as a table built at that budget would.
    """

    methods: tuple[AttackMethod, ...]
    weights: tuple[int, ...]
    cost_scale: int
    minfail: np.ndarray
    take: np.ndarray


def build_dp_table(
    algorithm: EncryptionAlgorithm, budget: float, config: Optional[DpConfig] = None
) -> DpTable:
    """Fill the DP table for every cost cell up to `budget`.

    Failure products accumulate over methods in ascending id order, matching
    make_plan bit for bit. An exact tie in the failure product keeps the
    lexicographically smaller id set. Ties are decided a layer at a time on
    per-cell set fingerprints, which are built at the first tie and carried
    forward after it, so tie-free tables never build them.
    """
    config = config or DpConfig()
    if budget < 0:
        raise BudgetNegative(f"budget {budget} is negative")
    methods = tuple(_sorted_methods(algorithm))
    n = len(methods)
    scale = config.cost_scale
    size = int(round(budget * scale)) + 1
    if not dp_table_fits(n, budget, config):
        raise TableTooLarge(
            f"{n} methods x {size} cost levels exceeds "
            f"{config.max_table_cells} table cells"
        )
    weights = tuple(int(round(m.cost * scale)) for m in methods)

    minfail = np.full(size, np.inf)
    minfail[0] = 1.0
    take = np.zeros((max(n, 1), size), dtype=bool)
    masks: Optional[np.ndarray] = None
    for j, (m, w) in enumerate(zip(methods, weights)):
        if w >= size:
            continue
        keep = 1.0 - m.success
        cand = np.full(size, np.inf)
        cand[w:] = minfail[: size - w] * keep
        take[j] = cand < minfail
        ties = np.flatnonzero((cand == minfail) & np.isfinite(minfail))
        if ties.size:
            if masks is None:
                masks = _cell_sets(take, weights, j - 1, (n + 63) // 64)
            live = j // 64 + 1  # the sets hold methods below j only
            take[j, ties] = _with_j_first(masks[:live, ties - w], masks[:live, ties])
        if masks is not None:
            masks = _carry_sets(masks, take[j], j, w)
        minfail = np.where(take[j], cand, minfail)
    return DpTable(methods, weights, scale, minfail, take)


def dp_plans(
    table: DpTable, params: AttackerParams, budgets: Sequence[float]
) -> list[AttackPlan]:
    """Best plan at each budget, none above the table's, for the value and
    cost function in params (params.budget is not read).

    The utility value * (1 - minfail[c]) - phi(c / scale) is computed once
    for every cell; a budget's answer is the first cell of highest utility
    among the cells it covers, then the chain walk from that cell.
    """
    scale = table.cost_scale
    size = table.minfail.size
    penalty = np.array([phi(params.cost_fn, c / scale) for c in range(size)])
    # unreachable cells (minfail = inf) come out at -inf
    utility = params.value * (1.0 - table.minfail) - penalty
    n = len(table.methods)
    plans = []
    for budget in budgets:
        if budget < 0:
            raise BudgetNegative(f"budget {budget} is negative")
        cells = int(round(budget * scale)) + 1
        if cells > size:
            raise ValueError(f"budget {budget} needs {cells} cost cells, the table has {size}")
        # cell 0 is not necessarily the empty set: zero-cost methods land there
        best = int(np.argmax(utility[:cells]))
        chosen = _chain_indices(table.take, table.weights, n - 1, best) if n else []
        plans.append(make_plan([table.methods[i] for i in chosen], params))
    return plans


def solve_dp(
    algorithm: EncryptionAlgorithm,
    params: AttackerParams,
    config: Optional[DpConfig] = None,
) -> AttackPlan:
    """Exact optimum under scaled-integer costs: the best value *
    (1 - minfail[c]) - phi(c / scale) over all reachable cells c within the
    budget, from a table built at that budget."""
    return dp_plans(build_dp_table(algorithm, params.budget, config), params, (params.budget,))[0]


def solve_sample_greedy(
    algorithm: EncryptionAlgorithm,
    params: AttackerParams,
    config: Optional[GreedyConfig] = None,
    coins: Optional[Iterable[float]] = None,
) -> AttackPlan:
    """Randomized density greedy with a per-iteration acceptance coin.

    Phase 1 records the best feasible singleton. Phase 2 repeatedly takes
    the remaining feasible method with the highest marginal density
    (value * marginal success gain - cost) / cost, flips a coin, and either
    adds it or discards it permanently. The better of the greedy set and
    the singleton is returned; the empty plan wins ties.

    `coins` optionally replaces the seeded RNG with an explicit sequence of
    uniforms for deterministic replay.
    """
    config = config or GreedyConfig()
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
        if draw() < config.accept_prob:
            chosen.append(best)
            residual -= best.cost
        remaining.remove(best)

    candidates = [make_plan((), params)]
    if best_single is not None:
        candidates.append(best_single)
    if chosen:
        candidates.append(make_plan(chosen, params))
    return min(candidates, key=plan_key)


def solve_hybrid(
    algorithm: EncryptionAlgorithm,
    params: AttackerParams,
    dp_config: Optional[DpConfig] = None,
    greedy_config: Optional[GreedyConfig] = None,
) -> HybridResult:
    """Dispatch to the exact DP when its table fits (dp_table_fits),
    otherwise fall back to the sampled greedy."""
    dp_config = dp_config or DpConfig()
    if dp_table_fits(len(algorithm.attacks), params.budget, dp_config):
        return HybridResult(solve_dp(algorithm, params, dp_config), "dp")
    return HybridResult(solve_sample_greedy(algorithm, params, greedy_config), "greedy")


def unconstrained_success(algorithm: EncryptionAlgorithm) -> float:
    """Breach probability when every method is executed (no budget)."""
    return success_probability(algorithm.attacks)


def calibrate_threshold(config: Optional[CalibrationConfig] = None) -> CalibrationResult:
    """Time the DP on growing synthetic instances and return the first
    method count whose solve exceeds the time limit.

    The sweep is linear in n and stops at the first crossing; if no solve
    crosses the limit the threshold is max_methods. The instance sequence
    is fully determined by rng_seed.
    """
    config = config or CalibrationConfig()
    rng = np.random.default_rng(config.rng_seed)
    params = AttackerParams(value=config.value, budget=config.budget)
    # the sweep intentionally exceeds the dispatch bound, so lift the guard
    dp_config = DpConfig(cost_scale=10, max_table_cells=2**62)
    series: list[tuple[int, float]] = []
    for n in range(1, config.max_methods + 1):
        succ = rng.uniform(*config.success_range, n)
        cost = rng.uniform(*config.cost_range, n)
        attacks = tuple(
            AttackMethod(id=f"m{i:04d}", success=float(succ[i]), cost=float(cost[i]))
            for i in range(n)
        )
        instance = EncryptionAlgorithm(
            id=f"synthetic-{n}",
            op_cost=0.0,
            cpu_cost=0.0,
            mem_cost=0.0,
            latency=0.0,
            resilience=0.0,
            protected_value=1.0,
            family=0,
            attacks=attacks,
        )
        started = time.perf_counter()
        solve_dp(instance, params, dp_config)
        elapsed = time.perf_counter() - started
        series.append((n, elapsed))
        if elapsed > config.time_limit:
            return CalibrationResult(threshold=n, series=tuple(series))
    return CalibrationResult(threshold=config.max_methods, series=tuple(series))

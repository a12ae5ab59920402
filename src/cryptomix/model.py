"""Domain types and the payoff formulas shared by every solver.

All types are immutable value data; all operations are pure functions.
Probabilities and costs are 64-bit floats and comparisons elsewhere use
explicit tolerances. Success/failure products are always accumulated over
methods sorted by id, so that independently computed utilities are
bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

# a probability at or below this is outside a strategy's support
SUPPORT_EPS = 1e-7


@dataclass(frozen=True)
class AttackMethod:
    """One cryptanalysis technique: success probability and resource cost."""

    id: str
    success: float
    cost: float


@dataclass(frozen=True)
class EncryptionAlgorithm:
    """A defender option: cost vector, resilience, value, family, attacks."""

    id: str
    op_cost: float
    cpu_cost: float
    mem_cost: float
    latency: float
    resilience: float
    protected_value: float
    family: int
    attacks: tuple[AttackMethod, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "attacks", tuple(self.attacks))


@dataclass(frozen=True)
class CostFunctionSpec:
    """Attack cost penalty phi(x) = linear_coeff * x + quadratic_coeff * x**2."""

    linear_coeff: float = 1.0
    quadratic_coeff: float = 0.0


@dataclass(frozen=True)
class AttackerParams:
    """Value of a successful breach, total budget, and cost penalty."""

    value: float
    budget: float
    cost_fn: CostFunctionSpec = CostFunctionSpec()


@dataclass(frozen=True)
class DefenderWeights:
    """Utility weights converting resource costs and resilience into gain."""

    g_op: float
    g_cpu: float
    g_mem: float
    g_tau: float
    g_r: float


@dataclass(frozen=True)
class DefenderBudgets:
    """Global resource caps, resilience floor, and per-family mass caps."""

    c_op_max: float
    c_cpu_max: float
    c_mem_max: float
    t_max: float
    r_min: float
    family_caps: Mapping[int, float]

    def cap(self, family: int) -> float:
        # families without a declared cap are uncapped
        return float(self.family_caps.get(family, 1.0))


@dataclass(frozen=True)
class GameInstance:
    """Full scenario: algorithms, defender weights/budgets, attacker params."""

    algorithms: tuple[EncryptionAlgorithm, ...]
    weights: DefenderWeights
    budgets: DefenderBudgets
    attacker: AttackerParams

    def __post_init__(self) -> None:
        object.__setattr__(self, "algorithms", tuple(self.algorithms))

    def algorithm(self, algorithm_id: str) -> EncryptionAlgorithm:
        for alg in self.algorithms:
            if alg.id == algorithm_id:
                return alg
        raise KeyError(algorithm_id)


@dataclass(frozen=True)
class ScenarioSet:
    """Strictly increasing candidate attacker budgets."""

    budgets: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "budgets", tuple(float(k) for k in self.budgets))
        if not self.budgets:
            raise ValueError("scenario set is empty")
        # written as "not all(...)" so that a NaN budget fails them
        if not all(k >= 0 for k in self.budgets):
            raise ValueError("scenario budgets must be nonnegative")
        if not all(a < b for a, b in zip(self.budgets, self.budgets[1:])):
            raise ValueError("scenario budgets must be strictly increasing")

    def __len__(self) -> int:
        return len(self.budgets)


@dataclass(frozen=True)
class MixedStrategy:
    """Probability vector aligned with GameInstance.algorithms."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.probs) if p > SUPPORT_EPS)


@dataclass(frozen=True)
class AttackPlan:
    """Attacker best-response subset with its metrics."""

    methods: tuple[str, ...]
    success_prob: float
    total_cost: float
    utility: float


def failure_product(methods: Iterable[AttackMethod]) -> float:
    """Probability that every independent method fails, accumulated over
    methods sorted by id; 1 for the empty set."""
    failure = 1.0
    for m in sorted(methods, key=lambda m: m.id):
        failure *= 1.0 - m.success
    return failure


def success_probability(methods: Iterable[AttackMethod]) -> float:
    """Probability that at least one independent method succeeds; 0 for
    the empty set."""
    return 1.0 - failure_product(methods)


def phi(spec: CostFunctionSpec, total_cost: float) -> float:
    """Convex nondecreasing attack cost penalty; phi(0) = 0."""
    return spec.linear_coeff * total_cost + spec.quadratic_coeff * total_cost**2


def make_plan(methods: Iterable[AttackMethod], params: AttackerParams) -> AttackPlan:
    """Build an AttackPlan with fields recomputed in the canonical id order.

    Every solver returns plans through this constructor so that plans for
    the same method set are bitwise identical regardless of which solver
    produced them.
    """
    ms = sorted(methods, key=lambda m: m.id)
    total = 0.0
    for m in ms:
        total += m.cost
    p_succ = success_probability(ms)
    return AttackPlan(
        methods=tuple(m.id for m in ms),
        success_prob=p_succ,
        total_cost=total,
        utility=params.value * p_succ - phi(params.cost_fn, total),
    )


def plan_key(plan: AttackPlan) -> tuple[float, float, tuple[str, ...]]:
    """Total order used to break ties everywhere: higher utility first,
    then lower total cost, then the colexicographically smallest id set,
    its ids compared from the largest down. Adding one id above all of a
    set's ids keeps that order, and a set without an id comes before
    every set that has it and no larger id, so the DP decides the rule
    by keeping, on an exact tie, the set without the new method."""
    return (-plan.utility, plan.total_cost, plan.methods[::-1])


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def validate_instance(instance: GameInstance) -> ValidationReport:
    """Report-style validation of one scenario; never raises."""
    problems: list[str] = []
    if not instance.algorithms:
        problems.append("scenario has no algorithms")
    seen_ids: set[str] = set()
    for alg in instance.algorithms:
        if alg.id in seen_ids:
            problems.append(f"duplicate algorithm id {alg.id!r}")
        seen_ids.add(alg.id)
        for name, value in (
            ("op_cost", alg.op_cost),
            ("cpu_cost", alg.cpu_cost),
            ("mem_cost", alg.mem_cost),
            ("latency", alg.latency),
        ):
            if value < 0:
                problems.append(f"{alg.id}: {name} must be >= 0, got {value}")
        if not 0.0 <= alg.resilience <= 1.0:
            problems.append(f"{alg.id}: resilience out of [0,1]: {alg.resilience}")
        if alg.protected_value <= 0:
            problems.append(f"{alg.id}: protected_value must be > 0")
        seen_attacks: set[str] = set()
        for atk in alg.attacks:
            if atk.id in seen_attacks:
                problems.append(f"{alg.id}: duplicate attack id {atk.id!r}")
            seen_attacks.add(atk.id)
            if not 0.0 < atk.success < 1.0:
                problems.append(
                    f"{alg.id}/{atk.id}: success out of (0,1): {atk.success}"
                )
            if atk.cost < 0:
                problems.append(f"{alg.id}/{atk.id}: cost must be >= 0")
    for fam, cap in instance.budgets.family_caps.items():
        if not 0.0 < cap <= 1.0:
            problems.append(f"family {fam}: cap out of (0,1]: {cap}")
    b = instance.budgets
    for name, value in (
        ("c_op_max", b.c_op_max),
        ("c_cpu_max", b.c_cpu_max),
        ("c_mem_max", b.c_mem_max),
        ("t_max", b.t_max),
    ):
        if value <= 0:
            problems.append(f"{name} must be > 0, got {value}")
    if not 0.0 <= b.r_min <= 1.0:
        problems.append(f"r_min out of [0,1]: {b.r_min}")
    w = instance.weights
    for name, value in (
        ("g_op", w.g_op),
        ("g_cpu", w.g_cpu),
        ("g_mem", w.g_mem),
        ("g_tau", w.g_tau),
        ("g_r", w.g_r),
    ):
        if value < 0:
            problems.append(f"{name} must be >= 0, got {value}")
    a = instance.attacker
    if a.value <= 0:
        problems.append(f"attacker value must be > 0, got {a.value}")
    if a.budget < 0:
        problems.append(f"attacker budget must be >= 0, got {a.budget}")
    if a.cost_fn.linear_coeff < 0 or a.cost_fn.quadratic_coeff < 0:
        problems.append("cost function coefficients must be >= 0")
    return ValidationReport(ok=not problems, violations=tuple(problems))

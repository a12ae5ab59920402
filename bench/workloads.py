"""The benchmark's workloads: how each makes its inputs from the seed, what
one operation is, and how each operation's output is checked.

cryptomix is imported inside the functions, not at module level, so that
importing this module costs nothing and the import is timed as part of
the workload's set-up.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import expected as ex
import reference

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

DUAL_CERT_TOL = 1e-7
# Costs such as 0.1 have no exact binary form, so a plan whose decimal
# costs add up to exactly the budget can sum to the budget plus an ulp.
# The budget check allows that summation error, and nothing near the
# 1/cost_scale grid step that a DP rounding fault would add.
COST_SUM_REL_TOL = 1e-9
OBJECTIVE_TOL = 1e-9  # heuristic rows may tie the optimum, never beat it
VERTEX_SAMPLES = 50

WIDE_METHOD_COUNTS = (25, 50, 100, 150, 200, 240, 300, 400)
WIDE_BUDGETS = (10.0, 20.0, 25.0, 30.0, 40.0)
TIES_METHOD_COUNTS = (20, 40, 60, 80)
TIES_SUCCESS = 0.3
TIES_COST = 1.0
TIES_BUDGET = 80.0
ATTACKER_VALUE = 300.0

CLI_COMMANDS = {
    "validate": ("validate",),
    "solve-attacker": ("solve-attacker", "--algorithm", "aes256-gcm", "--solver", "dp"),
    "solve-defender": ("solve-defender",),
    "solve-robust": ("solve-robust", "--mode", "regret"),
}


def child_env() -> dict:
    """Environment for every process the benchmark starts: the package
    from this checkout and single-threaded BLAS."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    return env


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class Inputs:
    """Everything one operation needs, plus what the run record keeps
    about it."""

    record: dict
    data: dict = field(default_factory=dict)


# ---------------------------------------------------------------- checks


def check_plan(cm, algorithm, params, plan, label: str) -> list[str]:
    """The plan keeps to the budget at true cost and equals make_plan
    recomputed from its method ids."""
    problems = []
    if not plan.total_cost <= params.budget + COST_SUM_REL_TOL * max(1.0, params.budget):
        problems.append(
            f"{label}: plan cost {plan.total_cost!r} exceeds budget {params.budget!r}"
        )
    by_id = {m.id: m for m in algorithm.attacks}
    unknown = [i for i in plan.methods if i not in by_id]
    if unknown:
        problems.append(f"{label}: unknown methods {unknown}")
    elif cm.make_plan([by_id[i] for i in plan.methods], params) != plan:
        problems.append(f"{label}: plan differs from make_plan of its methods")
    return problems


def check_strategy(cm, instance, probs, label: str) -> list[str]:
    """The strategy sums to 1 and lies in the defender polytope, within
    FEAS_EPS scaled by 1 + |rhs| as the LP layer scales its tolerances."""
    from cryptomix.lp import FEAS_EPS

    problems = []
    probs = tuple(probs)
    if len(probs) != len(instance.algorithms):
        return [f"{label}: {len(probs)} probabilities for {len(instance.algorithms)} algorithms"]
    if abs(sum(probs) - 1.0) > FEAS_EPS:
        problems.append(f"{label}: probabilities sum to {sum(probs)!r}")
    if min(probs) < -FEAS_EPS:
        problems.append(f"{label}: negative probability {min(probs)!r}")
    for con in cm.defender_polytope(instance):
        activity = sum(c * p for c, p in zip(con.coeffs, probs))
        tol = FEAS_EPS * (1.0 + abs(con.rhs))
        if (con.relation == "<=" and activity > con.rhs + tol) or (
            con.relation == ">=" and activity < con.rhs - tol
        ) or (con.relation == "=" and abs(activity - con.rhs) > tol):
            problems.append(f"{label}: violates {con.label} ({activity!r} vs {con.rhs!r})")
    return problems


def _close(got, want, tol=ex.ABS_TOL) -> bool:
    return abs(got - want) <= tol


def _close_all(got, want, tol=ex.ABS_TOL) -> bool:
    got, want = tuple(got), tuple(want)
    return len(got) == len(want) and all(_close(g, w, tol) for g, w in zip(got, want))


def check_evaluations(cm, instance, evaluations, params, label: str) -> list[str]:
    problems = []
    for alg, ev in zip(instance.algorithms, evaluations):
        if ev.algorithm_id != alg.id:
            problems.append(f"{label}: evaluation for {ev.algorithm_id} in place of {alg.id}")
            continue
        problems += check_plan(cm, alg, params, ev.attack_plan, f"{label}/{alg.id}")
    if len(evaluations) != len(instance.algorithms):
        problems.append(f"{label}: {len(evaluations)} evaluations")
    return problems


def check_table(cm, instance, table) -> list[str]:
    problems = []
    for k, evals, strat in zip(table.budgets, table.evaluations, table.optimal_strategies):
        label = f"k={k:g}"
        params = replace(instance.attacker, budget=k)
        problems += check_evaluations(cm, instance, evals, params, label)
        problems += check_strategy(cm, instance, strat, f"Opt({label})")
    return problems


def _vertex_or_unique(cm, program, solution, got, want, label: str) -> list[str]:
    """A strategy that differs from the pinned one is accepted only if the
    LP optimum is not unique, as the acceptance tests do."""
    if _close_all(got, want):
        return []
    if cm.alternate_optimum_gap(program, solution) > ex.UNIQUENESS_EPS:
        return []
    return [f"{label}: strategy {tuple(got)} differs from the pinned {want}"]


# ------------------------------------------------------------- generators


def _random_defender_fields(rng: random.Random) -> dict:
    return {
        "op_cost": rng.uniform(0.1, 5.0),
        "cpu_cost": rng.uniform(1e3, 1e6),
        "mem_cost": rng.uniform(10.0, 5000.0),
        "latency": rng.uniform(1.0, 1000.0),
        "resilience": rng.uniform(0.0, 1.0),
        "protected_value": rng.uniform(50.0, 200.0),
        "family": rng.randrange(3),
    }


def _scenario_payload(rng: random.Random, algorithms: list, budget: float, scenario_budgets) -> dict:
    """Schema-shaped scenario whose defender polytope is nonempty by
    construction: resource caps at the per-column maximum, the resilience
    floor at the minimum, and family caps that sum to at least 1."""
    families = sorted({a["family"] for a in algorithms})
    if len(families) == 1:
        caps = {str(families[0]): 1.0}
    else:
        caps = {str(f): rng.uniform(0.5, 1.0) for f in families}
    return {
        "schema_version": "1",
        "algorithms": algorithms,
        "weights": {"g_op": 0.02, "g_cpu": 2e-05, "g_mem": 0.002, "g_tau": 0.001, "g_r": 0.06},
        "budgets": {
            "c_op_max": max(a["op_cost"] for a in algorithms),
            "c_cpu_max": max(a["cpu_cost"] for a in algorithms),
            "c_mem_max": max(a["mem_cost"] for a in algorithms),
            "t_max": max(a["latency"] for a in algorithms),
            "r_min": min(a["resilience"] for a in algorithms),
            "family_caps": caps,
        },
        "attacker": {
            "value": ATTACKER_VALUE,
            "budget": budget,
            "cost_fn": {"linear_coeff": 1.0, "quadratic_coeff": 0.0},
        },
        "scenario_budgets": list(scenario_budgets),
    }


def wide_payload(seed: int) -> dict:
    """Eight algorithms whose method counts straddle the DP/greedy dispatch
    boundary. Costs have one decimal, so each lies on the DP's 1/10 grid."""
    rng = random.Random(f"subgame-wide:{seed}")
    algorithms = []
    for i, n in enumerate(WIDE_METHOD_COUNTS):
        attacks = [
            {
                "id": f"m{j:03d}",
                "success": rng.uniform(0.05, 0.6),
                "cost": round(rng.uniform(0.5, 20.0), 1),
            }
            for j in range(n)
        ]
        algorithms.append({"id": f"wide-{i}-n{n}", **_random_defender_fields(rng), "attacks": attacks})
    return _scenario_payload(rng, algorithms, max(WIDE_BUDGETS), WIDE_BUDGETS)


def ties_payload(seed: int) -> dict:
    """Four algorithms of identical methods, so every DP cell ties. The
    seed draws the method ids and the defender data."""
    rng = random.Random(f"subgame-ties:{seed}")
    algorithms = []
    for i, n in enumerate(TIES_METHOD_COUNTS):
        ids: set[str] = set()
        while len(ids) < n:
            ids.add(f"t{rng.getrandbits(32):08x}")
        attacks = [{"id": m, "success": TIES_SUCCESS, "cost": TIES_COST} for m in sorted(ids)]
        rng.shuffle(attacks)
        algorithms.append({"id": f"ties-{i}-n{n}", **_random_defender_fields(rng), "attacks": attacks})
    return _scenario_payload(rng, algorithms, TIES_BUDGET, (TIES_BUDGET,))


def ties_closed_form(n: int) -> int:
    """Number of identical methods the attacker takes: the count c <= n
    that maximizes value * (1 - (1 - success)^c) - c * cost."""
    def utility(c: int) -> float:
        return ATTACKER_VALUE * (1.0 - (1.0 - TIES_SUCCESS) ** c) - c * TIES_COST

    return max(range(n + 1), key=lambda c: (utility(c), -c))


def write_input(payload: dict, workdir: Path, name: str) -> Path:
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"{name}.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return path


# -------------------------------------------------------------- workloads


class _InProcess:
    """A workload whose operation is a library call in the worker process;
    the repr of its result is compared bit for bit across operations."""

    name = ""
    reference_parts = ("python", "numpy")  # see reference.py

    def variant(self, inp: Inputs, index: int) -> str:
        return self.name

    def fingerprint(self, out) -> str:
        return repr(out)

    def reference(self, inp: Inputs) -> None:
        reference.kernel(self.reference_parts)


class ReferenceSession(_InProcess):
    """Full analyst session on the bundled scenario; the LP layer
    dominates."""

    name = "reference-session"
    reference_parts = ("python", "lp")

    def prepare(self, seed: int, workdir: Path) -> Inputs:
        import cryptomix as cm

        instance, scenarios = cm.load_bundled_scenario()
        rng = random.Random(f"reference-session:{seed}")
        vertex_seeds = [rng.randrange(2**32) for _ in range(VERTEX_SAMPLES)]
        record = {"bundled_sha256": sha256_file(cm.bundled_scenario_path()), "vertex_seeds": vertex_seeds}
        return Inputs(record, {"instance": instance, "scenarios": scenarios, "vertex_seeds": vertex_seeds})

    def op(self, inp: Inputs, index: int):
        import cryptomix as cm

        inst, scenarios = inp.data["instance"], inp.data["scenarios"]
        eq = cm.solve_stackelberg(inst)
        table = cm.scenario_table(inst, scenarios)
        mmr = cm.solve_minimax_regret(inst, table)
        maximin = cm.solve_maximin(inst, table)
        unconstrained = cm.solve_unconstrained_case(inst)
        extras = [("mmr", mmr.strategy.probs), ("maximin", maximin.strategy.probs)]
        regret_m = cm.regret_matrix(inst, table, extras)
        breach_m = cm.breach_regret_matrix(inst, table, extras)
        strategies = [
            (f"random-{s}", cm.random_vertex_strategy(inst, s).probs)
            for s in inp.data["vertex_seeds"]
        ]
        strategies += [
            (name, cm.single_objective_strategy(inst, name).probs)
            for name in cm.SINGLE_OBJECTIVES
        ]
        rows = cm.compare_strategies(inst, strategies, eq.evaluations)
        return {
            "equilibrium": eq,
            "table": table,
            "mmr": mmr,
            "maximin": maximin,
            "unconstrained": unconstrained,
            "regret_matrix": regret_m,
            "breach_matrix": breach_m,
            "rows": rows,
        }

    def check(self, inp: Inputs, index: int, out) -> list[str]:
        import cryptomix as cm

        inst = inp.data["instance"]
        eq, table, mmr = out["equilibrium"], out["table"], out["mmr"]
        report = eq.report
        p = []
        # equilibrium
        p += check_evaluations(cm, inst, eq.evaluations, inst.attacker, "equilibrium")
        p += check_strategy(cm, inst, report.strategy.probs, "equilibrium")
        cert = cm.check_dual_certificate(eq.program, eq.solution)
        if not cert <= DUAL_CERT_TOL:
            p.append(f"equilibrium: dual certificate residual {cert!r}")
        if not _close(report.objective, ex.OBJECTIVE):
            p.append(f"equilibrium: objective {report.objective!r}")
        if not _close(report.expected_breach, ex.EXPECTED_BREACH):
            p.append(f"equilibrium: expected breach {report.expected_breach!r}")
        for key, want in ex.USAGE.items():
            if not abs(report.usage[key] - want) <= ex.ABS_TOL * max(1.0, abs(want)):
                p.append(f"equilibrium: usage {key} {report.usage[key]!r}")
        if not _close_all((ev.p_succ_star for ev in eq.evaluations), ex.BREACH_COLUMN):
            p.append("equilibrium: breach column differs")
        p += _vertex_or_unique(
            cm, eq.program, eq.solution, report.strategy.probs, ex.STRATEGY, "equilibrium"
        )
        # scenario table
        p += check_table(cm, inst, table)
        if table.budgets != tuple(sorted(ex.UTILITY_ROWS)):
            p.append(f"table: budgets {table.budgets}")
        for k, row in zip(table.budgets, table.utilities):
            if not _close_all(row, ex.UTILITY_ROWS.get(k, ())):
                p.append(f"table: utilities at k={k:g} differ")
        if not _close_all(table.optima, ex.OPTIMA):
            p.append(f"table: optima {table.optima}")
        if not _close_all(table.optimal_breach, ex.MIN_BREACH):
            p.append(f"table: breach floors {table.optimal_breach}")
        # minimax regret and the matrices
        p += check_strategy(cm, inst, mmr.strategy.probs, "mmr")
        if not _close(mmr.max_regret, ex.MAX_REGRET):
            p.append(f"mmr: max regret {mmr.max_regret!r}")
        if not _close_all(mmr.per_scenario_regret, ex.REGRETS):
            p.append(f"mmr: regrets {mmr.per_scenario_regret}")
        if not _close_all(mmr.strategy.probs, ex.MMR_STRATEGY):
            program = cm.build_regret_lp(inst, table)
            p += _vertex_or_unique(
                cm, program, cm.solve_lp(program), mmr.strategy.probs, ex.MMR_STRATEGY, "mmr"
            )
        for label, col, want in ex.REGRET_MATRIX_CELLS:
            got = out["regret_matrix"].row(label)[col]
            if not _close(got, want, ex.MATRIX_TOL):
                p.append(f"regret matrix: {label}[{col}] = {got!r}")
        breach_row = out["breach_matrix"].row("mmr")
        if not _close_all(breach_row[:-1], ex.MMR_BREACH_ROW) or not _close(
            breach_row[-1], ex.MMR_BREACH_MAX
        ):
            p.append(f"breach matrix: mmr row {breach_row}")
        # maximin and the unconstrained attacker
        p += check_strategy(cm, inst, out["maximin"].strategy.probs, "maximin")
        p += check_strategy(cm, inst, out["unconstrained"].strategy.probs, "unconstrained")
        # baselines: every heuristic row is feasible and no better than the optimum
        labels = {row.label for row in out["rows"]}
        wanted = {f"random-{s}" for s in inp.data["vertex_seeds"]} | set(cm.SINGLE_OBJECTIVES)
        if labels != wanted | {"stackelberg"}:
            p.append(f"baselines: rows {sorted(labels ^ (wanted | {'stackelberg'}))} missing or extra")
        for row in out["rows"]:
            p += check_strategy(cm, inst, row.report.strategy.probs, f"baselines/{row.label}")
            if row.report.objective > report.objective + OBJECTIVE_TOL:
                p.append(f"baselines/{row.label}: objective beats the equilibrium")
            if row.label == "stackelberg" and not _close(
                row.report.objective, report.objective, OBJECTIVE_TOL
            ):
                p.append("baselines/stackelberg: objective differs from the equilibrium")
        return p


class _GeneratedInstance(_InProcess):
    """Shared set-up of the synthetic workloads: the seeded scenario from
    `payload` is written as a file and read back through the package's
    loader."""

    def prepare(self, seed: int, workdir: Path) -> Inputs:
        import cryptomix as cm

        path = write_input(self.payload(seed), workdir, f"{self.name}-seed{seed}")
        instance, scenarios = cm.load_scenario(path)
        record = {"instance_sha256": sha256_file(path), "instance_file": path.name}
        return Inputs(record, {"instance": instance, "scenarios": scenarios})


class SubgameWide(_GeneratedInstance):
    """K budgets x 8 algorithms of 25..400 random methods; the attacker
    layer dominates."""

    name = "subgame-wide"
    payload = staticmethod(wide_payload)

    def op(self, inp: Inputs, index: int):
        import cryptomix as cm

        inst = inp.data["instance"]
        table = cm.scenario_table(inst, inp.data["scenarios"])
        return {"table": table, "mmr": cm.solve_minimax_regret(inst, table)}

    def check(self, inp: Inputs, index: int, out) -> list[str]:
        import cryptomix as cm

        inst = inp.data["instance"]
        table, mmr = out["table"], out["mmr"]
        p = check_table(cm, inst, table)
        if table.budgets != WIDE_BUDGETS:
            p.append(f"table: budgets {table.budgets}")
        p += check_strategy(cm, inst, mmr.strategy.probs, "mmr")
        worst = max(mmr.per_scenario_regret)
        if not abs(worst - mmr.max_regret) <= 1e-6 * (1.0 + abs(worst)):
            p.append(f"mmr: max regret {mmr.max_regret!r} but worst scenario {worst!r}")
        return p


class SubgameTies(_GeneratedInstance):
    """Identical methods, so the DP takes its tie path at every cell; no LP
    runs."""

    name = "subgame-ties"
    payload = staticmethod(ties_payload)

    def op(self, inp: Inputs, index: int):
        import cryptomix as cm

        return cm.evaluate_all(inp.data["instance"])

    def check(self, inp: Inputs, index: int, out) -> list[str]:
        import cryptomix as cm

        inst = inp.data["instance"]
        p = check_evaluations(cm, inst, out, inst.attacker, "ties")
        for alg, ev in zip(inst.algorithms, out):
            ids = sorted(m.id for m in alg.attacks)
            want = tuple(ids[: ties_closed_form(len(ids))])
            if ev.attack_plan.methods != want:
                p.append(f"ties/{alg.id}: plan of {len(ev.attack_plan.methods)} methods, want {len(want)}")
        return p


class CliCold:
    """One CLI process per operation, cycling through four subcommands on
    the bundled scenario; interpreter start-up and import dominate."""

    name = "cli-cold"

    def prepare(self, seed: int, workdir: Path) -> Inputs:
        order = sorted(CLI_COMMANDS)
        random.Random(f"cli-cold:{seed}").shuffle(order)
        bundled = ROOT / "src" / "cryptomix" / "data" / "reference_scenario.json"
        record = {"bundled_sha256": sha256_file(bundled), "cycle": order}
        return Inputs(record, {"order": order, "env": child_env()})

    def variant(self, inp: Inputs, index: int) -> str:
        order = inp.data["order"]
        return order[index % len(order)]

    def op(self, inp: Inputs, index: int, span_file: Path | None = None):
        command = CLI_COMMANDS[self.variant(inp, index)]
        if span_file is None:
            argv = [sys.executable, "-m", "cryptomix.cli", *command]
        else:
            argv = [sys.executable, str(BENCH_DIR / "cli_traced.py"), str(span_file), *command]
        proc = subprocess.run(
            argv, cwd=ROOT, env=inp.data["env"], capture_output=True, text=True, timeout=120
        )
        return {"command": command[0], "returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}

    def check(self, inp: Inputs, index: int, out) -> list[str]:
        import cryptomix as cm

        label = out["command"]
        if out["returncode"] != 0:
            return [f"{label}: exit code {out['returncode']}: {out['stderr'].strip()[-200:]}"]
        payload = json.loads(out["stdout"])
        if "instance" not in inp.data:
            inp.data["instance"] = cm.load_bundled_scenario()[0]
        instance = inp.data["instance"]
        p = []
        if label == "validate":
            if payload != ex.VALIDATE:
                p.append(f"validate: {payload}")
        elif label == "solve-attacker":
            alg = instance.algorithm(payload["algorithm"])
            params = replace(instance.attacker, budget=payload["budget"], value=payload["value"])
            if payload["solver"] != "dp" or alg.id != "aes256-gcm":
                p.append(f"solve-attacker: solver {payload['solver']} on {alg.id}")
            p += check_plan(cm, alg, params, _plan(cm, payload["plan"]), "solve-attacker")
        elif label == "solve-defender":
            if not _close(payload["objective"], ex.OBJECTIVE):
                p.append(f"solve-defender: objective {payload['objective']!r}")
            if not _close(payload["expected_breach"], ex.EXPECTED_BREACH):
                p.append(f"solve-defender: expected breach {payload['expected_breach']!r}")
            probs = [row["prob"] for row in payload["strategy"]]
            p += check_strategy(cm, instance, probs, "solve-defender")
            for alg, row in zip(instance.algorithms, payload["attacks"]):
                p += check_plan(cm, alg, instance.attacker, _plan(cm, row["plan"]), f"solve-defender/{alg.id}")
        else:
            if not _close(payload["max_regret"], ex.MAX_REGRET):
                p.append(f"solve-robust: max regret {payload['max_regret']!r}")
            if not _close_all(payload["per_scenario_regret"], ex.REGRETS):
                p.append("solve-robust: regrets differ")
            if not _close_all(payload["optima"], ex.OPTIMA):
                p.append("solve-robust: optima differ")
            p += check_strategy(cm, instance, payload["strategy"], "solve-robust")
        return p

    def fingerprint(self, out) -> str:
        return out["stdout"]

    def reference(self, inp: Inputs) -> None:
        reference.launch(inp.data["env"])


def _plan(cm, raw: dict):
    return cm.AttackPlan(
        methods=tuple(raw["methods"]),
        success_prob=raw["success_prob"],
        total_cost=raw["total_cost"],
        utility=raw["utility"],
    )


WORKLOADS = {w.name: w for w in (ReferenceSession(), SubgameWide(), SubgameTies(), CliCold())}
